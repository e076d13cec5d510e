// The single sanctioned environment-variable access point (totoro_lint rule R1).
//
// Environment reads are a nondeterminism source: two runs of the same binary can
// diverge on nothing but an ambient variable, which breaks the bit-identical-replay
// guarantee the simulator and benches rely on. Concentrating every read here keeps the
// surface auditable — all knobs are named in one place, every caller goes through a
// typed parse-with-default helper, and direct std::getenv() anywhere else in the tree
// is a lint error.
//
// Known knobs:
//   TOTORO_LOG_LEVEL       debug/info/warn/error/off or 0-4 (src/common/logging.cc)
//   TOTORO_COMPUTE_THREADS FL compute-pool workers (local training and round-close
//                          evaluation), >= 1; 1 = inline on the simulator thread.
//                          Default max(2, cores) - 1. Every count gives
//                          bit-identical exports        (src/fl/compute_pool.cc)
//   TOTORO_BENCH_THREADS   bench trial parallelism, >= 1    (bench/parallel_runner.cc)
//   TOTORO_PROFILE         >= 1 enables the phase profiler  (src/obs/profiler.cc)
//   TOTORO_BENCH_REPORT_DIR  BENCH_*.json output dir, default "."; "off" disables
//                                                           (src/obs/bench_report.cc)
//   TOTORO_SIMD            kernel dispatch level: scalar/unrolled/sse2/avx2/neon;
//                          default = best the CPU supports. All levels are
//                          bit-identical, so this only affects speed.
//                                                           (src/ml/kernels.cc)
//   TOTORO_SIM_SHARDS      simulator shard count for MakeSimulatorFromEnv, >= 1;
//                          1 (default) = the single-threaded engine, K > 1 = K
//                          worker shards behind the conservative barrier. All K
//                          produce bit-identical exports (src/sim/sharded_sim.cc)
#ifndef SRC_COMMON_ENV_H_
#define SRC_COMMON_ENV_H_

#include <cstddef>
#include <optional>
#include <string>

namespace totoro {

// Raw read. Returns nullptr when unset; never returns an empty string as "set"
// (an empty value is treated as unset, matching every existing caller).
const char* EnvString(const char* name);

// The one strict integer parser, shared by env knobs and command-line arguments: the
// whole of `text` must be a base-10 integer (optional sign, no surrounding space or
// trailing garbage) within `long`'s range and >= `min_value`. Empty otherwise.
std::optional<long> ParseInt64(const char* text, long min_value);

// Integer knob: returns `fallback` when unset or when ParseInt64 rejects the value. A
// rejected value logs one warning (per variable and value) naming both and the fallback.
long EnvInt64(const char* name, long fallback, long min_value);

// Positive thread/worker-count knob: EnvInt64 with min_value 1, narrowed to size_t.
size_t EnvThreadCount(const char* name, size_t fallback);

}  // namespace totoro

#endif  // SRC_COMMON_ENV_H_
