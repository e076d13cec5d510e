// Shared pieces of the episode runner: the span recorder that times calls into each
// layer from the benchmark's side, run-phase counter snapshots, and the per-episode
// result that episode.cc serializes for run.py.
//
// One process runs one episode of one workload: set-up, a run phase of ops that fire on
// a seeded schedule in virtual time (open loop), then correctness checks. Host times
// come from the spans; everything else (virtual latencies, bytes, event counts) is a
// pure function of the seed and must repeat exactly.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/network.h"

namespace perfbench {

// VmRSS of this process in MB (0 when /proc is unavailable).
double CurrentRssMb();

// Spans around the benchmark's calls into the program. A span's parent is the span
// open when it began; self time is its wall time minus that of its direct children.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  int Begin(const std::string& name);
  void End(int id);
  // Summed wall / self seconds over every span called `name` (0 when absent).
  double Wall(const std::string& name) const;
  double Self(const std::string& name) const;
  const std::vector<Span>& all() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const std::string& name) : spans_(spans), id_(spans.Begin(name)) {}
  ~ScopedSpan() { spans_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& spans_;
  int id_;
};

// Network and registry counters read at the start and end of the run phase.
struct CounterSnapshot {
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t bytes_tcp = 0;
  uint64_t bytes_udp = 0;
  uint64_t dropped = 0;
  uint64_t events = 0;
  uint64_t cancelled = 0;
  uint64_t route_hops_count = 0;
  double route_hops_sum = 0.0;
};
struct Result;
// Bracket the run phase: Begin snapshots the counters and clears the profiler so its
// phase tree covers the run only; Capture (called right after the "run" span closes)
// snapshots again and derives the sim/net/obs and engine-phase values.
void BeginRunPhase(Result& r, totoro::Network& net);
void CaptureRunPhase(Result& r, totoro::Network& net);

// The outcome of one episode.
struct Result {
  bool correct = true;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Virtual latency of every completed op, in ms.
  std::vector<double> latencies_ms;
  // Virtual seconds until the last FL app reached its target; < 0 when not applicable.
  double tta_virtual_s = -1.0;
  // Per-layer values (see README.md), split by class: host values are wall-clock or
  // memory readings, virtual values must repeat exactly for a seed. The runner adds the
  // generic sim/net/obs ones in CaptureRunPhase.
  std::map<std::string, double> host_layer;
  std::map<std::string, double> virtual_layer;
  CounterSnapshot run_start;
  CounterSnapshot run_end;
  Spans spans;

  void Fail(const std::string& why);
};

// Workloads. Each fills `r`, wrapping set-up in a "setup" span and the timed ops in a
// "run" span; the runner reads both.
void RunOverlayLookup(uint64_t seed, Result& r);
void RunFlConcurrentApps(uint64_t seed, Result& r);
void RunForestChurn(uint64_t seed, Result& r);

// Summed wall seconds of every profiler phase called `name` in this thread's profiler
// (0 when absent or when profiling is off).
double PhaseWall(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
