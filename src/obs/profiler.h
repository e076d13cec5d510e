// Scoped hierarchical phase profiler.
//
// A phase is a named region of harness or protocol code ("engine_run", "sim_run",
// "aggregate"); entering the same name under the same parent accumulates into one node,
// so a whole bench run reduces to a small tree of phases with per-phase deltas:
//
//   wall_seconds  real CPU time inside the phase (nondeterministic; never exported to
//                 the metrics registry, only to ReportText/ToJson/Chrome trace)
//   virtual_ms    simulated-time advance inside the phase (deterministic)
//   events        simulator events fired inside the phase (deterministic)
//   calls         times the phase was entered (deterministic)
//
// The virtual clock and event counter are registered by the Simulator constructor,
// exactly like the tracer's clock source; phases that never wrap a Simulator::Run
// simply read zero deltas for both.
//
// Usage:
//   ProfileScope scope("aggregate");   // accumulates into <current>/aggregate
//
// Profiling is off by default and zero-cost when disabled: ProfileScope's constructor
// is one inline enabled-check, identical to the tracer's contract. The TOTORO_PROFILE
// environment variable (any value >= 1) turns it on for the whole process.
//
// Sampling hooks: callers register named samplers (event-queue depth, per-host work,
// ...) with AddSampler; the simulator's periodic sampler (see
// Simulator::EnablePeriodicSampling) drives Sample() every N fired events, so sampled
// series are indexed by a deterministic trigger even though their values may not be.
//
// Export paths:
//   PublishToMetrics  folds calls / virtual_ms / events per phase into the metrics
//                     registry as `profile.<path>.*` series (deterministic only, so
//                     fingerprinted exports stay bit-identical)
//   ReportText        human-readable tree with wall-clock
//   ToJson            machine-readable everything (bench reports embed this)
//   ProfilerToChromeJson (export.h)  flame-graph-style Chrome trace
//
// Like the tracer and metrics registry, the profiler is thread-local so parallel bench
// trials never contend or interleave.
#ifndef SRC_OBS_PROFILER_H_
#define SRC_OBS_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace totoro {

class MetricsRegistry;

struct PhaseStats {
  uint64_t calls = 0;
  double wall_seconds = 0.0;
  double virtual_ms = 0.0;
  uint64_t events = 0;
};

// Running summary of one sampled series (all recorded values, not a reservoir).
struct SampleSeries {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;

  void Record(double value);
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

class Profiler {
 public:
  // One accumulated phase. Children are name-ordered so every walk is deterministic.
  struct PhaseNode {
    std::string name;       // Single path segment, [a-z][a-z0-9_]*.
    size_t parent = 0;      // Index into nodes(); the root is its own parent.
    int depth = 0;          // Root = 0; top-level phases = 1.
    PhaseStats stats;
    std::map<std::string, size_t> children;
  };

  Profiler();

  bool enabled() const { return enabled_; }
  // Enabling mid-run is allowed; already-open scopes entered while disabled stay inert.
  void SetEnabled(bool on) { enabled_ = on; }

  // Registers the virtual clock (the simulator's `now`, virtual ms) and the fired-event
  // counter. The Simulator constructor registers both; deltas read 0 when unset.
  void SetClockSource(const double* now_ms) { clock_ = now_ms; }
  const double* clock_source() const { return clock_; }
  void SetEventCountSource(const uint64_t* events_fired) { events_ = events_fired; }
  const uint64_t* event_count_source() const { return events_; }

  // --- Sampling hooks ---
  // Registers a named gauge-style hook invoked by Sample(). Name-ordered invocation.
  void AddSampler(const std::string& name, std::function<double()> fn);
  void RemoveSampler(const std::string& name);
  // Invokes every registered sampler and records its value. No-op when disabled.
  void Sample();
  // Records one observation into a named series directly (for callers that already
  // hold the value, e.g. the simulator's queue-depth sample). No-op when disabled.
  void RecordSample(const std::string& name, double value);

  // --- Phase tree access ---
  // nodes()[0] is the synthetic root; its stats stay zero.
  const std::vector<PhaseNode>& nodes() const { return nodes_; }
  const std::map<std::string, SampleSeries>& samples() const { return samples_; }
  // Finds a phase by dotted path ("engine_run.sim_run"); nullptr when absent.
  const PhaseNode* Find(const std::string& path) const;
  // Dotted path of a node index ("" for the root).
  std::string PathOf(size_t index) const;
  size_t open_scopes() const { return stack_.size(); }

  // --- Export ---
  // Folds the deterministic fields of every phase into `registry`:
  //   profile.<path>.calls (counter), profile.<path>.virtual_ms (gauge),
  //   profile.<path>.events (gauge)
  // Wall-clock never reaches the registry, so fingerprinted metric exports stay
  // bit-identical across machines and thread counts.
  void PublishToMetrics(MetricsRegistry* registry) const;
  // Indented tree, one line per phase, wall/virtual/events/calls columns.
  std::string ReportText() const;
  // Machine-readable snapshot: phases (all four fields) + sampled series.
  std::string ToJson() const;

  // Drops all phases and samples (open scopes must be closed first); keeps enabled
  // state, sources, and registered samplers.
  void Reset();

  // Folds `other`'s phase tree and sample series into this profiler, matching phases
  // by path (stats add field-wise). `other` must have no open scopes. Callers merge in
  // a fixed order (worker index, shard index) so double sums stay deterministic for a
  // given thread count. This is how worker-thread phases — recorded into the workers'
  // thread-local profilers — reach the exported tree instead of dying with the thread.
  void MergeFrom(const Profiler& other);
  // MergeFrom, but with `other`'s top-level phases placed under the top-level phase
  // `container`, which itself records no calls, wall or virtual time. Used for work
  // that ran on other threads alongside this one: under a serial phase it would count
  // twice and push that phase's self time below zero.
  void MergeUnder(const char* container, const Profiler& other);

 private:
  friend class ProfileScope;

  // Find-or-create the child `name` under `parent` (shared by Enter and MergeFrom).
  size_t ChildNode(size_t parent, const std::string& name);
  void MergeSubtree(const Profiler& other, size_t src, size_t dst);
  void MergeSamples(const Profiler& other);

  struct Frame {
    size_t node = 0;
    double wall_start = 0.0;
    double virtual_start = 0.0;
    uint64_t events_start = 0;
  };

  // Slow paths behind ProfileScope's inline enabled-check.
  void Enter(const char* name);
  void Exit();
  double WallSeconds() const;

  bool enabled_ = false;
  const double* clock_ = nullptr;
  const uint64_t* events_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<PhaseNode> nodes_;
  std::vector<Frame> stack_;
  std::map<std::string, SampleSeries> samples_;
  std::map<std::string, std::function<double()>> samplers_;
};

// The thread-wide profiler. Enabled at thread startup when TOTORO_PROFILE is set to a
// positive integer; SetEnabled overrides at any time.
Profiler& GlobalProfiler();

// RAII phase scope: accumulates [construction, destruction) into the profiler's
// current-phase child `name`. Inert (one predictable branch) when profiling is off.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) {
    Profiler& profiler = GlobalProfiler();
    if (profiler.enabled()) {
      profiler_ = &profiler;
      profiler.Enter(name);
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;
  ~ProfileScope() {
    if (profiler_ != nullptr) {
      profiler_->Exit();
    }
  }

 private:
  Profiler* profiler_ = nullptr;
};

}  // namespace totoro

#endif  // SRC_OBS_PROFILER_H_
