// Deterministic parallel compute offload for local training and round-close evaluation.
//
// The simulator is single-threaded by contract; what dominates the TTA benches'
// wall-clock is not event dispatch but the real CPU work inside each event — the
// LocalTrainer::Train calls the engine runs when a round's broadcast reaches its
// workers, and the global model's test-set evaluation when a round closes. Training
// calls are mutually independent (per-trainer model, shard and RNG; no thread-local
// tracer/metrics/log access), so they run on worker threads while virtual time stands
// still. An evaluation is split into contiguous test-set slices whose integer counts
// are summed in slice order, so it is exact at any split.
//
// Determinism contract (the same guarantee bench/parallel_runner gives whole trials,
// applied inside one engine): Submit() returns a Ticket immediately; the caller
// schedules a *rejoin* event at the client's virtual-time completion stamp, which
// Wait()s on the ticket and folds the result into the event stream. Everything the
// schedule depends on (the completion stamp, work accounting, trace spans) is computed
// from inputs available BEFORE training runs, so the sequence of Schedule() calls —
// and therefore event order, traces and metrics — is bit-identical for any thread
// count, including the inline (threads <= 1) mode that never spawns a thread.
// Nothing waits behind the queue: a Wait() on a task no worker has started runs it on
// the waiting thread, and RunSlices() puts its slices at the front of the queue and
// has the caller run every slice no worker has claimed, so a round-close evaluation
// never waits behind queued training.
//
// Thread count comes from TOTORO_COMPUTE_THREADS; by default max(2, cores) - 1
// workers, so the workers plus the simulator thread fill the machine (inline on one
// or two cores).
#ifndef SRC_FL_COMPUTE_POOL_H_
#define SRC_FL_COMPUTE_POOL_H_

#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/fl/client.h"
#include "src/obs/profiler.h"

namespace totoro {

class ComputePool {
 public:
  using TrainFn = std::function<LocalUpdate()>;
  // One slice of a split computation: maps a slice index to its integer result.
  using SliceFn = std::function<uint64_t(size_t slice)>;

  // Handle to one submitted training task. Copyable (shared state); empty tickets are
  // valid() == false. Wait() runs the task on the calling thread if no worker has
  // started it yet, otherwise blocks until it ran (a no-op in inline mode), and
  // rethrows any exception the task threw.
  class Ticket {
   public:
    Ticket() = default;

    bool valid() const { return state_ != nullptr; }
    // Blocks until the result is ready; the result stays readable afterwards.
    void Wait() const;
    // Wait() and move the result out. Call at most once per ticket.
    LocalUpdate Take();

   private:
    friend class ComputePool;
    struct State;
    explicit Ticket(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  // threads <= 1 selects inline mode: Submit() runs the task on the calling thread and
  // no worker threads exist at all.
  explicit ComputePool(size_t threads);
  ~ComputePool();
  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  Ticket Submit(TrainFn fn);

  // Runs fn(0) .. fn(slices - 1) and returns their results in slice order. The slices
  // jump ahead of queued training tasks; the calling thread runs slice 0 and then every
  // slice no worker has claimed, and returns once all have run. Rethrows the first
  // exception in slice order. Inline mode runs the slices in order on the caller.
  std::vector<uint64_t> RunSlices(size_t slices, const SliceFn& fn);

  // Folds the profiler phases workers recorded since the last fold into the calling
  // thread's profiler, under the top-level phase "compute_pool". That container gets
  // no calls or wall time of its own: worker time overlaps the simulator thread's, so
  // parenting it under a serial phase would drive that phase's self time negative. A
  // task records its phase on a worker iff the submitting thread's profiler was
  // enabled at Submit. Call on the pool's owning thread; the destructor folds whatever
  // is left.
  void FoldWorkerProfiles();

  size_t threads() const { return workers_.empty() ? 1 : workers_.size(); }
  // Threads that can work on one RunSlices call at once: the workers plus the caller.
  size_t parallelism() const { return workers_.size() + 1; }
  // Tasks accepted so far (deterministic: counted at Submit on the simulator thread).
  uint64_t tasks_submitted() const { return tasks_submitted_; }

  // Parses TOTORO_COMPUTE_THREADS (>= 1). Unset or malformed (with a warning) gives
  // max(2, hardware_concurrency()) - 1.
  static size_t ThreadsFromEnv();

 private:
  struct Task;
  struct SliceTask;

  void WorkerLoop();
  // Moves the calling worker's thread-local phases into pending_profile_.
  void StashWorkerProfile();

  std::vector<std::thread> workers_;
  uint64_t tasks_submitted_ = 0;

  Mutex mu_;
  CondVar cv_;
  std::deque<std::shared_ptr<Task>> queue_ TOTORO_GUARDED_BY(mu_);
  bool stopping_ TOTORO_GUARDED_BY(mu_) = false;
  // Worker-side phases (ProfileScopes inside tasks accumulate into the worker's
  // thread-local profiler) waiting for the owner to fold them. Each worker stashes
  // before it marks its task done, so a fold after a Wait() sees that task's phases.
  Profiler pending_profile_ TOTORO_GUARDED_BY(mu_);
};

}  // namespace totoro

#endif  // SRC_FL_COMPUTE_POOL_H_
