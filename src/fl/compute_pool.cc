#include "src/fl/compute_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "src/common/check.h"
#include "src/common/env.h"

namespace totoro {

// One queue entry. Whoever claims it first — a worker, or the thread that needs its
// result — runs it, exactly once.
struct ComputePool::Task {
  // Constructed on the submitting thread, whose profiler setting the task inherits.
  explicit Task(const char* phase_name)
      : phase(phase_name), profiled(GlobalProfiler().enabled()) {}
  virtual ~Task() = default;

  // The work itself. Results are written by the running thread before Finish() and read
  // only after Await(), which the done flag orders.
  virtual void Body() = 0;

  bool Claim() { return !claimed.exchange(true, std::memory_order_acq_rel); }

  // Runs Body under the profiler phase `phase` (none when null) on the running thread's
  // profiler: the caller's tree in inline mode, nested under the submitting phase; the
  // worker's thread-local tree otherwise, stashed for the owner's next fold.
  std::exception_ptr Execute() {
    if (phase == nullptr) {
      return Guarded();
    }
    ProfileScope profile_task(phase);
    return Guarded();
  }

  void Finish(std::exception_ptr err) {
    {
      MutexLock lock(&mu);
      error = std::move(err);
      done = true;
    }
    cv.NotifyAll();
  }

  void Run() { Finish(Execute()); }
  void TryRun() {
    if (Claim()) {
      Run();
    }
  }

  // Blocks until the task ran; returns the exception it threw, if any.
  std::exception_ptr Await() {
    MutexLock lock(&mu);
    while (!done) {
      cv.Wait(mu);
    }
    return error;
  }

  const char* const phase;
  const bool profiled;
  std::atomic<bool> claimed{false};
  Mutex mu;
  CondVar cv;
  bool done TOTORO_GUARDED_BY(mu) = false;
  std::exception_ptr error TOTORO_GUARDED_BY(mu);

 private:
  std::exception_ptr Guarded() {
    try {
      Body();
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  }
};

struct ComputePool::Ticket::State : ComputePool::Task {
  explicit State(TrainFn train) : Task("compute_task"), fn(std::move(train)) {}

  void Body() override {
    result = fn();
    fn = nullptr;  // Release captured payloads promptly.
  }

  TrainFn fn;
  LocalUpdate result;
};

struct ComputePool::SliceTask : ComputePool::Task {
  // Slices open no phase: the caller's enclosing phase already spans the whole split.
  SliceTask(const SliceFn* slice_fn, size_t slice_index)
      : Task(nullptr), fn(slice_fn), index(slice_index) {}

  void Body() override { result = (*fn)(index); }

  const SliceFn* fn;  // Owned by the RunSlices caller, which outlives every run.
  size_t index;
  uint64_t result = 0;
};

void ComputePool::Ticket::Wait() const {
  CHECK(state_ != nullptr);
  // A task no worker has started yet runs right here: the caller would only block on it.
  state_->TryRun();
  if (std::exception_ptr error = state_->Await()) {
    std::rethrow_exception(error);
  }
}

LocalUpdate ComputePool::Ticket::Take() {
  Wait();
  return std::move(state_->result);
}

ComputePool::ComputePool(size_t threads) {
  if (threads <= 1) {
    return;  // Inline mode.
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ComputePool::~ComputePool() {
  if (!workers_.empty()) {
    {
      MutexLock lock(&mu_);
      stopping_ = true;
    }
    cv_.NotifyAll();
    for (auto& worker : workers_) {
      worker.join();
    }
    FoldWorkerProfiles();
  }
  // Queued-but-unstarted tasks still owe their tickets a result (a rejoin event may
  // outlive the pool); run them inline. All workers are joined (or never existed), but
  // the lock keeps the guarded access provable and costs nothing uncontended.
  std::deque<std::shared_ptr<Task>> leftovers;
  {
    MutexLock lock(&mu_);
    leftovers.swap(queue_);
  }
  for (auto& task : leftovers) {
    task->TryRun();
  }
}

ComputePool::Ticket ComputePool::Submit(TrainFn fn) {
  CHECK(fn != nullptr);
  auto state = std::make_shared<Ticket::State>(std::move(fn));
  ++tasks_submitted_;
  if (workers_.empty()) {
    state->TryRun();
    return Ticket(std::move(state));
  }
  {
    MutexLock lock(&mu_);
    queue_.push_back(state);
  }
  cv_.NotifyOne();
  return Ticket(std::move(state));
}

std::vector<uint64_t> ComputePool::RunSlices(size_t slices, const SliceFn& fn) {
  std::vector<uint64_t> results(slices);
  if (workers_.empty() || slices <= 1) {
    for (size_t i = 0; i < slices; ++i) {
      results[i] = fn(i);
    }
    return results;
  }
  std::vector<std::shared_ptr<SliceTask>> tasks;
  tasks.reserve(slices);
  for (size_t i = 0; i < slices; ++i) {
    tasks.push_back(std::make_shared<SliceTask>(&fn, i));
  }
  {
    // Slice 1 ends up at the very front; slice 0 stays with the caller.
    MutexLock lock(&mu_);
    for (size_t i = slices - 1; i >= 1; --i) {
      queue_.push_front(tasks[i]);
    }
  }
  cv_.NotifyAll();
  for (auto& task : tasks) {
    task->TryRun();
  }
  // Every slice must finish before `fn` goes out of scope, even if one threw.
  std::exception_ptr first_error;
  for (size_t i = 0; i < slices; ++i) {
    std::exception_ptr error = tasks[i]->Await();
    if (error != nullptr && first_error == nullptr) {
      first_error = error;
    }
    results[i] = tasks[i]->result;
  }
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
  return results;
}

void ComputePool::FoldWorkerProfiles() {
  Profiler& owner = GlobalProfiler();
  MutexLock lock(&mu_);
  if (pending_profile_.nodes().size() > 1) {
    owner.MergeUnder("compute_pool", pending_profile_);
    pending_profile_.Reset();
  }
}

void ComputePool::StashWorkerProfile() {
  Profiler& mine = GlobalProfiler();
  if (mine.nodes().size() <= 1) {
    return;  // Nothing recorded: profiling is off, or the task opened no phase.
  }
  {
    MutexLock lock(&mu_);
    pending_profile_.MergeFrom(mine);
  }
  mine.Reset();
}

void ComputePool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Task> task;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) {
        cv_.Wait(mu_);
      }
      if (queue_.empty()) {
        break;  // stopping_ with a drained queue.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (!task->Claim()) {
      continue;  // The thread waiting for it ran it already.
    }
    GlobalProfiler().SetEnabled(task->profiled);
    std::exception_ptr error = task->Execute();
    StashWorkerProfile();
    task->Finish(std::move(error));
  }
}

size_t ComputePool::ThreadsFromEnv() {
  const unsigned cores = std::thread::hardware_concurrency();
  return EnvThreadCount("TOTORO_COMPUTE_THREADS", std::max(2u, cores) - 1);
}

}  // namespace totoro
