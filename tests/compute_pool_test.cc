// ComputePool unit tests plus the tentpole determinism guarantee: a TotoroEngine run
// with a 4-thread compute pool produces byte-identical observability exports (and
// results) to the sequential run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/fl/compute_pool.h"
#include "src/ml/dataset.h"
#include "src/obs/export.h"

namespace totoro {
namespace {

LocalUpdate MakeUpdate(float value) {
  LocalUpdate update;
  update.weights = {value};
  update.sample_weight = static_cast<double>(value);
  return update;
}

TEST(ComputePoolTest, InlineModeRunsOnSubmitWithoutThreads) {
  ComputePool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::atomic<bool> ran{false};
  ComputePool::Ticket ticket = pool.Submit([&] {
    ran = true;
    return MakeUpdate(7.0f);
  });
  // Inline mode runs the task inside Submit — before Wait is ever called.
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(ticket.Take().weights[0], 7.0f);
  EXPECT_EQ(pool.tasks_submitted(), 1u);
}

// Regression for the orphan-tree bug: ProfileScopes inside offloaded tasks accumulate
// into the WORKER's thread-local profiler, which used to die with the thread (and later
// only reached the owner when the pool was destroyed, after a bench had read its
// profile). Workers now stash their phases before marking a task done, and
// FoldWorkerProfiles moves them into the owner's tree under the zero-wall top-level
// container "compute_pool" while the pool is alive.
TEST(ComputePoolTest, WorkerProfilerPhasesDrainIntoOwnersTree) {
  uint64_t calls_after_fold = 0;
  uint64_t calls_after_destroy = 0;
  uint64_t container_calls = 1;
  double container_wall = 1.0;
  std::string json;
  // A fresh owner thread gives this test a clean tree; its enabled profiler is what
  // the submitted tasks inherit.
  std::thread owner([&] {
    GlobalProfiler().SetEnabled(true);
    {
      ComputePool pool(4);
      std::atomic<int> started{0};
      std::vector<ComputePool::Ticket> tickets;
      for (int i = 0; i < 16; ++i) {
        tickets.push_back(pool.Submit([i, &started] {
          started.fetch_add(1);
          return MakeUpdate(static_cast<float>(i));
        }));
      }
      // Let the workers claim every task first: Wait() runs a still-queued task on the
      // waiting thread, and this test is about the worker-side phases.
      while (started.load() < 16) {
        std::this_thread::yield();
      }
      for (ComputePool::Ticket& ticket : tickets) {
        ticket.Wait();
      }
      pool.FoldWorkerProfiles();
      if (const Profiler::PhaseNode* node = GlobalProfiler().Find("compute_pool.compute_task")) {
        calls_after_fold = node->stats.calls;
      }
      if (const Profiler::PhaseNode* node = GlobalProfiler().Find("compute_pool")) {
        container_calls = node->stats.calls;
        container_wall = node->stats.wall_seconds;
      }
    }  // Destruction folds only what is left: nothing.
    if (const Profiler::PhaseNode* node = GlobalProfiler().Find("compute_pool.compute_task")) {
      calls_after_destroy = node->stats.calls;
    }
    json = GlobalProfiler().ToJson();
  });
  owner.join();
  EXPECT_EQ(calls_after_fold, 16u);
  EXPECT_EQ(calls_after_destroy, 16u);
  EXPECT_EQ(container_calls, 0u);
  EXPECT_EQ(container_wall, 0.0);
  EXPECT_NE(json.find("compute_task"), std::string::npos);
}

TEST(ComputePoolTest, UnprofiledSubmitterLeavesNoWorkerPhases) {
  size_t nodes = 0;
  std::thread owner([&nodes] {
    GlobalProfiler().SetEnabled(false);
    ComputePool pool(2);
    pool.Submit([] { return MakeUpdate(1.0f); }).Wait();
    pool.FoldWorkerProfiles();
    nodes = GlobalProfiler().nodes().size();
  });
  owner.join();
  EXPECT_EQ(nodes, 1u);  // The root only.
}

// A waiter never blocks behind the queue for a task no worker has started: it runs
// the task itself.
TEST(ComputePoolTest, WaitRunsAStillQueuedTaskOnTheWaitingThread) {
  ComputePool pool(2);
  Mutex gate_mu;
  CondVar gate_cv;
  bool open = false;
  auto blocked = [&] {
    MutexLock lock(&gate_mu);
    while (!open) {
      gate_cv.Wait(gate_mu);
    }
    return MakeUpdate(0.0f);
  };
  std::vector<ComputePool::Ticket> held{pool.Submit(blocked), pool.Submit(blocked)};
  const std::thread::id waiter = std::this_thread::get_id();
  std::thread::id ran_on;
  ComputePool::Ticket queued = pool.Submit([&ran_on] {
    ran_on = std::this_thread::get_id();
    return MakeUpdate(5.0f);
  });
  EXPECT_EQ(queued.Take().weights[0], 5.0f);  // Both workers are still held.
  EXPECT_EQ(ran_on, waiter);
  {
    MutexLock lock(&gate_mu);
    open = true;
  }
  gate_cv.NotifyAll();
  for (ComputePool::Ticket& ticket : held) {
    ticket.Wait();
  }
}

TEST(ComputePoolTest, RunSlicesReturnsResultsInSliceOrder) {
  for (size_t threads : {1u, 2u, 4u}) {
    ComputePool pool(threads);
    const std::vector<uint64_t> results =
        pool.RunSlices(7, [](size_t slice) { return static_cast<uint64_t>(slice * slice); });
    ASSERT_EQ(results.size(), 7u);
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], i * i) << "threads=" << threads;
    }
    EXPECT_TRUE(pool.RunSlices(0, [](size_t) { return uint64_t{1}; }).empty());
    EXPECT_EQ(pool.tasks_submitted(), 0u);  // Slices are not training tasks.
  }
}

// Evaluation must not queue behind training: with every worker blocked and more
// training queued, RunSlices still completes because the caller runs the slices no
// worker has claimed.
TEST(ComputePoolTest, RunSlicesDoesNotWaitBehindQueuedTraining) {
  ComputePool pool(2);
  Mutex gate_mu;
  CondVar gate_cv;
  bool open = false;
  auto blocked = [&] {
    MutexLock lock(&gate_mu);
    while (!open) {
      gate_cv.Wait(gate_mu);
    }
    return MakeUpdate(1.0f);
  };
  std::atomic<int> started{0};
  std::vector<ComputePool::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(pool.Submit([&] {
      started.fetch_add(1);
      return blocked();
    }));
  }
  while (started.load() < 2) {  // Both workers are inside a training task.
    std::this_thread::yield();
  }
  const std::vector<uint64_t> results =
      pool.RunSlices(4, [](size_t slice) { return static_cast<uint64_t>(slice + 10); });
  EXPECT_EQ(results, (std::vector<uint64_t>{10, 11, 12, 13}));
  {
    MutexLock lock(&gate_mu);
    open = true;
  }
  gate_cv.NotifyAll();
  for (ComputePool::Ticket& ticket : tickets) {
    EXPECT_EQ(ticket.Take().weights[0], 1.0f);
  }
}

TEST(ComputePoolTest, RunSlicesRethrowsTheFirstFailedSliceAfterAllRan) {
  ComputePool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.RunSlices(6, [&ran](size_t slice) -> uint64_t {
      ++ran;
      if (slice == 2 || slice == 4) {
        throw std::runtime_error("slice " + std::to_string(slice));
      }
      return slice;
    });
    ADD_FAILURE() << "RunSlices swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slice 2");
  }
  EXPECT_EQ(ran.load(), 6);
}

TEST(ComputePoolTest, ThreadedPoolCompletesAllTasksWithCorrectResults) {
  ComputePool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::vector<ComputePool::Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(pool.Submit([i] { return MakeUpdate(static_cast<float>(i)); }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(tickets[static_cast<size_t>(i)].Take().weights[0], static_cast<float>(i));
  }
  EXPECT_EQ(pool.tasks_submitted(), 64u);
}

TEST(ComputePoolTest, WaitIsIdempotentAndResultSurvivesUntilTake) {
  ComputePool pool(2);
  ComputePool::Ticket ticket = pool.Submit([] { return MakeUpdate(3.0f); });
  ticket.Wait();
  ticket.Wait();
  ComputePool::Ticket copy = ticket;  // Shared state.
  EXPECT_EQ(copy.Take().weights[0], 3.0f);
}

TEST(ComputePoolTest, ExceptionsPropagateToWait) {
  ComputePool pool(2);
  ComputePool::Ticket ticket =
      pool.Submit([]() -> LocalUpdate { throw std::runtime_error("boom"); });
  EXPECT_THROW(ticket.Wait(), std::runtime_error);
}

TEST(ComputePoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<ComputePool::Ticket> tickets;
  {
    ComputePool pool(2);
    for (int i = 0; i < 32; ++i) {
      tickets.push_back(pool.Submit([&ran, i] {
        ++ran;
        return MakeUpdate(static_cast<float>(i));
      }));
    }
  }
  EXPECT_EQ(ran.load(), 32);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(tickets[static_cast<size_t>(i)].Take().weights[0], static_cast<float>(i));
  }
}

// Unset or malformed, the pool takes every core but the simulator thread's (inline on
// one or two cores), the rule the overlay build's worker count follows too.
TEST(ComputePoolTest, ThreadsFromEnvParsesAndDefaults) {
  const size_t cores = std::thread::hardware_concurrency();
  const size_t default_threads = std::max<size_t>(2, cores) - 1;
  ::setenv("TOTORO_COMPUTE_THREADS", "6", 1);
  EXPECT_EQ(ComputePool::ThreadsFromEnv(), 6u);
  ::setenv("TOTORO_COMPUTE_THREADS", "1", 1);
  EXPECT_EQ(ComputePool::ThreadsFromEnv(), 1u);
  ::setenv("TOTORO_COMPUTE_THREADS", "0", 1);
  EXPECT_EQ(ComputePool::ThreadsFromEnv(), default_threads);
  ::setenv("TOTORO_COMPUTE_THREADS", "junk", 1);
  EXPECT_EQ(ComputePool::ThreadsFromEnv(), default_threads);
  ::unsetenv("TOTORO_COMPUTE_THREADS");
  EXPECT_EQ(ComputePool::ThreadsFromEnv(), default_threads);
}

// --- Engine-level determinism -------------------------------------------------------

// `hidden` > 0 swaps the softmax regression for an MLP with that many hidden units,
// heavy enough that workers, not the waiting simulator thread, run most tasks.
FlAppConfig ProbeApp(const std::string& name, int hidden = 0) {
  FlAppConfig config;
  config.name = name;
  config.model_factory = [hidden](uint64_t seed) {
    return hidden > 0 ? MakeMlp("mlp", 16, hidden, 4, seed)
                      : MakeSoftmaxRegression("sr", 16, 4, seed);
  };
  config.train.learning_rate = 0.15f;
  config.train.batch_size = 20;
  config.train.local_steps = 5;
  config.max_rounds = 4;
  return config;
}

struct EngineArtifacts {
  std::string trace;
  std::string metrics;
  std::vector<AppResult> results;
  uint64_t rejoins = 0;
  uint64_t train_tasks = 0;
  // compute_task calls in this thread's profile, wherever they sit (folded from the
  // workers, or nested under a phase when a Wait() ran the task): when RunToCompletion
  // returned, and after the engine and its pool were destroyed.
  uint64_t task_phases_at_return = 0;
  uint64_t task_phases_at_end = 0;
};

uint64_t ComputeTaskPhaseCalls() {
  uint64_t calls = 0;
  for (const Profiler::PhaseNode& node : GlobalProfiler().nodes()) {
    if (node.name == "compute_task") {
      calls += node.stats.calls;
    }
  }
  return calls;
}

// One world exercising every offloaded path: a secure-aggregation app with Oort-like
// selection, a straggler cut by the tree timeout, a round deadline, and an async app
// with staleness discounting — run at `threads` compute threads, or with the engine's
// default pool when unset.
EngineArtifacts RunEngineWorld(std::optional<size_t> threads, int hidden = 0) {
  GlobalTracer().Clear();
  GlobalTracer().SetEnabled(true);
  GlobalMetrics().ResetValues();
  EngineArtifacts out;
  {
    Simulator sim;
    NetworkConfig net_config;
    Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 5), net_config);
    PastryNetwork pastry(&net, PastryConfig{});
    Rng rng(100);
    for (size_t i = 0; i < 50; ++i) {
      pastry.AddRandomNode(rng);
    }
    pastry.BuildOracle(rng);
    ScribeConfig scribe_config;
    scribe_config.aggregation_timeout_ms = 200.0;
    Forest forest(&pastry, scribe_config);
    TotoroEngine engine(&forest, ComputeModel{}, 101);
    if (threads.has_value()) {
      engine.SetComputeThreads(*threads);
    }
    engine.SetRoundDeadline(5000.0);
    // Worker 3 is ~5 orders of magnitude slower: every round cuts it off.
    std::vector<double> speeds(50, 1.0);
    speeds[3] = 1e-5;
    engine.SetSpeedFactors(speeds);

    SyntheticSpec spec;
    spec.dim = 16;
    spec.num_classes = 4;
    spec.class_separation = 2.5;
    spec.noise_stddev = 0.8;
    spec.seed = 7;
    SyntheticTask task(spec);
    Rng data_rng(8);
    auto make_shards = [&](size_t n) {
      std::vector<Dataset> shards;
      for (size_t i = 0; i < n; ++i) {
        shards.push_back(task.Generate(100, data_rng));
      }
      return shards;
    };
    std::vector<size_t> workers{0, 1, 2, 3, 4, 5, 6, 7};

    FlAppConfig secure = ProbeApp("secure-app", hidden);
    secure.secure_aggregation = true;
    secure.participants_per_round = 5;
    secure.selection = SelectionPolicy::kOortLike;
    const NodeId secure_topic =
        engine.LaunchApp(secure, workers, make_shards(8), task.Generate(150, data_rng));

    FlAppConfig async_app = ProbeApp("async-app", hidden);
    async_app.async = AsyncConfig{};
    async_app.async->staleness_exponent = 0.5;
    std::vector<size_t> async_workers{10, 11, 12, 13, 14, 15};
    const NodeId async_topic = engine.LaunchApp(async_app, async_workers, make_shards(6),
                                                task.Generate(150, data_rng));

    engine.StartAll();
    EXPECT_TRUE(engine.RunToCompletion());
    out.results.push_back(engine.result(secure_topic));
    out.results.push_back(engine.result(async_topic));
    out.rejoins = sim.rejoins_scheduled();
    out.train_tasks = GlobalMetrics().GetCounter("engine.compute.train_tasks").value();
    out.task_phases_at_return = ComputeTaskPhaseCalls();
  }
  out.task_phases_at_end = ComputeTaskPhaseCalls();
  out.trace = TraceToChromeJson(GlobalTracer());
  out.metrics = MetricsToJson(GlobalMetrics());
  GlobalTracer().SetEnabled(false);
  GlobalTracer().Clear();
  GlobalMetrics().ResetValues();
  return out;
}

TEST(ComputePoolDeterminismTest, FourThreadEngineRunIsByteIdenticalToSequential) {
  const EngineArtifacts sequential = RunEngineWorld(1);
  const EngineArtifacts parallel = RunEngineWorld(4);

  // Training actually went through the offload path in both runs.
  EXPECT_GT(sequential.rejoins, 0u);
  EXPECT_EQ(sequential.rejoins, parallel.rejoins);

  EXPECT_EQ(sequential.trace, parallel.trace) << "trace export depends on thread count";
  EXPECT_EQ(sequential.metrics, parallel.metrics)
      << "metrics export depends on thread count";
  EXPECT_EQ(FingerprintBytes(sequential.trace), FingerprintBytes(parallel.trace));

  ASSERT_EQ(sequential.results.size(), parallel.results.size());
  for (size_t i = 0; i < sequential.results.size(); ++i) {
    const AppResult& a = sequential.results[i];
    const AppResult& b = parallel.results[i];
    EXPECT_EQ(a.rounds_completed, b.rounds_completed);
    EXPECT_EQ(a.final_accuracy, b.final_accuracy);  // Bit-identical, not just close.
    EXPECT_EQ(a.total_time_ms, b.total_time_ms);
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (size_t p = 0; p < a.curve.size(); ++p) {
      EXPECT_EQ(a.curve[p].accuracy, b.curve[p].accuracy);
      EXPECT_EQ(a.curve[p].time_ms, b.curve[p].time_ms);
    }
  }
}

// Worker-side phases reach the owner's profile while the engine (and its pool) is still
// alive, so a bench that reads the profile right after the run sees the training time.
TEST(ComputePoolDeterminismTest, RunToCompletionFoldsWorkerPhases) {
  EngineArtifacts run;
  std::thread owner([&run] {
    GlobalProfiler().SetEnabled(true);
    run = RunEngineWorld(4, /*hidden=*/256);
  });
  owner.join();
  // Every task's phase is counted exactly once in the end.
  EXPECT_GT(run.train_tasks, 14u);
  EXPECT_EQ(run.task_phases_at_end, run.train_tasks);
  // A trainer joins its previous ticket before it trains again, so at most one task per
  // trainer (14 in this world) can still be unjoined, and unfolded, at the return.
  EXPECT_LE(run.task_phases_at_end - run.task_phases_at_return, 14u);
}

// The engine's default pool (TOTORO_COMPUTE_THREADS unset: every core) against the
// explicitly pinned inline pool.
TEST(ComputePoolDeterminismTest, DefaultPoolRunIsByteIdenticalToInline) {
  ::unsetenv("TOTORO_COMPUTE_THREADS");
  const EngineArtifacts inline_run = RunEngineWorld(1);
  const EngineArtifacts default_run = RunEngineWorld(std::nullopt);
  EXPECT_GT(inline_run.rejoins, 0u);
  EXPECT_EQ(inline_run.rejoins, default_run.rejoins);
  EXPECT_EQ(inline_run.trace, default_run.trace);
  EXPECT_EQ(inline_run.metrics, default_run.metrics);
  ASSERT_EQ(inline_run.results.size(), default_run.results.size());
  for (size_t i = 0; i < inline_run.results.size(); ++i) {
    ASSERT_EQ(inline_run.results[i].curve.size(), default_run.results[i].curve.size());
    for (size_t p = 0; p < inline_run.results[i].curve.size(); ++p) {
      EXPECT_EQ(inline_run.results[i].curve[p].accuracy,
                default_run.results[i].curve[p].accuracy);
    }
  }
}

TEST(ComputePoolDeterminismTest, EightThreadRunMatchesToo) {
  const EngineArtifacts a = RunEngineWorld(1);
  const EngineArtifacts b = RunEngineWorld(8);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
}

}  // namespace
}  // namespace totoro
