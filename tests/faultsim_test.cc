// Faultsim golden scenarios: scripted fault timelines executed against a live overlay
// with the InvariantChecker attached, asserting bounded recovery and zero protocol
// violations — and that every scenario replays bit-identically per seed.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/core/engine.h"
#include "src/faultsim/fault_injector.h"
#include "src/faultsim/fault_script.h"
#include "src/faultsim/invariant_checker.h"
#include "src/faultsim/recovery.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/pubsub/forest.h"

namespace totoro {
namespace {

// ---------- FaultScript DSL ----------

TEST(FaultScriptTest, FlapExpandsToPairedFullLossWindows) {
  FaultScript script;
  script.FlapLinkAt(1000.0, 3, 7, /*burst_ms=*/50.0, /*gap_ms=*/150.0, /*bursts=*/4);
  const auto& events = script.events();
  ASSERT_EQ(events.size(), 8u);  // 4 begin/end pairs.
  for (int i = 0; i < 4; ++i) {
    const FaultEvent& begin = events[2 * i];
    const FaultEvent& end = events[2 * i + 1];
    EXPECT_EQ(begin.kind, FaultKind::kPerturbBegin);
    EXPECT_EQ(end.kind, FaultKind::kPerturbEnd);
    EXPECT_EQ(begin.perturb_id, end.perturb_id);
    EXPECT_DOUBLE_EQ(begin.at, 1000.0 + i * 200.0);
    EXPECT_DOUBLE_EQ(end.at, begin.at + 50.0);
    EXPECT_DOUBLE_EQ(begin.perturb.drop_prob, 1.0);
    EXPECT_EQ(begin.perturb.endpoints_a, std::vector<HostId>{3});
    EXPECT_EQ(begin.perturb.endpoints_b, std::vector<HostId>{7});
  }
  EXPECT_DOUBLE_EQ(script.EndTime(), 1000.0 + 3 * 200.0 + 50.0);
}

TEST(FaultScriptTest, RandomScriptsAreDeterministicBoundedAndRecoverable) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RandomScriptOptions opts;
    opts.protected_hosts = {0, 1};
    Rng rng_a(seed);
    Rng rng_b(seed);
    const FaultScript a = GenerateRandomFaultScript(rng_a, 50, 10000.0, opts);
    const FaultScript b = GenerateRandomFaultScript(rng_b, 50, 10000.0, opts);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (size_t i = 0; i < a.events().size(); ++i) {
      EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
      EXPECT_DOUBLE_EQ(a.events()[i].at, b.events()[i].at);
      EXPECT_EQ(a.events()[i].host, b.events()[i].host);
    }
    // Every fault recovers inside 60% of the run, leaving a convergence tail, and
    // protected hosts are never the victim of anything.
    int downs = 0;
    int rejoins = 0;
    int partitions = 0;
    int heals = 0;
    for (const FaultEvent& ev : a.events()) {
      EXPECT_LE(ev.at, 10000.0 * 0.6 + 1.0) << FaultKindName(ev.kind);
      switch (ev.kind) {
        case FaultKind::kCrash:
        case FaultKind::kGracefulLeave:
          ++downs;
          EXPECT_NE(ev.host, 0u);
          EXPECT_NE(ev.host, 1u);
          break;
        case FaultKind::kRejoin:
          ++rejoins;
          break;
        case FaultKind::kPartition:
          ++partitions;
          break;
        case FaultKind::kHeal:
          ++heals;
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(downs, rejoins);
    EXPECT_EQ(partitions, heals);
  }
}

// ---------- Scenario world ----------

// A full-stack world with every recovery mechanism on: keep-alive failure detection,
// suspect probing (ring re-merge), tree repair with JOIN retries, and root demotion.
struct ScenarioWorld {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<PastryNetwork> pastry;
  std::unique_ptr<Forest> forest;
  NodeId topic;
  std::vector<size_t> members;

  ScenarioWorld(size_t n, uint64_t seed, double aggregation_timeout_ms = 0.0) {
    NetworkConfig net_config;
    net_config.model_bandwidth = false;
    net = std::make_unique<Network>(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, seed),
                                    net_config);
    PastryConfig pastry_config;
    pastry_config.enable_keepalive = true;
    pastry_config.keepalive_interval_ms = 200.0;
    pastry_config.keepalive_timeout_ms = 700.0;
    pastry = std::make_unique<PastryNetwork>(net.get(), pastry_config);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      pastry->AddRandomNode(rng);
    }
    pastry->BuildOracle(rng);
    for (size_t i = 0; i < pastry->size(); ++i) {
      pastry->node(i).StartKeepAlive();
    }
    ScribeConfig scribe_config;
    scribe_config.enable_tree_repair = true;
    scribe_config.parent_heartbeat_ms = 100.0;
    scribe_config.parent_timeout_ms = 350.0;
    scribe_config.join_retry_ms = 400.0;
    scribe_config.aggregation_timeout_ms = aggregation_timeout_ms;
    forest = std::make_unique<Forest>(pastry.get(), scribe_config);
    topic = forest->CreateTopic("golden-" + std::to_string(seed));
    for (size_t i = 0; i < n; ++i) {
      members.push_back(i);
    }
    forest->SubscribeAll(topic, members, /*settle_ms=*/1500.0);
    forest->StartMaintenance();
  }

  HostId HostOf(size_t i) const { return pastry->node(i).host(); }

  // Publishes one round from the current root and counts per-host deliveries.
  std::unordered_map<HostId, int> BroadcastAndCollect(uint64_t round, double settle_ms) {
    auto deliveries = std::make_shared<std::unordered_map<HostId, int>>();
    for (size_t i = 0; i < forest->size(); ++i) {
      const HostId host = forest->scribe(i).host();
      forest->scribe(i).SetOnBroadcast(
          [deliveries, host](const NodeId&, uint64_t, const ScribeBroadcast&) {
            ++(*deliveries)[host];
          });
    }
    const size_t root = forest->RootOf(topic);
    EXPECT_NE(root, SIZE_MAX);
    if (root != SIZE_MAX) {
      forest->scribe(root).Broadcast(topic, round, nullptr, 64);
    }
    sim.RunFor(settle_ms);
    return *deliveries;
  }
};

// ---------- Golden scenario 1: partition then heal ----------

struct GoldenOutcome {
  double recovery_ms = -1.0;
  std::vector<InvariantViolation> violations;
  uint64_t checks_run = 0;
  uint64_t partition_drops = 0;
  bool post_heal_publish_reached_all = false;
  std::string trace_json;
  std::string metrics_json;
};

GoldenOutcome RunGoldenPartitionHeal(uint64_t seed) {
  GlobalTracer().Clear();
  GlobalTracer().SetEnabled(true);
  GlobalMetrics().ResetValues();
  GoldenOutcome out;
  {
    ScenarioWorld world(48, seed);
    FaultInjector injector(world.pastry.get(), world.forest.get(), seed + 7);
    InvariantCheckerConfig checker_config;
    checker_config.interval_ms = 500.0;
    checker_config.convergence_grace_ms = 9000.0;
    InvariantChecker checker(world.pastry.get(), world.forest.get(), checker_config);
    checker.WatchTopic(world.topic);
    checker.SetFaultInjector(&injector);
    checker.Start();

    // Cut the hosts into two halves for 3 virtual seconds. The side without the
    // rendezvous node re-roots (split brain); healing must merge the ring and demote
    // the minority root.
    std::vector<HostId> group_a;
    std::vector<HostId> group_b;
    for (size_t i = 0; i < world.pastry->size(); ++i) {
      (i < world.pastry->size() / 2 ? group_a : group_b).push_back(world.HostOf(i));
    }
    FaultScript script;
    script.PartitionAt(1000.0, group_a, group_b).HealAt(4000.0);
    injector.Schedule(script);

    world.sim.RunFor(4000.0);  // Run through the partition up to the heal.
    out.recovery_ms = MeasureRecovery(world.forest.get(), world.topic);
    world.sim.RunFor(12000.0);  // Convergence tail (ring re-merge via suspect probes).
    checker.CheckConverged();

    const auto deliveries = world.BroadcastAndCollect(2000000000ull, 2000.0);
    out.post_heal_publish_reached_all = true;
    for (size_t member : world.members) {
      const auto it = deliveries.find(world.HostOf(member));
      if (it == deliveries.end() || it->second != 1) {
        out.post_heal_publish_reached_all = false;
      }
    }
    checker.Stop();
    out.violations = checker.violations();
    out.checks_run = checker.checks_run();
    out.partition_drops = injector.stats().partition_drops;
  }
  out.trace_json = TraceToChromeJson(GlobalTracer());
  out.metrics_json = MetricsToJson(GlobalMetrics());
  GlobalTracer().SetEnabled(false);
  GlobalTracer().Clear();
  GlobalMetrics().ResetValues();
  return out;
}

TEST(FaultsimGoldenTest, PartitionThenHealRecoversWithZeroViolations) {
  const GoldenOutcome out = RunGoldenPartitionHeal(4100);
  EXPECT_GT(out.partition_drops, 0u) << "partition never cut a message";
  EXPECT_GT(out.checks_run, 10u) << "checker barely ran";
  ASSERT_GE(out.recovery_ms, 0.0) << "tree never recovered after the heal";
  EXPECT_LE(out.recovery_ms, 8000.0) << "post-heal recovery unexpectedly slow";
  EXPECT_TRUE(out.post_heal_publish_reached_all)
      << "a post-heal publish missed at least one subscriber";
  EXPECT_TRUE(out.violations.empty())
      << out.violations.size() << " violations, first: " << out.violations[0].invariant
      << " (" << out.violations[0].detail << ")";
}

TEST(FaultsimGoldenTest, PartitionHealScenarioReplaysBitIdentically) {
  const GoldenOutcome a = RunGoldenPartitionHeal(4100);
  const GoldenOutcome b = RunGoldenPartitionHeal(4100);
  EXPECT_EQ(a.recovery_ms, b.recovery_ms);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.partition_drops, b.partition_drops);
  EXPECT_EQ(a.trace_json, b.trace_json) << "trace export differs between replays";
  EXPECT_EQ(a.metrics_json, b.metrics_json) << "metrics export differs between replays";
}

// ---------- Golden scenario 2: flapping parent link ----------

TEST(FaultsimGoldenTest, FlappingParentLinkRepairsAndStaysConsistent) {
  ScenarioWorld world(40, 4200);
  FaultInjector injector(world.pastry.get(), world.forest.get(), 4207);
  InvariantCheckerConfig checker_config;
  checker_config.convergence_grace_ms = 6000.0;
  InvariantChecker checker(world.pastry.get(), world.forest.get(), checker_config);
  checker.WatchTopic(world.topic);
  checker.SetFaultInjector(&injector);
  checker.Start();

  // Flap the link between a subscriber and its tree parent: bursts longer than the
  // parent timeout, so each burst looks like a dead parent and triggers repair, then
  // the link comes back before the next burst.
  const size_t root = world.forest->RootOf(world.topic);
  ASSERT_NE(root, SIZE_MAX);
  size_t child = SIZE_MAX;
  for (size_t member : world.members) {
    if (member != root &&
        world.forest->scribe(member).ParentOf(world.topic) != kInvalidHost) {
      child = member;
      break;
    }
  }
  ASSERT_NE(child, SIZE_MAX);
  const HostId child_host = world.forest->scribe(child).host();
  const HostId parent_host = world.forest->scribe(child).ParentOf(world.topic);

  FaultScript script;
  script.FlapLinkAt(500.0, child_host, parent_host, /*burst_ms=*/450.0, /*gap_ms=*/250.0,
                    /*bursts=*/6);
  injector.Schedule(script);
  // Last flap ends at 500 + 6*700 - 250 = 4450ms; give repair + grace room after it.
  world.sim.RunFor(16000.0);
  checker.CheckConverged();
  checker.Stop();

  EXPECT_GT(injector.stats().perturb_drops, 0u) << "flap windows never dropped anything";
  EXPECT_TRUE(world.forest->IsFullyConnected(world.topic));
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().size()
      << " violations, first: " << checker.violations()[0].invariant << " ("
      << checker.violations()[0].detail << ")";
  const auto deliveries = world.BroadcastAndCollect(2000000000ull, 2000.0);
  for (size_t member : world.members) {
    EXPECT_EQ(deliveries.at(world.HostOf(member)), 1) << "member " << member;
  }
}

// ---------- Golden scenario 3: rendezvous-root crash mid-round ----------

TEST(FaultsimGoldenTest, RendezvousRootCrashMidRoundFailsOverAndCompletes) {
  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 15.0, 4300), NetworkConfig{});
  PastryConfig pastry_config;
  pastry_config.enable_keepalive = true;
  pastry_config.keepalive_interval_ms = 500.0;
  pastry_config.keepalive_timeout_ms = 1600.0;
  PastryNetwork pastry(&net, pastry_config);
  Rng rng(4301);
  for (int i = 0; i < 60; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  for (size_t i = 0; i < pastry.size(); ++i) {
    pastry.node(i).StartKeepAlive();
  }
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 100.0;
  scribe_config.parent_timeout_ms = 350.0;
  scribe_config.aggregation_timeout_ms = 600.0;
  scribe_config.join_retry_ms = 400.0;
  Forest forest(&pastry, scribe_config);
  forest.StartMaintenance();
  TotoroEngine engine(&forest, ComputeModel{}, 4302);
  TotoroEngine::FailoverConfig failover;
  failover.watchdog_interval_ms = 300.0;
  failover.stall_timeout_ms = 2500.0;
  engine.EnableFailover(failover);
  engine.SetSubscribeSettleMs(1000.0);
  // Straggler deadline: a round missing contributions closes on partial aggregate
  // instead of waiting for the watchdog every time.
  engine.SetRoundDeadline(2500.0);

  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.seed = 4303;
  SyntheticTask task(spec);
  Rng data_rng(4304);
  FlAppConfig config;
  config.name = "root-crash";
  config.model_factory = [](uint64_t s) { return MakeSoftmaxRegression("sr", 16, 4, s); };
  config.train.learning_rate = 0.1f;
  config.target_accuracy = 2.0;
  config.max_rounds = 8;
  std::vector<size_t> workers;
  std::vector<Dataset> shards;
  for (size_t i = 0; i < 15; ++i) {
    workers.push_back(i);
    shards.push_back(task.Generate(80, data_rng));
  }
  const NodeId topic =
      engine.LaunchApp(config, workers, std::move(shards), task.Generate(200, data_rng));

  FaultInjector injector(&pastry, &forest, 4305);
  InvariantCheckerConfig checker_config;
  checker_config.convergence_grace_ms = 6000.0;
  InvariantChecker checker(&pastry, &forest, checker_config);
  checker.WatchTopic(topic);
  checker.SetFaultInjector(&injector);
  checker.Start();

  engine.StartAll();
  sim.RunFor(1200.0);  // Let a round get underway.
  const size_t old_root = forest.RootOf(topic);
  ASSERT_NE(old_root, SIZE_MAX);
  FaultScript script;
  script.CrashAt(100.0, forest.scribe(old_root).host());
  injector.Schedule(script);

  ASSERT_TRUE(engine.RunToCompletion(/*max_virtual_ms=*/120000.0))
      << "training wedged after the root crash";
  // Let repair finish re-rooting before the convergence check.
  sim.RunFor(8000.0);
  checker.CheckConverged();
  checker.Stop();

  const size_t new_root = forest.RootOf(topic);
  ASSERT_NE(new_root, SIZE_MAX);
  EXPECT_NE(new_root, old_root);
  const auto& result = engine.result(topic);
  EXPECT_GE(result.rounds_completed, 8u);
  EXPECT_GT(result.final_accuracy, 0.4);
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().size()
      << " violations, first: " << checker.violations()[0].invariant << " ("
      << checker.violations()[0].detail << ")";
}

// ---------- Incremental subscriber counts ----------

// A full rescan, as the checker used to do on every root aggregate.
uint64_t RescanSubscribers(const Forest& forest, const NodeId& topic) {
  return forest.ComputeStats(topic).num_subscribers;
}

size_t CountViolations(const InvariantChecker& checker, const std::string& invariant) {
  size_t found = 0;
  for (const InvariantViolation& v : checker.violations()) {
    found += v.invariant == invariant ? 1 : 0;
  }
  return found;
}

TEST(InvariantCheckerTest, IncrementalSubscriberCountMatchesRescanUnderChurn) {
  ScenarioWorld world(48, 4600, /*aggregation_timeout_ms=*/300.0);
  Forest& forest = *world.forest;
  const NodeId topic = world.topic;
  FaultInjector injector(world.pastry.get(), world.forest.get(), 4601);
  InvariantChecker checker(world.pastry.get(), world.forest.get());
  checker.WatchTopic(topic);
  checker.SetFaultInjector(&injector);
  checker.Start();
  ASSERT_EQ(checker.SubscriberCount(topic), RescanSubscribers(forest, topic));

  // Diurnal crash/rejoin waves, sparing the root that publishes.
  const size_t root = forest.RootOf(topic);
  ASSERT_NE(root, SIZE_MAX);
  DiurnalChurnOptions churn;
  churn.period_ms = 12000.0;
  churn.peak_churn_prob = 0.05;
  churn.protected_hosts = {world.HostOf(root)};
  Rng churn_rng(4602);
  const FaultScript script = GenerateDiurnalChurnScript(churn_rng, 48, 12000.0, churn);
  ASSERT_FALSE(script.empty());
  injector.Schedule(script);

  // Explicit membership changes on top, timed from the end of set-up: a block leaves,
  // half of it comes back, and a few nodes leave twice (the second Unsubscribe is a
  // no-op).
  for (size_t i = 10; i < 20; ++i) {
    world.sim.Schedule(1500.0 + 50.0 * static_cast<double>(i),
                       [&forest, topic, i] { forest.scribe(i).Unsubscribe(topic); });
  }
  for (size_t i = 10; i < 15; ++i) {
    world.sim.Schedule(5000.0 + 70.0 * static_cast<double>(i),
                       [&forest, topic, i] { forest.scribe(i).Subscribe(topic); });
  }
  for (size_t i = 30; i < 34; ++i) {
    for (double at : {7000.0, 7200.0}) {
      world.sim.Schedule(at, [&forest, topic, i] { forest.scribe(i).Unsubscribe(topic); });
    }
  }

  // One round per second; every live subscriber answers with one contribution, except
  // that in the last round the first one to hear the broadcast forges a huge count.
  constexpr uint64_t kRounds = 12;
  bool forged = false;
  for (size_t i = 0; i < forest.size(); ++i) {
    forest.scribe(i).SetOnBroadcast(
        [&forest, &forged, topic, i](const NodeId&, uint64_t round, const ScribeBroadcast&) {
          ScribeNode& scribe = forest.scribe(i);
          if (!scribe.IsSubscriber(topic)) {
            return;
          }
          AggregationPiece piece;
          if (round == kRounds && !forged) {
            forged = true;
            piece.count = 10000;
          }
          scribe.SubmitUpdate(topic, round, std::move(piece), 64);
        });
  }
  uint64_t aggregates = 0;
  size_t honest_over_counts = SIZE_MAX;
  for (size_t i = 0; i < forest.size(); ++i) {
    forest.scribe(i).SetOnRootAggregate(
        [&](const NodeId& t, uint64_t round, const AggregationPiece&) {
          ++aggregates;
          EXPECT_EQ(checker.SubscriberCount(t), RescanSubscribers(forest, t))
              << "round " << round;
          if (round == kRounds - 1) {
            honest_over_counts = CountViolations(checker, "aggregation.no_double_count");
          }
        });
  }
  for (uint64_t round = 1; round <= kRounds; ++round) {
    world.sim.Schedule(1000.0 * static_cast<double>(round), [&forest, topic, round] {
      const size_t r = forest.RootOf(topic);
      if (r != SIZE_MAX) {
        forest.scribe(r).Broadcast(topic, round, nullptr, 64);
      }
    });
  }
  world.sim.RunFor(1000.0 * static_cast<double>(kRounds) + 3000.0);
  checker.Stop();

  EXPECT_GE(aggregates, kRounds - 2) << "too few rounds closed to exercise the audit";
  EXPECT_EQ(checker.SubscriberCount(topic), RescanSubscribers(forest, topic));
  EXPECT_GT(injector.stats().crashes, 0u);
  EXPECT_TRUE(forged);
  EXPECT_EQ(honest_over_counts, 0u) << "an honest round tripped the double-count audit";
  EXPECT_GE(CountViolations(checker, "aggregation.no_double_count"), 1u)
      << "the forged count went unnoticed";
}

// ---------- Injector mechanics ----------

TEST(FaultInjectorTest, PartitionCutsExactlyCrossGroupTraffic) {
  ScenarioWorld world(20, 4400);
  FaultInjector injector(world.pastry.get(), world.forest.get(), 4401);
  FaultEvent cut;
  cut.kind = FaultKind::kPartition;
  for (size_t i = 0; i < 20; ++i) {
    (i < 10 ? cut.group_a : cut.group_b).push_back(world.HostOf(i));
  }
  injector.ApplyNow(cut);
  EXPECT_TRUE(injector.PartitionActive());
  EXPECT_FALSE(injector.Reachable(world.HostOf(0), world.HostOf(15)));
  EXPECT_TRUE(injector.Reachable(world.HostOf(0), world.HostOf(5)));
  EXPECT_TRUE(injector.Reachable(world.HostOf(12), world.HostOf(15)));

  FaultEvent heal;
  heal.kind = FaultKind::kHeal;
  injector.ApplyNow(heal);
  EXPECT_FALSE(injector.PartitionActive());
  EXPECT_TRUE(injector.Reachable(world.HostOf(0), world.HostOf(15)));
  EXPECT_EQ(injector.stats().partitions, 1u);
  EXPECT_EQ(injector.stats().heals, 1u);
}

TEST(FaultInjectorTest, DuplicateRuleInjectsExtraDeliveries) {
  // A duplicate_prob=1 wildcard rule on broadcast traffic: every subscriber sees the
  // same round at least twice (tree links each duplicate once).
  ScenarioWorld world(16, 4500);
  FaultInjector injector(world.pastry.get(), world.forest.get(), 4501);
  FaultScript script;
  LinkPerturbation rule;
  rule.duplicate_prob = 1.0;
  script.PerturbLinksAt(0.0, 3000.0, rule);
  injector.Schedule(script);
  world.sim.RunFor(10.0);  // Activate the rule.
  const auto deliveries = world.BroadcastAndCollect(2000000000ull, 2500.0);
  EXPECT_GT(injector.stats().duplicates, 0u);
  size_t saw_duplicate = 0;
  for (size_t member : world.members) {
    const auto it = deliveries.find(world.HostOf(member));
    if (it != deliveries.end() && it->second >= 2) {
      ++saw_duplicate;
    }
  }
  EXPECT_GT(saw_duplicate, 0u) << "no subscriber ever saw a duplicated broadcast";
}

}  // namespace
}  // namespace totoro
