// The three workloads. Each drives the program only through its public classes
// (MultiRing, PastryNetwork, Forest/ScribeNode, TotoroEngine, FaultInjector,
// InvariantChecker, Simulator), fires its ops on a seeded virtual-time schedule, and
// checks the outcome against ground truth computed here. README.md says why each
// workload exists and which layers it loads.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/tta_common.h"
#include "perfbench/perfbench.h"
#include "src/core/engine.h"
#include "src/core/eua_topology.h"
#include "src/faultsim/fault_injector.h"
#include "src/faultsim/invariant_checker.h"
#include "src/faultsim/recovery.h"
#include "src/obs/metrics_registry.h"
#include "src/pubsub/forest.h"
#include "src/rings/multi_ring.h"
#include "src/rings/zones.h"
#include "src/sim/latency_model.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

using namespace totoro;

double CounterValue(const char* name) {
  const Counter* c = GlobalMetrics().FindCounter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

double HistQuantile(const char* name, double q) {
  const Histogram* h = GlobalMetrics().FindHistogram(name);
  return h == nullptr ? 0.0 : h->ApproxQuantile(q);
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// Counters every workload reports for the pubsub layer (zero where the layer is idle).
void ReadPubsubCounters(Result& r) {
  auto& v = r.virtual_layer;
  v["pubsub.join.retries"] = CounterValue("pubsub.join.retries");
  v["pubsub.root.demotions"] = CounterValue("pubsub.root.demotions");
  v["pubsub.batch.bytes_saved"] = CounterValue("pubsub.batch.bytes_saved");
  v["pubsub.broadcast.latency_p50_ms"] = HistQuantile("pubsub.broadcast.latency_ms", 0.5);
  v["pubsub.broadcast.latency_p99_ms"] = HistQuantile("pubsub.broadcast.latency_ms", 0.99);
  v["pubsub.aggregate.latency_p50_ms"] = HistQuantile("pubsub.aggregate.latency_ms", 0.5);
  v["pubsub.aggregate.latency_p99_ms"] = HistQuantile("pubsub.aggregate.latency_ms", 0.99);
}

double TreeDepthMean(const Forest& forest, const std::vector<NodeId>& topics) {
  std::vector<double> depths;
  for (const NodeId& topic : topics) {
    depths.push_back(static_cast<double>(forest.ComputeStats(topic).depth));
  }
  return Mean(depths);
}

std::vector<size_t> PickDistinct(size_t population, size_t count, Rng& rng) {
  std::vector<size_t> all(population);
  std::iota(all.begin(), all.end(), size_t{0});
  rng.Shuffle(all);
  all.resize(count);
  return all;
}

// ---------------------------------------------------------------------------------
// overlay_lookup: full-scale EUA multi-ring, open-loop lookups.
// ---------------------------------------------------------------------------------

constexpr size_t kEuaNodes = 95271;
// The deployment is fixed, as in the paper: one EUA map, one set of node ids (Pastry
// derives them from node keys). --seed draws the lookups. A quarter of the random key
// space has no zone (12 regions, 16 prefixes) and lands on the edge nodes of the zones
// beside it, one of them a 3-station zone in Singapore; with positions and ids redrawn
// per seed, where those few stations sit moved the p99 by a quarter between seeds.
constexpr uint64_t kDeploymentSeed = 20240807;
constexpr int kZoneBits = 4;
constexpr size_t kLookups = 1500000;
constexpr size_t kLookupGroup = 256;
constexpr double kLookupGapMs = 5.0;
constexpr int kLookupType = 1200;

// Ground truth for lookups: the numerically closest id on the ring, ties to the lower
// id (the rule PastryNetwork::ClosestLiveNode states), found by binary search over the
// sorted ids. Every node is alive in this workload.
class SortedIdOracle {
 public:
  explicit SortedIdOracle(const PastryNetwork& pastry) {
    ids_.reserve(pastry.size());
    for (size_t i = 0; i < pastry.size(); ++i) {
      ids_.emplace_back(pastry.node(i).id(), static_cast<uint32_t>(i));
    }
    std::sort(ids_.begin(), ids_.end());
  }

  uint32_t Closest(const NodeId& key) const {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), std::make_pair(key, uint32_t{0}));
    const auto& succ = it == ids_.end() ? ids_.front() : *it;
    const auto& pred = it == ids_.begin() ? ids_.back() : *(it - 1);
    const U128 ds = U128::RingDistance(succ.first, key);
    const U128 dp = U128::RingDistance(pred.first, key);
    if (ds < dp || (ds == dp && succ.first < pred.first)) {
      return succ.second;
    }
    return pred.second;
  }

 private:
  std::vector<std::pair<NodeId, uint32_t>> ids_;
};

struct LookupLoad {
  Simulator* sim = nullptr;
  MultiRing* rings = nullptr;
  Rng rng{0};
  double start_ms = 0.0;
  size_t issued = 0;
  std::vector<NodeId> key;
  std::vector<double> deliver_ms;
  std::vector<uint32_t> delivered_at;
  std::vector<uint8_t> deliveries;
  std::vector<uint8_t> hops;

  // Lookup i is due at its group's slot; groups fire exactly on schedule.
  double IssueMs(size_t i) const {
    return start_ms + static_cast<double>(i / kLookupGroup) * kLookupGapMs;
  }

  // Fires one group of lookups and schedules the next: even-numbered lookups target a
  // zone-prefixed key in the source's own zone, odd ones a uniformly random key.
  void LaunchGroup() {
    const size_t end = std::min(issued + kLookupGroup, kLookups);
    PastryNetwork& pastry = rings->pastry();
    for (; issued < end; ++issued) {
      const uint32_t src = static_cast<uint32_t>(rng.NextBelow(pastry.size()));
      key[issued] = issued % 2 == 0
                        ? RandomZonedId(rings->zone_of_node(src), kZoneBits, rng)
                        : RandomNodeId(rng);
      Message m;
      m.type = kLookupType;
      m.SetPayload<uint32_t>(static_cast<uint32_t>(issued));
      pastry.node(src).Route(key[issued], std::move(m));
    }
    if (issued < kLookups) {
      sim->Schedule(kLookupGapMs, [this] { LaunchGroup(); });
    }
  }
};

}  // namespace

void RunOverlayLookup(uint64_t seed, Result& r) {
  const int setup = r.spans.Begin("setup");
  std::vector<EuaNode> eua;
  {
    ScopedSpan span(r.spans, "topology");
    Rng topo_rng(kDeploymentSeed);
    eua = GenerateEuaTopology(kEuaNodes, topo_rng);
  }
  std::vector<GeoPoint> positions;
  positions.reserve(eua.size());
  for (const EuaNode& n : eua) {
    positions.push_back(n.location);
  }
  std::vector<GeoPoint> anchors;
  for (const EuaRegion& region : EuaRegions()) {
    anchors.push_back(region.anchor);
  }
  BinningConfig binning_config;
  // Nearest anchor only, no RTT levels: exactly one zone per EUA region.
  binning_config.use_full_ordering = false;
  binning_config.rtt_level_thresholds_ms.clear();
  DistributedBinning binning(anchors, binning_config);

  Simulator sim;
  NetworkConfig net_config;
  net_config.model_bandwidth = false;
  Network net(&sim, std::make_unique<GeoLatency>(std::move(positions)), net_config);
  MultiRingConfig ring_config;
  ring_config.zone_bits = kZoneBits;
  MultiRing rings(&net, ring_config);
  rings.pastry().Reserve(eua.size());
  Rng id_rng(kDeploymentSeed ^ 0x1D5EEDULL);
  {
    ScopedSpan span(r.spans, "bin");
    for (const EuaNode& n : eua) {
      rings.AddNode(n.location, binning, id_rng);
    }
  }
  {
    const double rss_before = CurrentRssMb();
    ScopedSpan span(r.spans, "build");
    rings.Build(id_rng);
    r.host_layer["dht.build_rss_mb"] = CurrentRssMb() - rss_before;
  }

  LookupLoad load;
  load.sim = &sim;
  load.rings = &rings;
  load.rng = Rng(seed ^ 0x100CA11ULL);
  load.start_ms = sim.Now();
  load.key.resize(kLookups);
  load.deliver_ms.resize(kLookups, 0.0);
  load.delivered_at.resize(kLookups, UINT32_MAX);
  load.deliveries.resize(kLookups, 0);
  load.hops.resize(kLookups, 0);
  PastryNetwork& pastry = rings.pastry();
  for (size_t i = 0; i < pastry.size(); ++i) {
    pastry.node(i).SetDeliverHandler(
        kLookupType, [&load, &sim, i](const NodeId&, const Message& inner, int hops) {
          const uint32_t id = inner.As<uint32_t>();
          load.deliver_ms[id] = sim.Now();
          load.delivered_at[id] = static_cast<uint32_t>(i);
          load.hops[id] = static_cast<uint8_t>(std::min(hops, 255));
          if (load.deliveries[id] < 255) {
            ++load.deliveries[id];
          }
        });
  }
  sim.ScheduleAt(load.start_ms, [&load] { load.LaunchGroup(); });
  r.spans.End(setup);

  BeginRunPhase(r, net);
  {
    ScopedSpan span(r.spans, "run");
    sim.Run();
  }
  CaptureRunPhase(r, net);

  // Correctness: each lookup delivered exactly once, at the live node closest to its key.
  // Zone-local lookups (even) fill the front of r.latencies_ms and random-key ones (odd)
  // the back, so each class's median is taken in place without another copy.
  const SortedIdOracle oracle(pastry);
  size_t class_end[2] = {0, 0};
  double class_hops[2] = {0.0, 0.0};
  uint64_t misdelivered = 0;
  r.attempted = kLookups;
  r.latencies_ms.reserve(kLookups);
  for (size_t cls = 0; cls < 2; ++cls) {
    for (size_t i = cls; i < kLookups; i += 2) {
      if (load.deliveries[i] == 0) {
        ++r.failed;
        r.Fail("lookup " + std::to_string(i) + " was never delivered");
        continue;
      }
      if (load.deliveries[i] > 1) {
        r.Fail("lookup " + std::to_string(i) + " was delivered more than once");
      }
      if (load.delivered_at[i] != oracle.Closest(load.key[i])) {
        ++misdelivered;
        ++r.failed;
        r.Fail("lookup " + std::to_string(i) + " delivered away from the closest node");
        continue;
      }
      r.latencies_ms.push_back(load.deliver_ms[i] - load.IssueMs(i));
      class_hops[cls] += load.hops[i];
    }
    class_end[cls] = r.latencies_ms.size();
  }
  const double n_local = static_cast<double>(class_end[0]);
  const double n_cross = static_cast<double>(class_end[1] - class_end[0]);
  auto median_of = [&r](size_t begin, size_t end) {
    if (begin == end) {
      return 0.0;
    }
    auto first = r.latencies_ms.begin() + static_cast<std::ptrdiff_t>(begin);
    auto nth = first + static_cast<std::ptrdiff_t>((end - begin - 1) / 2);
    std::nth_element(first, nth, r.latencies_ms.begin() + static_cast<std::ptrdiff_t>(end));
    return *nth;
  };

  auto& v = r.virtual_layer;
  const double total_hops = class_hops[0] + class_hops[1];
  v["dht.hops_per_lookup"] = n_local + n_cross > 0.0 ? total_hops / (n_local + n_cross) : 0.0;
  v["dht.lookups_misdelivered"] = static_cast<double>(misdelivered);
  v["rings.local.hops"] = n_local > 0.0 ? class_hops[0] / n_local : 0.0;
  v["rings.cross.hops"] = n_cross > 0.0 ? class_hops[1] / n_cross : 0.0;
  v["rings.local.latency_p50_ms"] = median_of(0, class_end[0]);
  v["rings.cross.latency_p50_ms"] = median_of(class_end[0], class_end[1]);
  v["rings.zones"] = static_cast<double>(rings.ZonePopulation().size());
  ReadPubsubCounters(r);
  auto& h = r.host_layer;
  h["rings.bin_s"] = r.spans.Self("bin");
  h["dht.ns_per_hop"] = total_hops > 0.0 ? PhaseWall("sim_run") * 1e9 / total_hops : 0.0;
}

// ---------------------------------------------------------------------------------
// fl_concurrent_apps: 64 FL apps on one 1000-node forest, run to completion.
// ---------------------------------------------------------------------------------

namespace {
constexpr size_t kFlNodes = 1000;
constexpr int kFlApps = 64;
constexpr size_t kFlWorkers = 12;
constexpr size_t kFlShardExamples = 150;
constexpr size_t kFlTestExamples = 400;
}  // namespace

void RunFlConcurrentApps(uint64_t seed, Result& r) {
  const int setup = r.spans.Begin("setup");
  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(2.0, 40.0, seed ^ 0xFEED),
              NetworkConfig{});
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(seed);
  pastry.Reserve(kFlNodes);
  for (size_t i = 0; i < kFlNodes; ++i) {
    pastry.AddRandomNode(rng);
  }
  {
    ScopedSpan span(r.spans, "build");
    pastry.BuildOracle(rng);
  }
  Forest forest(&pastry, ScribeConfig{});
  TotoroEngine engine(&forest, ComputeModel{}, seed + 1);
  const bench::TaskProfile profiles[2] = {bench::SpeechProfile(), bench::FemnistProfile()};
  const SyntheticTask tasks[2] = {SyntheticTask(profiles[0].spec),
                                  SyntheticTask(profiles[1].spec)};
  Rng data_rng(seed + 2);
  Rng pick(seed + 3);
  std::vector<NodeId> topics;
  {
    ScopedSpan span(r.spans, "launch");
    for (int a = 0; a < kFlApps; ++a) {
      const int p = a % 2;
      std::vector<size_t> workers = PickDistinct(kFlNodes, kFlWorkers, pick);
      std::vector<Dataset> shards;
      for (size_t w = 0; w < workers.size(); ++w) {
        shards.push_back(tasks[p].Generate(kFlShardExamples, data_rng));
      }
      topics.push_back(engine.LaunchApp(
          bench::MakeAppConfig(profiles[p], profiles[p].name + "-" + std::to_string(a)),
          workers, std::move(shards), tasks[p].Generate(kFlTestExamples, data_rng)));
    }
  }
  r.spans.End(setup);

  // Folded contributions per root aggregate, against the workers of the app.
  uint64_t folded = 0;
  for (size_t i = 0; i < forest.size(); ++i) {
    forest.scribe(i).SetAggregateAudit(
        [&folded, &r](const NodeId&, uint64_t, const AggregationPiece& total) {
          folded += total.count;
          if (total.count > kFlWorkers) {
            r.Fail("a root aggregate folded more contributions than the app has workers");
          }
        });
  }
  const double depth_mean = TreeDepthMean(forest, topics);
  const double tasks_before = CounterValue("engine.compute.train_tasks");

  BeginRunPhase(r, net);
  {
    ScopedSpan span(r.spans, "run");
    engine.StartAll();
    engine.RunToCompletion();
  }
  CaptureRunPhase(r, net);

  // One op is one round: its latency is the gap between consecutive evaluations (the
  // next round starts at the instant the previous one closes).
  double last_target_ms = 0.0;
  uint64_t rounds = 0;
  for (const NodeId& topic : topics) {
    const AppResult& result = engine.result(topic);
    double prev = 0.0;
    for (const AccuracyPoint& point : result.curve) {
      r.latencies_ms.push_back(point.time_ms - prev);
      prev = point.time_ms;
    }
    rounds += result.curve.size();
    r.attempted += result.curve.size();
    if (result.reached_target) {
      last_target_ms = std::max(last_target_ms, result.time_to_target_ms);
    } else {
      ++r.attempted;
      ++r.failed;
      r.Fail("app " + result.name + " did not reach its target accuracy");
    }
  }
  r.tta_virtual_s = last_target_ms / 1000.0;

  const double train_tasks = CounterValue("engine.compute.train_tasks") - tasks_before;
  auto& v = r.virtual_layer;
  v["engine.rounds"] = static_cast<double>(rounds);
  v["engine.round.deadline_expired"] = CounterValue("engine.round.deadline_expired");
  v["fl.train_tasks"] = train_tasks;
  v["pubsub.contrib_ratio"] = train_tasks > 0.0 ? static_cast<double>(folded) / train_tasks : 0.0;
  v["pubsub.tree_depth_mean"] = depth_mean;
  ReadPubsubCounters(r);
  auto& h = r.host_layer;
  h["engine.launch_s"] = r.spans.Self("launch");
  h["engine.run_s"] = r.spans.Self("run");
  const double compute_s = h["fl.compute_task_s"];
  // Every app trains batch_size * local_steps samples per task (MakeAppConfig).
  const TrainConfig train = bench::MakeAppConfig(profiles[0], "").train;
  const double samples = train_tasks * static_cast<double>(train.batch_size * train.local_steps);
  h["ml.train_samples_per_s"] = compute_s > 0.0 ? samples / compute_s : 0.0;
}

// ---------------------------------------------------------------------------------
// forest_churn: 100 topic trees on a 5000-node overlay under diurnal churn.
// ---------------------------------------------------------------------------------

namespace {
constexpr size_t kChurnNodes = 5000;
constexpr size_t kTopics = 100;
constexpr size_t kSubscribers = 100;
constexpr uint64_t kRounds = 3;
constexpr double kRoundMs = 1000.0;
constexpr double kDrainMs = 1500.0;
constexpr uint64_t kModelBytes = 16384;
constexpr uint64_t kUpdateBytes = 16384;

AggregationPiece WeightOnlyCombine(const std::vector<AggregationPiece>& pieces) {
  AggregationPiece out;
  out.weight = 0.0;
  out.count = 0;
  for (const AggregationPiece& p : pieces) {
    out.weight += p.weight;
    out.count += p.count;
  }
  return out;
}

struct TopicRound {
  double issue_ms = -1.0;
  double close_ms = -1.0;
};
}  // namespace

void RunForestChurn(uint64_t seed, Result& r) {
  const int setup = r.spans.Begin("setup");
  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(2.0, 40.0, seed ^ 0xFEED),
              NetworkConfig{});
  PastryConfig pastry_config;
  pastry_config.enable_keepalive = true;
  PastryNetwork pastry(&net, pastry_config);
  Rng rng(seed);
  pastry.Reserve(kChurnNodes);
  for (size_t i = 0; i < kChurnNodes; ++i) {
    pastry.AddRandomNode(rng);
  }
  {
    ScopedSpan span(r.spans, "build");
    pastry.BuildOracle(rng);
  }
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.join_retry_ms = 300.0;
  scribe_config.aggregation_timeout_ms = 250.0;
  scribe_config.batch.mode = WireBatchConfig::Mode::kCoalesce;
  Forest forest(&pastry, scribe_config);

  std::vector<NodeId> topics;
  std::map<NodeId, size_t> topic_index;
  for (size_t t = 0; t < kTopics; ++t) {
    topics.push_back(forest.CreateTopic("churn-topic-" + std::to_string(t)));
    topic_index[topics.back()] = t;
  }
  std::vector<std::vector<TopicRound>> ops(kTopics, std::vector<TopicRound>(kRounds + 1));
  uint64_t sent = 0;
  uint64_t folded = 0;
  const auto payload = std::make_shared<const int>(0);
  for (size_t i = 0; i < forest.size(); ++i) {
    ScribeNode& scribe = forest.scribe(i);
    scribe.SetCombineFn(WeightOnlyCombine);
    scribe.SetOnBroadcast([&scribe, &sent](const NodeId& topic, uint64_t round,
                                           const ScribeBroadcast&) {
      AggregationPiece piece;
      piece.weight = 1.0;
      piece.count = 1;
      ++sent;
      scribe.SubmitUpdate(topic, round, std::move(piece), kUpdateBytes);
    });
    scribe.SetOnRootAggregate([&](const NodeId& topic, uint64_t round,
                                  const AggregationPiece& total) {
      folded += total.count;
      if (total.count > kSubscribers) {
        r.Fail("a root aggregate folded more contributions than the topic has subscribers");
      }
      auto it = topic_index.find(topic);
      if (it == topic_index.end() || round == 0 || round > kRounds) {
        return;
      }
      TopicRound& op = ops[it->second][round];
      if (op.close_ms < 0.0) {
        op.close_ms = sim.Now();
      }
    });
  }
  {
    ScopedSpan span(r.spans, "subscribe");
    Rng pick(seed + 3);
    for (const NodeId& topic : topics) {
      forest.SubscribeAll(topic, PickDistinct(kChurnNodes, kSubscribers, pick));
    }
  }
  std::vector<size_t> roots;
  std::vector<HostId> root_hosts;
  for (const NodeId& topic : topics) {
    roots.push_back(forest.RootOf(topic));
    if (roots.back() == SIZE_MAX) {
      r.Fail("a topic has no root after subscription");
      return;
    }
    root_hosts.push_back(forest.scribe(roots.back()).host());
  }
  for (size_t i = 0; i < pastry.size(); ++i) {
    pastry.node(i).StartKeepAlive();
  }
  forest.StartMaintenance();

  // Churn: diurnal crash/rejoin waves over four contiguous host blocks, one simulated
  // day per run. Topic roots are the
  // masters that publish each round, so the churn spares them (master failover is the
  // engine's job, measured elsewhere); their trees are not spared.
  const double duration_ms = static_cast<double>(kRounds) * kRoundMs + kDrainMs;
  FaultInjector injector(&pastry, &forest, seed ^ 0xFA017ULL);
  DiurnalChurnOptions churn;
  churn.period_ms = duration_ms;
  churn.regions = 4;
  churn.base_churn_prob = 0.001;
  churn.peak_churn_prob = 0.01;
  churn.protected_hosts = root_hosts;
  Rng churn_rng(seed ^ 0xC4u);
  const FaultScript script = GenerateDiurnalChurnScript(churn_rng, kChurnNodes, duration_ms, churn);
  injector.Schedule(script);
  InvariantCheckerConfig checker_config;
  checker_config.interval_ms = 1000.0;
  InvariantChecker checker(&pastry, &forest, checker_config);
  for (const NodeId& topic : topics) {
    checker.WatchTopic(topic);
  }
  checker.SetFaultInjector(&injector);
  checker.Start();

  // Each topic publishes once per virtual second at a seeded offset inside the second.
  Rng offset_rng(seed + 5);
  for (size_t t = 0; t < kTopics; ++t) {
    const double offset = offset_rng.Uniform(0.0, 0.5 * kRoundMs);
    for (uint64_t round = 1; round <= kRounds; ++round) {
      sim.Schedule(static_cast<double>(round - 1) * kRoundMs + offset, [&, t, round] {
        size_t root = roots[t];
        if (!forest.scribe(root).IsRoot(topics[t]) || !forest.scribe(root).pastry().alive()) {
          root = forest.RootOf(topics[t]);
          roots[t] = root;
        }
        if (root == SIZE_MAX) {
          return;  // No live root: the op stays open and counts as failed.
        }
        ops[t][round].issue_ms = sim.Now();
        forest.scribe(root).Broadcast(topics[t], round, payload, kModelBytes);
      });
    }
  }
  r.spans.End(setup);
  const double depth_mean = TreeDepthMean(forest, topics);

  BeginRunPhase(r, net);
  {
    ScopedSpan span(r.spans, "run");
    sim.RunFor(duration_ms);
  }
  CaptureRunPhase(r, net);
  ReadPubsubCounters(r);
  checker.CheckNow();
  checker.Stop();

  for (size_t t = 0; t < kTopics; ++t) {
    for (uint64_t round = 1; round <= kRounds; ++round) {
      const TopicRound& op = ops[t][round];
      ++r.attempted;
      if (op.issue_ms >= 0.0 && op.close_ms >= op.issue_ms) {
        r.latencies_ms.push_back(op.close_ms - op.issue_ms);
      } else {
        ++r.failed;
      }
    }
  }
  const double violations = CounterValue("faultsim.invariant.violations");
  if (violations != 0.0) {
    r.Fail(std::to_string(checker.violations().size()) + " invariant violations, first: " +
           checker.violations().front().invariant + " " + checker.violations().front().detail);
  }
  if (injector.stats().crashes != injector.stats().rejoins) {
    r.Fail("a crashed host never rejoined");
  }

  auto& v = r.virtual_layer;
  v["pubsub.contrib_ratio"] =
      sent > 0 ? static_cast<double>(folded) / static_cast<double>(sent) : 0.0;
  v["pubsub.tree_depth_mean"] = depth_mean;
  v["faultsim.faults.applied"] = CounterValue("faultsim.faults.applied");
  v["faultsim.invariant.violations"] = violations;
  v["faultsim.msgs.partition_dropped"] = CounterValue("faultsim.msgs.partition_dropped");
  // After the last scripted fault: how long until a publish reaches every subscriber.
  v["faultsim.recovery.post_heal_ms"] = MeasureRecovery(&forest, topics.front());
  auto& h = r.host_layer;
  h["pubsub.subscribe_s"] = r.spans.Self("subscribe");
}

}  // namespace perfbench
