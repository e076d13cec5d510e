#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <tuple>

#include "src/dht/pastry_network.h"
#include "src/rings/zones.h"

namespace totoro {
namespace {

RouteEntry Entry(const std::string& hex, HostId host, double prox = 1.0) {
  return RouteEntry{U128::FromHex(hex), host, prox};
}

TEST(RoutingTableTest, PlacesEntryByPrefixRowAndDigitColumn) {
  RoutingTable rt(U128::FromHex("ab000000000000000000000000000000"), 4);
  EXPECT_TRUE(rt.Consider(Entry("cd000000000000000000000000000000", 1)));
  // Shares 0 digits; row 0, column 0xc.
  auto e = rt.Get(0, 0xc);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->host, 1u);
  // Shares 1 digit (a); row 1, column 0x1.
  EXPECT_TRUE(rt.Consider(Entry("a1000000000000000000000000000000", 2)));
  e = rt.Get(1, 0x1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->host, 2u);
}

TEST(RoutingTableTest, IgnoresSelf) {
  const U128 self = U128::FromHex("ab000000000000000000000000000000");
  RoutingTable rt(self, 4);
  EXPECT_FALSE(rt.Consider(RouteEntry{self, 9, 0.0}));
  EXPECT_EQ(rt.NumEntries(), 0u);
}

TEST(RoutingTableTest, PrefersCloserProximityOnConflict) {
  RoutingTable rt(U128::FromHex("ab000000000000000000000000000000"), 4);
  EXPECT_TRUE(rt.Consider(Entry("cd000000000000000000000000000000", 1, 10.0)));
  // Same slot (row 0, col c), farther: rejected.
  EXPECT_FALSE(rt.Consider(Entry("cc000000000000000000000000000000", 2, 20.0)));
  // Same slot, closer: replaces.
  EXPECT_TRUE(rt.Consider(Entry("ce000000000000000000000000000000", 3, 5.0)));
  EXPECT_EQ(rt.Get(0, 0xc)->host, 3u);
}

TEST(RoutingTableTest, NextHopMatchesKeyDigit) {
  RoutingTable rt(U128::FromHex("ab000000000000000000000000000000"), 4);
  rt.Consider(Entry("a1234500000000000000000000000000", 7));
  const auto hop = rt.NextHop(U128::FromHex("a1999999999999999999999999999999"));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->host, 7u);
}

TEST(RoutingTableTest, RemoveClearsSlot) {
  RoutingTable rt(U128::FromHex("ab000000000000000000000000000000"), 4);
  const auto e = Entry("cd000000000000000000000000000000", 1);
  rt.Consider(e);
  EXPECT_TRUE(rt.Remove(e.id));
  EXPECT_FALSE(rt.Get(0, 0xc).has_value());
  EXPECT_FALSE(rt.Remove(e.id));
}

TEST(LeafSetTest, KeepsNearestPerSide) {
  const U128 self(0, 100);
  LeafSet ls(self, 4);  // 2 per side.
  for (uint64_t v : {110ull, 120ull, 130ull, 90ull, 80ull, 70ull}) {
    ls.Consider(RouteEntry{U128(0, v), static_cast<HostId>(v), 0.0});
  }
  const auto cw = ls.clockwise();
  ASSERT_EQ(cw.size(), 2u);
  EXPECT_EQ(cw[0].id, U128(0, 110));
  EXPECT_EQ(cw[1].id, U128(0, 120));
  const auto ccw = ls.counter_clockwise();
  ASSERT_EQ(ccw.size(), 2u);
  EXPECT_EQ(ccw[0].id, U128(0, 90));
  EXPECT_EQ(ccw[1].id, U128(0, 80));
}

TEST(LeafSetTest, CoversWithinRangeOnly) {
  const U128 self(0, 100);
  LeafSet ls(self, 4);
  for (uint64_t v : {110ull, 120ull, 90ull, 80ull}) {
    ls.Consider(RouteEntry{U128(0, v), static_cast<HostId>(v), 0.0});
  }
  EXPECT_TRUE(ls.Full());
  EXPECT_TRUE(ls.Covers(U128(0, 100)));
  EXPECT_TRUE(ls.Covers(U128(0, 85)));
  EXPECT_TRUE(ls.Covers(U128(0, 120)));
  EXPECT_FALSE(ls.Covers(U128(0, 200)));
  EXPECT_FALSE(ls.Covers(U128(0, 10)));
}

TEST(LeafSetTest, NotFullCoversEverything) {
  LeafSet ls(U128(0, 100), 8);
  ls.Consider(RouteEntry{U128(0, 110), 1, 0.0});
  EXPECT_FALSE(ls.Full());
  EXPECT_TRUE(ls.Covers(U128(0xFFFF, 0)));
}

TEST(LeafSetTest, ClosestPicksNumericallyNearest) {
  const U128 self(0, 100);
  LeafSet ls(self, 4);
  ls.Consider(RouteEntry{U128(0, 110), 1, 0.0});
  ls.Consider(RouteEntry{U128(0, 90), 2, 0.0});
  EXPECT_EQ(ls.Closest(U128(0, 108), 0).host, 1u);
  EXPECT_EQ(ls.Closest(U128(0, 93), 0).host, 2u);
  EXPECT_EQ(ls.Closest(U128(0, 101), 0).host, 0u);  // Self.
}

TEST(LeafSetTest, ClosestSkipsDeadWithPredicate) {
  const U128 self(0, 100);
  LeafSet ls(self, 4);
  ls.Consider(RouteEntry{U128(0, 110), 1, 0.0});
  ls.Consider(RouteEntry{U128(0, 112), 2, 0.0});
  const AliveFn alive{[](const void*, const RouteEntry& e) { return e.host != 1; },
                      nullptr};
  EXPECT_EQ(ls.Closest(U128(0, 110), 0, alive).host, 2u);
}

TEST(LeafSetTest, ClosestMatchesBruteForceOnRandomRings) {
  // Closest takes a binary-search fast path when the two sides form disjoint arcs and
  // an exhaustive scan otherwise; both must implement min by (ring distance, id) over
  // {self} u members. Cross-check against a brute-force reference on random rings of
  // varying density (sparse rings exercise the overlapping-sides fallback).
  Rng rng(97531);
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId self = RandomNodeId(rng);
    LeafSet ls(self, 8);
    const int members = 1 + static_cast<int>(rng.NextBelow(12));
    for (int i = 0; i < members; ++i) {
      ls.Consider(RouteEntry{RandomNodeId(rng), static_cast<HostId>(i + 1), 0.0});
    }
    for (int probe = 0; probe < 20; ++probe) {
      const NodeId key = RandomNodeId(rng);
      RouteEntry expect{self, 0, 0.0};
      U128 best = U128::RingDistance(self, key);
      for (const auto& e : ls.All()) {
        const U128 d = U128::RingDistance(e.id, key);
        if (d < best || (d == best && e.id < expect.id)) {
          best = d;
          expect = e;
        }
      }
      const RouteEntry got = ls.Closest(key, 0);
      EXPECT_EQ(got.id, expect.id);
      EXPECT_EQ(got.host, expect.host);
    }
  }
}

TEST(NeighborhoodSetTest, KeepsClosestByProximity) {
  NeighborhoodSet ns(U128(0, 1), 2);
  ns.Consider(RouteEntry{U128(0, 2), 2, 30.0});
  ns.Consider(RouteEntry{U128(0, 3), 3, 10.0});
  ns.Consider(RouteEntry{U128(0, 4), 4, 20.0});
  ASSERT_EQ(ns.NumEntries(), 2u);
  EXPECT_EQ(ns.entries()[0].host, 3u);
  EXPECT_EQ(ns.entries()[1].host, 4u);
}

// ---------- Overlay-level tests ----------

struct Overlay {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<PastryNetwork> pastry;
  Rng rng{12345};

  explicit Overlay(size_t n, PastryConfig config = {}, bool oracle = true) {
    NetworkConfig net_config;
    net_config.model_bandwidth = false;
    net = std::make_unique<Network>(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 20.0, 7),
                                    net_config);
    pastry = std::make_unique<PastryNetwork>(net.get(), config);
    for (size_t i = 0; i < n; ++i) {
      pastry->AddRandomNode(rng);
    }
    if (oracle) {
      pastry->BuildOracle(rng);
    }
  }
};

TEST(PastryOverlayTest, OracleRoutingReachesNumericallyClosestNode) {
  Overlay overlay(200);
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId key = RandomNodeId(rng);
    PastryNode& origin = overlay.pastry->node(rng.NextBelow(overlay.pastry->size()));
    PastryNode* expected = overlay.pastry->ClosestLiveNode(key);

    NodeId delivered_at;
    int delivered_hops = -1;
    for (size_t i = 0; i < overlay.pastry->size(); ++i) {
      overlay.pastry->node(i).SetDeliverHandler(
          500, [&, i](const NodeId&, const Message&, int hops) {
            delivered_at = overlay.pastry->node(i).id();
            delivered_hops = hops;
          });
    }
    Message m;
    m.type = 500;
    origin.Route(key, std::move(m));
    overlay.sim.Run();
    ASSERT_GE(delivered_hops, 0) << "message was never delivered";
    EXPECT_EQ(delivered_at, expected->id());
  }
}

TEST(PastryOverlayTest, HopCountIsLogarithmic) {
  PastryConfig config;
  config.bits_per_digit = 4;
  Overlay overlay(1000, config);
  Rng rng(5);
  double total_hops = 0;
  int delivered = 0;
  for (size_t i = 0; i < overlay.pastry->size(); ++i) {
    overlay.pastry->node(i).SetDeliverHandler(500,
                                              [&](const NodeId&, const Message&, int hops) {
                                                total_hops += hops;
                                                ++delivered;
                                              });
  }
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    const NodeId key = RandomNodeId(rng);
    PastryNode& origin = overlay.pastry->node(rng.NextBelow(overlay.pastry->size()));
    Message m;
    m.type = 500;
    origin.Route(key, std::move(m));
  }
  overlay.sim.Run();
  EXPECT_EQ(delivered, trials);
  const double mean_hops = total_hops / delivered;
  // ceil(log_16 1000) = 3; allow slack but forbid linear scaling.
  EXPECT_LE(mean_hops, 5.0);
  EXPECT_GE(mean_hops, 1.0);
}

TEST(PastryOverlayTest, SelfRouteDeliversLocally) {
  Overlay overlay(50);
  PastryNode& node = overlay.pastry->node(0);
  bool delivered = false;
  node.SetDeliverHandler(500, [&](const NodeId&, const Message&, int hops) {
    delivered = true;
    EXPECT_EQ(hops, 0);
  });
  Message m;
  m.type = 500;
  node.Route(node.id(), std::move(m));
  overlay.sim.Run();
  EXPECT_TRUE(delivered);
}

TEST(PastryOverlayTest, RoutingSkipsDeadHosts) {
  Overlay overlay(100);
  Rng rng(17);
  // Kill 20% of nodes without repairing any tables.
  overlay.pastry->FailRandomNodes(20, rng);
  int delivered = 0;
  for (size_t i = 0; i < overlay.pastry->size(); ++i) {
    overlay.pastry->node(i).SetDeliverHandler(
        500, [&](const NodeId&, const Message&, int) { ++delivered; });
  }
  int sent = 0;
  for (int t = 0; t < 50; ++t) {
    PastryNode& origin = overlay.pastry->node(rng.NextBelow(overlay.pastry->size()));
    if (!origin.alive()) {
      continue;
    }
    Message m;
    m.type = 500;
    origin.Route(RandomNodeId(rng), std::move(m));
    ++sent;
  }
  overlay.sim.Run();
  EXPECT_EQ(delivered, sent);
}

TEST(PastryOverlayTest, ProtocolJoinConvergesToWorkingOverlay) {
  PastryConfig config;
  config.leaf_set_size = 8;
  Overlay overlay(40, config, /*oracle=*/false);
  overlay.pastry->JoinAll();
  // After joining, routing from anywhere must reach the numerically closest node.
  Rng rng(3);
  int correct = 0;
  const int trials = 30;
  NodeId delivered_at;
  for (size_t i = 0; i < overlay.pastry->size(); ++i) {
    overlay.pastry->node(i).SetDeliverHandler(
        500, [&, i](const NodeId&, const Message&, int) {
          delivered_at = overlay.pastry->node(i).id();
        });
  }
  for (int t = 0; t < trials; ++t) {
    const NodeId key = RandomNodeId(rng);
    PastryNode& origin = overlay.pastry->node(rng.NextBelow(overlay.pastry->size()));
    PastryNode* expected = overlay.pastry->ClosestLiveNode(key);
    delivered_at = NodeId(0, 0);
    Message m;
    m.type = 500;
    origin.Route(key, std::move(m));
    overlay.sim.Run();
    if (delivered_at == expected->id()) {
      ++correct;
    }
  }
  EXPECT_EQ(correct, trials);
}

TEST(PastryOverlayTest, JoinPopulatesLeafSets) {
  PastryConfig config;
  config.leaf_set_size = 8;
  Overlay overlay(30, config, /*oracle=*/false);
  overlay.pastry->JoinAll();
  for (size_t i = 0; i < overlay.pastry->size(); ++i) {
    EXPECT_TRUE(overlay.pastry->node(i).leaf_set().Full())
        << "node " << i << " has underfull leaf set";
  }
}

TEST(PastryOverlayTest, ReportDeadRemovesFromAllState) {
  Overlay overlay(100);
  PastryNode& node = overlay.pastry->node(0);
  // Find some node present in its leaf set.
  const auto leaves = node.leaf_set().All();
  ASSERT_FALSE(leaves.empty());
  const RouteEntry victim = leaves[0];
  bool failure_reported = false;
  node.SetFailureHandler([&](const NodeId& id, HostId host) {
    EXPECT_EQ(id, victim.id);
    EXPECT_EQ(host, victim.host);
    failure_reported = true;
  });
  node.ReportDead(victim.id, victim.host);
  EXPECT_FALSE(node.leaf_set().Contains(victim.id));
  EXPECT_TRUE(failure_reported);
}

TEST(PastryOverlayTest, KeepAliveDetectsFailedLeafNeighbor) {
  PastryConfig config;
  config.enable_keepalive = true;
  config.keepalive_interval_ms = 100.0;
  config.keepalive_timeout_ms = 350.0;
  Overlay overlay(30, config);
  for (size_t i = 0; i < overlay.pastry->size(); ++i) {
    overlay.pastry->node(i).StartKeepAlive();
  }
  overlay.sim.RunFor(500.0);  // Let acks establish.
  PastryNode& observer = overlay.pastry->node(0);
  const auto leaves = observer.leaf_set().All();
  ASSERT_FALSE(leaves.empty());
  const RouteEntry victim = leaves[0];
  overlay.net->SetHostUp(victim.host, false);
  overlay.sim.RunFor(2000.0);
  EXPECT_FALSE(observer.leaf_set().Contains(victim.id));
}

TEST(PastryNetworkTest, FailRandomNodesMarksThemDown) {
  Overlay overlay(50);
  Rng rng(1);
  const auto failed = overlay.pastry->FailRandomNodes(10, rng);
  EXPECT_EQ(failed.size(), 10u);
  size_t down = 0;
  for (size_t i = 0; i < overlay.pastry->size(); ++i) {
    if (!overlay.pastry->node(i).alive()) {
      ++down;
    }
  }
  EXPECT_EQ(down, 10u);
  overlay.pastry->Heal(*failed[0]);
  EXPECT_TRUE(failed[0]->alive());
}

TEST(PastryNetworkTest, ClosestLiveNodeGroundTruth) {
  Overlay overlay(20);
  // Closest to a node's own id is that node.
  for (size_t i = 0; i < overlay.pastry->size(); ++i) {
    EXPECT_EQ(overlay.pastry->ClosestLiveNode(overlay.pastry->node(i).id()),
              &overlay.pastry->node(i));
  }
}

TEST(PastryNodeTest, ComputeNextHopDeliversSelfForOwnId) {
  Overlay overlay(50);
  PastryNode& node = overlay.pastry->node(3);
  const RouteEntry hop = node.ComputeNextHop(node.id());
  EXPECT_EQ(hop.host, node.host());
}

// ---------- Oracle build equivalence ----------

// The per-(node, row, column) binary-search build that the sorted sweep replaced, kept
// here as the reference the sweep must reproduce draw for draw and entry for entry.
void ReferenceBuildOracle(PastryNetwork& pastry, Rng& rng) {
  const auto& nodes = pastry.nodes();
  const size_t n = nodes.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return nodes[a]->id() < nodes[b]->id(); });
  std::vector<NodeId> sorted_ids(n);
  for (size_t i = 0; i < n; ++i) {
    sorted_ids[i] = nodes[order[i]]->id();
  }
  const int b = pastry.config().bits_per_digit;
  const int digits = 128 / b;
  const int max_rows =
      std::min(digits, static_cast<int>(std::ceil(std::log2(static_cast<double>(n)) / b)) + 2);
  const size_t half_leaf = static_cast<size_t>(pastry.config().leaf_set_size) / 2;
  Network* net = pastry.network();
  for (size_t pos = 0; pos < n; ++pos) {
    PastryNode& node = *nodes[order[pos]];
    for (size_t k = 1; k <= half_leaf && k < n; ++k) {
      for (size_t neighbor_pos : {(pos + k) % n, (pos + n - k) % n}) {
        PastryNode& other = *nodes[order[neighbor_pos]];
        node.Learn(RouteEntry{other.id(), other.host(),
                              net->LatencyMs(node.host(), other.host())});
      }
    }
    const NodeId self = node.id();
    for (int r = 0; r < max_rows; ++r) {
      const int shift = 128 - (r + 1) * b;
      const U128 prefix = r == 0 ? U128(0, 0) : (self >> (128 - r * b)) << (128 - r * b);
      const uint32_t self_digit = self.Digit(r, b);
      for (uint32_t c = 0; c < (1u << b); ++c) {
        if (c == self_digit) {
          continue;
        }
        const U128 lo = prefix | (U128(0, c) << shift);
        const U128 hi = shift == 0 ? lo : lo | ((U128(0, 1) << shift) - U128(0, 1));
        auto first = std::lower_bound(sorted_ids.begin(), sorted_ids.end(), lo);
        if (first == sorted_ids.end() || *first > hi) {
          continue;
        }
        auto last = std::upper_bound(first, sorted_ids.end(), hi);
        const size_t count = static_cast<size_t>(last - first);
        PastryNode* best = nullptr;
        double best_prox = 0.0;
        for (int s = 0; s < 4; ++s) {
          const size_t idx = static_cast<size_t>(first - sorted_ids.begin()) +
                             (count == 1 ? 0 : rng.NextBelow(count));
          PastryNode& cand = *nodes[order[idx]];
          const double prox = net->LatencyMs(node.host(), cand.host());
          if (best == nullptr || prox < best_prox) {
            best = &cand;
            best_prox = prox;
          }
          if (count == 1) {
            break;
          }
        }
        node.routing_table().Consider(RouteEntry{best->id(), best->host(), best_prox});
      }
    }
  }
}

// Random ids under pairwise-uniform latency, or zoned ids (zone_bits = 4, 12 zones, as
// in the EUA multi-ring) under geographic latency. Same seed, same overlay.
struct EquivalenceWorld {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<PastryNetwork> pastry;

  EquivalenceWorld(size_t n, bool zoned, int bits_per_digit) {
    Rng rng(777);
    NetworkConfig net_config;
    net_config.model_bandwidth = false;
    std::unique_ptr<LatencyModel> latency;
    if (zoned) {
      std::vector<GeoPoint> positions(n);
      for (GeoPoint& p : positions) {
        p.lat_deg = rng.Uniform(-40.0, -10.0);
        p.lon_deg = rng.Uniform(110.0, 155.0);
      }
      latency = std::make_unique<GeoLatency>(std::move(positions));
    } else {
      latency = std::make_unique<PairwiseUniformLatency>(1.0, 40.0, 778);
    }
    net = std::make_unique<Network>(&sim, std::move(latency), net_config);
    PastryConfig config;
    config.bits_per_digit = bits_per_digit;
    pastry = std::make_unique<PastryNetwork>(net.get(), config);
    pastry->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (!zoned) {
        pastry->AddRandomNode(rng);
        continue;
      }
      NodeId id = RandomZonedId(static_cast<ZoneId>(rng.NextBelow(12)), 4, rng);
      while (pastry->FindById(id) != nullptr) {
        id = RandomZonedId(static_cast<ZoneId>(rng.NextBelow(12)), 4, rng);
      }
      pastry->AddNode(id);
    }
  }
};

bool SameEntry(const RouteEntry& a, const RouteEntry& b) {
  return a.id == b.id && a.host == b.host &&
         std::bit_cast<uint64_t>(a.proximity_ms) == std::bit_cast<uint64_t>(b.proximity_ms);
}

void ExpectSameEntries(const std::vector<RouteEntry>& got, const std::vector<RouteEntry>& want,
                       size_t node, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what << " size differs at node " << node;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameEntry(got[i], want[i])) << what << " entry " << i << " differs at node "
                                            << node;
  }
}

class OracleEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool, int>> {};

TEST_P(OracleEquivalenceTest, SweepMatchesBinarySearchReference) {
  const auto [n, zoned, bits] = GetParam();
  EquivalenceWorld sweep(n, zoned, bits);
  EquivalenceWorld reference(n, zoned, bits);
  Rng sweep_rng(4242);
  Rng reference_rng(4242);
  sweep.pastry->BuildOracle(sweep_rng);
  ReferenceBuildOracle(*reference.pastry, reference_rng);
  EXPECT_EQ(sweep_rng.Next(), reference_rng.Next()) << "RNG draw count differs";

  const int digits = 128 / bits;
  for (size_t i = 0; i < n; ++i) {
    const PastryNode& got = sweep.pastry->node(i);
    const PastryNode& want = reference.pastry->node(i);
    ASSERT_EQ(got.id(), want.id());
    ExpectSameEntries(got.leaf_set().All(), want.leaf_set().All(), i, "leaf set");
    ExpectSameEntries(got.neighborhood_set().entries(), want.neighborhood_set().entries(), i,
                      "neighbourhood set");
    ASSERT_EQ(got.routing_table().NumRows(), want.routing_table().NumRows()) << "node " << i;
    // A row lists its filled slots in column order, and an entry's id fixes its column,
    // so equal rows mean equal slots.
    for (int row = 0; row < digits; ++row) {
      ExpectSameEntries(got.routing_table().Row(row), want.routing_table().Row(row), i,
                        "routing-table row");
    }
  }
  // Learn charges work and state bytes per call, so equal totals mean equal call counts.
  const NetworkMetrics& got_metrics = sweep.net->metrics();
  const NetworkMetrics& want_metrics = reference.net->metrics();
  EXPECT_EQ(std::bit_cast<uint64_t>(got_metrics.TotalWork(WorkKind::kDhtTask)),
            std::bit_cast<uint64_t>(want_metrics.TotalWork(WorkKind::kDhtTask)));
  EXPECT_EQ(got_metrics.TotalStateBytes(), want_metrics.TotalStateBytes());
}

std::string EquivalenceCaseName(
    const ::testing::TestParamInfo<std::tuple<size_t, bool, int>>& info) {
  const size_t n = std::get<0>(info.param);
  const bool zoned = std::get<1>(info.param);
  const int bits = std::get<2>(info.param);
  std::string name = "n";
  name += std::to_string(n);
  name += zoned ? "_zoned_b" : "_random_b";
  name += std::to_string(bits);
  return name;
}

// 20000 nodes exceed one build chunk, so that size takes the multi-threaded path.
INSTANTIATE_TEST_SUITE_P(Sizes, OracleEquivalenceTest,
                         ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 17, 1000, 20000),
                                            ::testing::Bool(), ::testing::Values(2, 3, 4)),
                         EquivalenceCaseName);

TEST(MakeAppIdTest, DeterministicAndSpread) {
  const NodeId a1 = MakeAppId("app", "key", "salt");
  const NodeId a2 = MakeAppId("app", "key", "salt");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(MakeAppId("app", "key", "salt2"), a1);
  EXPECT_NE(MakeAppId("app2", "key", "salt"), a1);
}

}  // namespace
}  // namespace totoro
