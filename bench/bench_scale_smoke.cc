// Scale smoke: builds a large Pastry overlay (default 100k nodes — the paper's edge
// deployments target this order), drives random lookups through it, and reports
// events-per-second plus routing statistics. This is the engine-scalability check:
// it passes when the overlay builds, every lookup resolves, and the hop count stays
// at the O(log_{2^b} N) bound; the printed throughput is the number EXPERIMENTS.md
// tracks for the simulator hot path at scale.
//
// Engine selection: TOTORO_SIM_SHARDS=1 (default) runs the single-queue engine;
// K > 1 runs the identical workload on K shards behind the conservative barrier.
// Routes launch in staggered groups so thousands of lookups are in flight at once —
// that in-flight concurrency is what the sharded engine spreads across workers — and
// the route_stats fingerprint (delivered / hops / events) is the same for every K,
// so CI gates the K=1 and K=4 runs against the SAME committed baseline.
//
// Usage: bench_scale_smoke [nodes] [routes]   (defaults: 100000 nodes, 20000 routes)
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/env.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/profiler.h"
#include "src/sim/sharded_sim.h"

namespace totoro {
namespace {

int Run(size_t nodes, size_t routes) {
  std::unique_ptr<Simulator> sim = MakeSimulatorFromEnv();
  const size_t shards = sim->num_shards();
  std::printf("building %zu-node overlay (oracle construction, %zu shard%s)...\n", nodes,
              shards, shards == 1 ? "" : "s");
  bench::Stack stack(nodes, 20240807, PastryConfig{}, ScribeConfig{},
                     /*model_bandwidth=*/false, /*latency_lo=*/2.0, /*latency_hi=*/40.0,
                     std::move(sim));
  stack.sim.ReserveEvents(1 << 16);
  // Live throughput: update the events/sec gauge from inside the run (sliding window)
  // instead of only as a final average. This makes the gauge wall-clock dependent, so
  // the determinism fingerprint below hashes routing results, never the registry.
  // The sharded engine ignores periodic sampling; the gauge then only carries the
  // whole-run average published at the end.
  stack.sim.EnablePeriodicSampling(8192);
  // Per-host work hook for TOTORO_PROFILE runs: the periodic sampler drives this on
  // the same deterministic trigger as the queue-depth series, so the profile shows
  // how DHT work accumulates across the run.
  GlobalProfiler().AddSampler("net_dht_work_units", [&stack]() {
    return stack.net->metrics().TotalWork(WorkKind::kDhtTask);
  });

  // Deliveries land on whichever shard owns the target host; relaxed atomics keep the
  // sums exact — and deterministic, since addition commutes — at every K.
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> total_hops{0};
  for (size_t i = 0; i < stack.pastry->size(); ++i) {
    stack.pastry->node(i).SetDeliverHandler(
        1200, [&delivered, &total_hops](const NodeId&, const Message&, int hops) {
          delivered.fetch_add(1, std::memory_order_relaxed);
          total_hops.fetch_add(static_cast<uint64_t>(hops), std::memory_order_relaxed);
        });
  }

  // Pre-plan every route (launch time, source, target) from the seeded Rng so the
  // schedule is one deterministic artifact shared by every engine and shard count.
  // Groups of 256 launch 5 virtual ms apart: with ~2-40ms hop latencies, several
  // groups' worth of lookups overlap in flight by mid-run.
  struct PlannedRoute {
    double at = 0.0;
    size_t src = 0;
    NodeId target;
  };
  Rng rng(20240808);
  std::vector<PlannedRoute> plan;
  plan.reserve(routes);
  for (size_t r = 0; r < routes; ++r) {
    PlannedRoute pr;
    pr.at = static_cast<double>(r / 256) * 5.0;
    pr.src = rng.NextBelow(stack.pastry->size());
    pr.target = RandomNodeId(rng);
    plan.push_back(pr);
  }
  for (const PlannedRoute& pr : plan) {
    stack.sim.ScheduleAt(pr.at, [&stack, pr]() {
      // Launch with the source as the scheduling identity so the lookup's hop chain
      // carries canonical per-host event keys under the sharded engine.
      stack.sim.RunAsHost(stack.pastry->node(pr.src).host(), [&stack, &pr] {
        Message m;
        m.type = 1200;
        stack.pastry->node(pr.src).Route(pr.target, std::move(m));
      });
    });
  }
  stack.sim.Run();

  const uint64_t delivered_total = delivered.load();
  const uint64_t hops_total = total_hops.load();
  const double mean_hops = delivered_total == 0 ? 0.0
                                                : static_cast<double>(hops_total) /
                                                      static_cast<double>(delivered_total);
  std::printf("routes issued:      %zu\n", routes);
  std::printf("routes delivered:   %llu\n",
              static_cast<unsigned long long>(delivered_total));
  std::printf("mean hops:          %.3f\n", mean_hops);
  std::printf("events fired:       %llu\n",
              static_cast<unsigned long long>(stack.sim.events_fired()));
  // The gauge still holds the periodic sampler's last window; show it before the
  // explicit publish overwrites it with the whole-run average.
  std::printf("sim.events_per_sec gauge (live window): %.0f\n",
              GlobalMetrics().GetGauge("sim.events_per_sec").value());
  stack.sim.PublishThroughputMetrics();
  std::printf("events/sec (wall):  %.0f\n", stack.sim.EventsPerSecond());

  // Machine-readable record for tools/benchdiff. The fingerprint covers the routing
  // outcome (deterministic for a given workload and ANY shard count); events/sec is
  // wall-clock and gets a wide tolerance.
  char probe[128];
  std::snprintf(probe, sizeof(probe), "delivered=%llu hops=%llu events=%llu",
                static_cast<unsigned long long>(delivered_total),
                static_cast<unsigned long long>(hops_total),
                static_cast<unsigned long long>(stack.sim.events_fired()));
  char workload[64];
  std::snprintf(workload, sizeof(workload), "nodes=%zu,routes=%zu", nodes, routes);
  BenchReport report = bench::MakeReport("scale_smoke", 20240807, workload);
  report.SetMeta("sim_shards", std::to_string(shards));
  report.SetMetric("routes_delivered", static_cast<double>(delivered_total), "routes",
                   0.0);
  report.SetMetric("mean_hops", mean_hops, "hops", 0.0);
  report.SetMetric("events_fired", static_cast<double>(stack.sim.events_fired()),
                   "events", 0.0);
  // 1.5 equivalent-slowdown budget: shared CI/dev machines show >50% throughput
  // swings from ambient load alone, so only a gross collapse (>2.5x) should gate.
  report.SetMetric("events_per_sec", stack.sim.EventsPerSecond(), "events/s", 1.5);
  report.SetFingerprint("route_stats", FingerprintBytes(probe));
  report.Write();

  if (delivered_total != routes) {
    std::printf("FAIL: %llu routes lost\n",
                static_cast<unsigned long long>(routes - delivered_total));
    return 1;
  }
  // Pastry's bound with the default 4-bit digits: ceil(log16 N) rows plus slack for
  // leaf-set termination. 100k nodes => ~4.2; anything near double that means routing
  // state degenerated.
  if (mean_hops > 8.0) {
    std::printf("FAIL: mean hops %.3f exceeds the O(log N) sanity bound\n", mean_hops);
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

}  // namespace
}  // namespace totoro

int main(int argc, char** argv) {
  // Counts go through the strict parser: `abc`, `12x` or `0` is a usage error, not a
  // zero-node overlay that aborts mid-build.
  const std::optional<long> nodes = argc > 1 ? totoro::ParseInt64(argv[1], 1) : 100000;
  const std::optional<long> routes = argc > 2 ? totoro::ParseInt64(argv[2], 1) : 20000;
  if (argc > 3 || !nodes.has_value() || !routes.has_value()) {
    std::fprintf(stderr,
                 "usage: bench_scale_smoke [nodes] [routes]   (positive integers; "
                 "defaults 100000 and 20000)\n");
    return 2;
  }
  return totoro::Run(static_cast<size_t>(*nodes), static_cast<size_t>(*routes));
}
