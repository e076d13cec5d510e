// The Totoro engine: drives federated rounds for many concurrent applications over the
// pub/sub forest.
//
// Per application: the rendezvous root acts as the master (holding the global model and
// running evaluation), internal tree nodes aggregate partial updates in-network, and
// subscribers run local training with virtual compute delays. Applications are fully
// independent — separate trees, separate masters — which is the paper's "many masters /
// many workers" architecture; the engine merely multiplexes callbacks per topic.
#ifndef SRC_CORE_ENGINE_H_
#define SRC_CORE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/core/app.h"
#include "src/fl/aggregation.h"
#include "src/fl/compute_pool.h"
#include "src/fl/secure_agg.h"
#include "src/fl/selection.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/pubsub/forest.h"

namespace totoro {

class TotoroEngine {
 public:
  TotoroEngine(Forest* forest, ComputeModel compute, uint64_t seed);

  // Per-node relative compute speeds (heterogeneous devices). Defaults to 1.0 for all.
  void SetSpeedFactors(std::vector<double> factors);

  // Per-node relative link bandwidth (heterogeneous fleet classes). Defaults to 1.0;
  // surfaced to selectors through ClientInfo::bandwidth_factor so bandwidth-aware
  // selection (OortLikeSelector::bandwidth_beta) can prefer well-connected devices.
  void SetBandwidthFactors(std::vector<double> factors);

  // Adversarial hooks, wired from outside the engine (the faultsim layer in tests) so
  // core never depends on faultsim. Both run on the simulator thread.
  //
  // UpdateInterceptor may rewrite a freshly trained update in place just before it is
  // submitted up the tree: `reference` is the round's broadcast weights, `weights` and
  // `sample_weight` the trained update. Return value is informational (true = modified).
  // Skipped for secure-aggregation apps — their updates are already pairwise-masked on
  // the compute pool, so a post-hoc rewrite would corrupt mask cancellation rather than
  // model a poisoning client.
  using UpdateInterceptor = std::function<bool(
      const NodeId& topic, uint64_t round, size_t node_index,
      std::span<const float> reference, std::vector<float>& weights,
      double& sample_weight)>;
  void SetUpdateInterceptor(UpdateInterceptor fn) { update_interceptor_ = std::move(fn); }

  // SybilProvider is consulted when a broadcast reaches a subscriber that has no
  // trainer for the app — i.e. a forged membership (sybil join). Filling `weights` and
  // returning true submits the forged update; returning false submits an empty piece
  // (the tree barrier must close either way). Same signature as UpdateInterceptor;
  // `weights` arrives empty.
  void SetSybilProvider(UpdateInterceptor fn) { sybil_provider_ = std::move(fn); }

  // Master failover: every round the master replicates its checkpoint (global weights +
  // round counter) to `checkpoint_replicas` leaf-set neighbors; a periodic watchdog
  // detects a dead or stalled master, re-resolves the application's root (the overlay
  // elects the next rendezvous node once tree repair runs) and resumes training there
  // from the replicated checkpoint. This is the operational consequence of "any edge
  // node can act as any application's coordinator".
  struct FailoverConfig {
    double watchdog_interval_ms = 500.0;
    double stall_timeout_ms = 4000.0;  // No progress for this long => intervene.
    int checkpoint_replicas = 2;
  };
  void EnableFailover(FailoverConfig config);

  // Round straggler deadline: if a round has not closed `ms` virtual ms after its
  // broadcast, the master force-closes it with whatever aggregate arrived (possibly
  // none — the previous global weights then carry over) and starts the next round.
  // This is the round-level analogue of the tree's aggregation_timeout_ms: it bounds
  // progress even when an entire subtree is unreachable. 0 (default) disables it.
  void SetRoundDeadline(double ms) { round_deadline_ms_ = ms; }

  // How long LaunchApp lets the simulator settle after subscribing workers. 0 (default)
  // runs the event queue dry — correct only when no periodic timers (keep-alives,
  // maintenance) are active; with periodic timers, set a bounded settle instead.
  void SetSubscribeSettleMs(double settle_ms) { subscribe_settle_ms_ = settle_ms; }

  // Replaces the local-training compute pool (see src/fl/compute_pool.h). The engine
  // starts with TOTORO_COMPUTE_THREADS (default 1 = inline); results are bit-identical
  // for any thread count. Joins all outstanding training tasks before switching.
  void SetComputeThreads(size_t threads);
  size_t compute_threads() const { return pool_->threads(); }

  // Builds the application's tree over `workers` and installs its runtime. `shards`
  // is parallel to `workers`; `test_set` is the master's evaluation set. Returns the
  // application topic. Training starts at StartAll().
  NodeId LaunchApp(const FlAppConfig& config, const std::vector<size_t>& workers,
                   std::vector<Dataset> shards, Dataset test_set);

  // Schedules round 1 of every launched-but-unstarted application at the current
  // virtual time.
  void StartAll();

  // Runs the simulator until every application finishes (or the event queue drains, or
  // `max_virtual_ms` passes). Returns true if all applications completed.
  bool RunToCompletion(double max_virtual_ms = 1e12);

  bool AllDone() const;
  const AppResult& result(const NodeId& topic) const;
  std::vector<AppResult> AllResults() const;

  Forest& forest() { return *forest_; }

 private:
  // One worker's trainer plus its in-flight offloaded training task, if any. The
  // ticket is joined before the trainer is reused or its post-train state (last_loss)
  // is read, so offloaded runs keep the sequential happens-before order per trainer.
  struct TrainerSlot {
    std::unique_ptr<LocalTrainer> trainer;
    ComputePool::Ticket pending;
  };

  struct AppRuntime {
    FlAppConfig config;
    NodeId topic;
    size_t master_index = SIZE_MAX;
    std::unique_ptr<Model> global_model;
    std::vector<float> global_weights;
    Dataset test_set{1, 2};
    // worker node index -> trainer slot. Ordered map: StartRound walks this to build
    // the selection candidate list (RNG consumption order) and SetComputeThreads joins
    // pending tickets in walk order, so iteration order must be stable across runs.
    std::map<size_t, TrainerSlot> trainers;
    uint64_t round = 0;
    double launch_time_ms = 0.0;
    bool started = false;
    bool done = false;
    // Tracing: the round span's context is allocated at StartRound so every child
    // (broadcast, training, aggregation) can parent to it; the span record itself is
    // emitted when the round closes in EvaluateAndAdvance.
    double round_start_ms = 0.0;
    TraceContext round_trace;
    // Participant selection state.
    std::unique_ptr<ClientSelector> selector;
    // Async-protocol state.
    uint64_t async_updates_received = 0;
    // Secure-aggregation state: per-round pairwise mask group, keyed by round. Old
    // groups are pruned to a small window; in-flight training tasks keep theirs alive
    // through the shared_ptr they captured.
    uint64_t secure_seed = 0;
    std::map<uint64_t, std::shared_ptr<const SecureAggregationGroup>> secure_groups;
    // Failover bookkeeping.
    double last_progress_ms = 0.0;
    uint64_t failovers = 0;
    // Pending straggler-deadline event for the current round (cancelled when the round
    // closes normally).
    EventHandle round_deadline;
    AppResult result;
  };

  // The model-broadcast payload: weights plus (optionally) the round's selected cohort.
  struct RoundPayload {
    std::vector<float> weights;
    // Null when every subscriber trains; otherwise the selected worker node indices.
    std::shared_ptr<const std::vector<size_t>> selected;
  };

  void OnBroadcast(size_t node_index, const NodeId& topic, uint64_t round,
                   const ScribeBroadcast& bc);
  void OnRootAggregate(const NodeId& topic, uint64_t round, const AggregationPiece& total);
  void OnAsyncUpdate(const NodeId& key, const Message& msg);
  void EvaluateAndAdvance(AppRuntime& app, uint64_t round);
  // Top-1 accuracy of `model` on `test_set`, counted in slices on the compute pool.
  double EvaluateOnPool(const Model& model, const Dataset& test_set);
  void StartRound(AppRuntime& app);
  void FinishApp(AppRuntime& app);
  void ReplicateCheckpoint(AppRuntime& app);
  void WatchdogTick();

  // Metric series resolved once, in the constructor, from the constructing thread's
  // registry. These used to be function-scope `static thread_local` caches at the
  // increment sites, which bind each series to whichever thread first executes the site
  // for the remainder of that thread's life — so an engine created after a registry
  // swap, or sharing a reused worker thread with an earlier engine, would increment a
  // stale or foreign series. Per-engine members make the attribution explicit and stay
  // valid across MetricsRegistry::ResetValues() (which keeps registrations).
  struct MetricSeries {
    Counter* deadline_expired = nullptr;
    Counter* train_tasks = nullptr;
    Counter* defense_collected = nullptr;
    Counter* defense_rejected = nullptr;
    Counter* defense_clipped = nullptr;
    Counter* defense_rounds = nullptr;
    Counter* secure_corrections = nullptr;
    Counter* secure_dropped = nullptr;
    Histogram* async_staleness = nullptr;
    Histogram* round_duration = nullptr;
  };

  Forest* forest_;
  ComputeModel compute_;
  MetricSeries series_;
  Rng rng_;
  std::vector<double> speed_factors_;
  std::vector<double> bandwidth_factors_;
  UpdateInterceptor update_interceptor_;
  UpdateInterceptor sybil_provider_;
  // Ordered map: StartAll and WatchdogTick iterate this to schedule rounds, so the walk
  // order feeds event scheduling and must not depend on a hash function.
  std::map<U128, std::unique_ptr<AppRuntime>> apps_;
  bool failover_enabled_ = false;
  FailoverConfig failover_config_;
  double subscribe_settle_ms_ = 0.0;
  double round_deadline_ms_ = 0.0;
  // Declared last so it is destroyed first: outstanding pool tasks reference trainers
  // owned by apps_ above.
  std::unique_ptr<ComputePool> pool_;
};

}  // namespace totoro

#endif  // SRC_CORE_ENGINE_H_
