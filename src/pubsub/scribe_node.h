// Scribe-style publish/subscribe node: per-topic dataflow-tree membership (§4.3).
//
// One ScribeNode rides on top of each PastryNode. For every topic (= FL application id)
// the node may simultaneously be the root (master), an internal forwarder
// (coordinator/aggregator/selector), and/or a subscriber (worker) — roles emerge from
// where JOIN paths happen to meet, never from static assignment.
//
// Tree construction: a subscriber routes a JOIN toward the topic id. Every hop grafts
// the previous hop into its children table; a hop already in the tree absorbs the JOIN,
// otherwise it re-issues the JOIN on its own behalf. The rendezvous node (numerically
// closest to the topic) becomes the root.
//
// Down-tree: Broadcast() fans a payload from the root along children tables.
// Up-tree: SubmitUpdate() starts a leaf contribution; every internal node combines its
// children's updates (plus its own, if subscribed) with an application-supplied
// CombineFn before forwarding one aggregate to its parent — the in-network partial
// aggregation that keeps the root's load O(fanout), not O(N).
//
// Repair (§4.5): parents send per-topic keep-alives to children; a child that misses
// them re-routes a JOIN toward the topic, which grafts it (and its subtree) onto a live
// branch.
#ifndef SRC_PUBSUB_SCRIBE_NODE_H_
#define SRC_PUBSUB_SCRIBE_NODE_H_

#include <functional>
#include <map>
#include <vector>

#include "src/dht/pastry_node.h"
#include "src/pubsub/messages.h"
#include "src/pubsub/wire_batcher.h"

namespace totoro {

// One child-to-parent or local update flowing up the tree.
struct AggregationPiece {
  std::shared_ptr<const void> data;
  double weight = 1.0;
  uint64_t count = 1;
};

// Combines child updates into one partial aggregate (e.g. weighted FedAvg merge).
using CombineFn = std::function<AggregationPiece(const std::vector<AggregationPiece>&)>;

struct ScribeConfig {
  // How long an internal node waits for missing children before forwarding a partial
  // aggregate (straggler cut-off). 0 disables the timeout (wait forever).
  double aggregation_timeout_ms = 0.0;
  // Parent keep-alive period / timeout for tree repair.
  double parent_heartbeat_ms = 200.0;
  double parent_timeout_ms = 650.0;
  bool enable_tree_repair = false;
  // JOIN retransmission with exponential backoff: a JOIN still pending after this long
  // is re-sent, doubling the wait up to `join_retry_max_ms`. 0 disables retries (a JOIN
  // lost to an unreliable link then strands the node until the next repair pass).
  // Requires enable_tree_repair (retries ride the maintenance tick).
  double join_retry_ms = 0.0;
  double join_retry_max_ms = 3200.0;
  // Wire batching for every direct send this node makes (kOff preserves the exact
  // pre-batching byte stream; see src/pubsub/wire_batcher.h).
  WireBatchConfig batch;
};

class ScribeNode {
 public:
  using BroadcastFn =
      std::function<void(const NodeId& topic, uint64_t round, const ScribeBroadcast& msg)>;
  using RootAggregateFn =
      std::function<void(const NodeId& topic, uint64_t round, const AggregationPiece& total)>;
  // Invoked when a round's straggler cut-off fires, with the children that had not
  // reported (Table 2's onTimer exposes straggler ids to the application owner).
  using StragglerFn = std::function<void(const NodeId& topic, uint64_t round,
                                         const std::vector<HostId>& missing_children)>;
  // Invoked at the root whenever a round's total is finalized, before the application
  // callback — the faultsim InvariantChecker audits contribution counts here.
  using AggregateAuditFn =
      std::function<void(const NodeId& topic, uint64_t round, const AggregationPiece& total)>;
  // Invoked whenever this node's subscriber bit for a topic flips (Subscribe on a
  // non-subscriber, Unsubscribe on a subscriber) — the faultsim InvariantChecker keeps
  // per-topic subscriber counts current with it instead of rescanning every node.
  using SubscriptionAuditFn = std::function<void(const NodeId& topic, bool subscribed)>;

  ScribeNode(PastryNode* pastry, ScribeConfig config);

  PastryNode& pastry() { return *pastry_; }
  const PastryNode& pastry() const { return *pastry_; }
  HostId host() const { return pastry_->host(); }

  // Subscribes this node (as a worker) to the topic's tree.
  void Subscribe(const NodeId& topic);
  // Detaches this node from the topic (children are re-parented via their own repair).
  void Unsubscribe(const NodeId& topic);

  // Called on the root: fans `data` down the tree. Payload bytes drive network cost.
  void Broadcast(const NodeId& topic, uint64_t round, std::shared_ptr<const void> data,
                 uint64_t size_bytes);

  // Called on a subscriber: submits this node's local update for `round` up the tree.
  void SubmitUpdate(const NodeId& topic, uint64_t round, AggregationPiece piece,
                    uint64_t size_bytes);

  // Application callbacks.
  void SetCombineFn(CombineFn fn) { combine_ = std::move(fn); }
  // Per-topic combiner override (§4.3: "owners can specify different aggregation
  // functions in their trees") — e.g. a secure-sum combiner for one application while
  // the default FedAvg merge serves every other topic on this node.
  void SetCombineFnForTopic(const NodeId& topic, CombineFn fn) {
    topic_combine_[topic] = std::move(fn);
  }
  void SetOnBroadcast(BroadcastFn fn) { on_broadcast_ = std::move(fn); }
  void SetOnRootAggregate(RootAggregateFn fn) { on_root_aggregate_ = std::move(fn); }
  void SetOnStragglers(StragglerFn fn) { on_stragglers_ = std::move(fn); }
  void SetAggregateAudit(AggregateAuditFn fn) { aggregate_audit_ = std::move(fn); }
  void SetSubscriptionAudit(SubscriptionAuditFn fn) { subscription_audit_ = std::move(fn); }

  // Structure inspection (used by forest statistics and tests).
  bool InTree(const NodeId& topic) const;
  bool IsRoot(const NodeId& topic) const;
  bool IsSubscriber(const NodeId& topic) const;
  HostId ParentOf(const NodeId& topic) const;  // kInvalidHost when root/detached.
  std::vector<HostId> ChildrenOf(const NodeId& topic) const;
  size_t NumTopics() const { return topics_.size(); }
  std::vector<NodeId> Topics() const;

  // Tree repair driver; requires config.enable_tree_repair.
  void StartMaintenance();

 private:
  struct RoundState {
    std::vector<AggregationPiece> pieces;
    std::map<HostId, bool> received_from;  // children that have reported.
    bool own_submitted = false;
    bool forwarded = false;
    uint64_t max_piece_bytes = 0;
    // Earliest leaf submission folded into this round (virtual ms); < 0 until the first
    // piece arrives. Carried up-tree so the root can measure aggregation latency.
    SimTime earliest_submit_ms = -1.0;
    EventHandle timeout;
  };

  struct TopicState {
    NodeId topic;
    bool subscribed = false;
    bool is_root = false;
    HostId parent = kInvalidHost;
    NodeId parent_id;
    bool join_pending = false;
    bool join_direct = false;  // Pending JOIN must graft only at the rendezvous.
    std::map<HostId, NodeId> children;
    SimTime last_parent_heartbeat = 0.0;
    std::map<uint64_t, RoundState> rounds;
    // JOIN retry bookkeeping (config.join_retry_ms): when the pending JOIN was sent and
    // the current backoff before the next resend.
    SimTime join_sent_ms = 0.0;
    double join_backoff_ms = 0.0;
    // Straggler-drop bookkeeping: once a round's aggregate is forwarded (or handled at
    // the root), late pieces for it — stragglers past the cut-off, duplicates from a
    // rejoined child or a duplicating link — must not re-open it.
    uint64_t max_closed_round = 0;
    bool any_closed = false;
  };

  // Pastry handler plumbing.
  bool OnJoinForward(const NodeId& key, Message& inner, HostId next_hop);
  void OnJoinDeliver(const NodeId& key, const Message& inner, int hops);
  void OnDirectMessage(const Message& msg);

  void HandleBroadcast(const Message& msg);
  void HandleUpdate(const Message& msg);
  void HandleParentHeartbeat(const Message& msg);
  void HandleLeave(const Message& msg);

  TopicState& GetOrCreate(const NodeId& topic);
  void AddChild(TopicState& state, HostId child_host, const NodeId& child_id);
  // `direct` marks the JOIN as graft-at-rendezvous-only (demotion re-join; see
  // ScribeJoin::direct). Retries preserve the flag via TopicState::join_direct.
  void SendJoin(const NodeId& topic, bool direct = false);
  void ForwardBroadcastToChildren(const TopicState& state, const ScribeBroadcast& bc,
                                  uint64_t size_bytes);
  // Folds a piece into the round and forwards the partial aggregate if complete.
  // `origin_ms` is the submission time of the earliest leaf behind the piece.
  void AccumulateUpdate(TopicState& state, uint64_t round, AggregationPiece piece,
                        HostId from_child, uint64_t size_bytes, SimTime origin_ms);
  void MaybeForwardAggregate(TopicState& state, uint64_t round, bool timed_out);
  void MaintenanceTick();
  void ChargeState(int64_t delta);

  PastryNode* pastry_;
  ScribeConfig config_;
  WireBatcher batcher_;
  CombineFn combine_;
  std::map<U128, CombineFn> topic_combine_;
  BroadcastFn on_broadcast_;
  RootAggregateFn on_root_aggregate_;
  StragglerFn on_stragglers_;
  AggregateAuditFn aggregate_audit_;
  SubscriptionAuditFn subscription_audit_;
  // Ordered map: MaintenanceTick walks every topic sending heartbeats and re-JOINs, so
  // the walk order feeds event scheduling and must not depend on a hash function.
  std::map<U128, TopicState> topics_;
  bool maintenance_running_ = false;
};

}  // namespace totoro

#endif  // SRC_PUBSUB_SCRIBE_NODE_H_
