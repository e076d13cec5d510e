// A Pastry DHT node: routing state + join protocol + keep-alive failure handling.
//
// This is the Layer-1 building block of Totoro (§4.2). Each node owns a routing table,
// leaf set and neighborhood set, and offers the classic Pastry API to upper layers:
//
//   Route(key, msg)       route msg to the live node numerically closest to key
//   SetDeliverHandler     invoked at the destination node
//   SetForwardHandler     invoked at every intermediate node (may consume the message)
//
// The pub/sub forest (Layer 2) is built entirely on these three calls. Failure handling
// follows §4.5: leaf-set members exchange keep-alives; a missed ack removes the node
// everywhere and triggers leaf-set repair via the surviving members, and upper layers
// are notified through the failure handler so they can re-JOIN their trees.
#ifndef SRC_DHT_PASTRY_NODE_H_
#define SRC_DHT_PASTRY_NODE_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/dht/leaf_set.h"
#include "src/dht/messages.h"
#include "src/dht/neighborhood_set.h"
#include "src/dht/node_id.h"
#include "src/dht/routing_table.h"
#include "src/sim/network.h"

namespace totoro {

struct PastryConfig {
  int bits_per_digit = 4;      // b; routing table has 2^b - 1 usable columns per row.
  int leaf_set_size = 24;      // L (paper's EC2 config).
  int neighborhood_size = 16;  // M.
  bool enable_keepalive = false;
  double keepalive_interval_ms = 500.0;
  double keepalive_timeout_ms = 1600.0;
  // Suspect probing (requires keep-alives): a node removed by ReportDead is remembered
  // as a suspect for `suspect_ttl_ms` and probed round-robin, one per keep-alive tick.
  // A suspect that answers is re-learned. This is what re-merges the ring after a
  // network partition heals — without it both sides have purged each other and no
  // protocol path ever re-introduces them.
  bool enable_suspect_probe = true;
  double suspect_ttl_ms = 8000.0;
};

class PastryNode : public Host {
 public:
  // Invoked at the destination of a routed message.
  using DeliverFn = std::function<void(const NodeId& key, const Message& inner, int hops)>;
  // Invoked at every node a routed message passes through (including origin), before
  // forwarding. Return false to consume the message (stop routing). `next_hop` is the
  // host the envelope would be forwarded to (or the local host if this node delivers).
  // The handler may rewrite `inner` (Scribe rewrites the JOIN child pointer per hop).
  using ForwardFn = std::function<bool(const NodeId& key, Message& inner, HostId next_hop)>;
  // Invoked when a node is detected dead (keep-alive timeout or explicit report).
  using FailureFn = std::function<void(const NodeId& id, HostId host)>;

  PastryNode(Network* net, NodeId id, PastryConfig config);

  NodeId id() const { return id_; }
  HostId host() const { return host_; }
  bool alive() const { return net_->IsUp(host_); }
  Network* net() { return net_; }

  RoutingTable& routing_table() { return routing_table_; }
  const RoutingTable& routing_table() const { return routing_table_; }
  LeafSet& leaf_set() { return leaf_set_; }
  const LeafSet& leaf_set() const { return leaf_set_; }
  NeighborhoodSet& neighborhood_set() { return neighborhood_set_; }
  const NeighborhoodSet& neighborhood_set() const { return neighborhood_set_; }
  const PastryConfig& config() const { return config_; }

  // Registers a deliver/forward handler for inner messages of type `app_type`.
  void SetDeliverHandler(int app_type, DeliverFn fn);
  void SetForwardHandler(int app_type, ForwardFn fn);
  void SetFailureHandler(FailureFn fn) { failure_fn_ = std::move(fn); }

  // Administrator's packet-wise boundary control (§4.2): before any envelope is
  // forwarded or delivered, the filter inspects its key; returning false drops the
  // packet at this node. Used with rings::IsolateZoneBoundaryPolicy to keep
  // zone-restricted applications' control flows inside their edge site.
  using EgressFilterFn = std::function<bool(const NodeId& key)>;
  void SetEgressFilter(EgressFilterFn fn) { egress_filter_ = std::move(fn); }

  // Routes `inner` toward the node whose id is numerically closest to `key`.
  void Route(const NodeId& key, Message inner);

  // Sends a message directly (one hop, no overlay routing).
  void SendDirect(HostId dst, Message msg);

  // Protocol join through `bootstrap` (must be a live overlay member's host).
  void Join(HostId bootstrap);

  // Adds a node to local state (oracle bootstrap or gossip).
  void Learn(const RouteEntry& entry);

  // Removes a dead node from all local state and notifies the failure handler.
  void ReportDead(const NodeId& id, HostId host);

  // Starts periodic keep-alive of leaf-set neighbors (requires config.enable_keepalive).
  void StartKeepAlive();

  // Host:
  void HandleMessage(const Message& msg) override;

  // Exposed for tests: the pure next-hop decision. Returns {self host, self id} when the
  // local node is the destination.
  RouteEntry ComputeNextHop(const NodeId& key) const;

  // True when no live leaf-set member is numerically closer to `key` than this node.
  // This is the ownership question ("am I still the rendezvous?"), distinct from the
  // routing question ComputeNextHop answers: mid-repair a leaf set can stop covering
  // the key, which makes routing defer to a longer-prefix node even though self is
  // still the closest id on the ring.
  bool IsClosestKnownToKey(const NodeId& key) const;

 private:
  void HandleEnvelope(const Message& msg);
  void ForwardOrDeliver(std::shared_ptr<const RouteEnvelope> env, int hops);
  void HandleJoinRequestAt(const RouteEnvelope& env, bool is_destination);
  void HandleJoinState(const Message& msg);
  void HandleAnnounce(const Message& msg);
  void HandleHeartbeat(const Message& msg);
  void HandleHeartbeatAck(const Message& msg);
  void HandleLeafRepair(const Message& msg);
  void KeepAliveTick();
  void CheckKeepAliveDeadlines();
  void AddSuspect(const RouteEntry& entry);
  void ProbeOneSuspect();
  void ChargeDhtWork(double units);
  RouteEntry SelfEntry() const;
  double ProximityTo(HostId other) const;

  Network* net_;
  NodeId id_;
  HostId host_;
  PastryConfig config_;
  RoutingTable routing_table_;
  LeafSet leaf_set_;
  NeighborhoodSet neighborhood_set_;
  // Handler tables are flat vectors scanned linearly: a node registers a handful of
  // app types at most, and the per-hop lookup in ForwardOrDeliver beats a tree or hash
  // walk at that size.
  std::vector<std::pair<int, DeliverFn>> deliver_handlers_;
  std::vector<std::pair<int, ForwardFn>> forward_handlers_;
  FailureFn failure_fn_;
  EgressFilterFn egress_filter_;
  // Keep-alive bookkeeping: host -> last ack virtual time.
  std::unordered_map<HostId, SimTime> last_ack_;
  bool keepalive_running_ = false;
  uint64_t keepalive_ticks_ = 0;
  // Recently removed nodes still worth probing (ring re-merge after partition heal).
  struct Suspect {
    RouteEntry entry;
    SimTime expires_ms = 0.0;
  };
  std::vector<Suspect> suspects_;
  size_t suspect_cursor_ = 0;
};

}  // namespace totoro

#endif  // SRC_DHT_PASTRY_NODE_H_
