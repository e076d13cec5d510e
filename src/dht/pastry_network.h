// Builder and test harness for a whole Pastry overlay.
//
// Two construction paths:
//  - JoinAll(): every node joins through the protocol (JOIN routed to rendezvous, state
//    transfer, announce). Faithful but O(N log N) messages — used for protocol tests and
//    small/medium experiments.
//  - BuildOracle(): installs the steady-state routing state directly from global
//    knowledge. Bit-for-bit the state the protocol converges to (leaf sets are exact;
//    routing-table slots are filled with the proximity-closest matching candidate),
//    letting 100k-node experiments skip the join phase the paper's testbed also
//    amortized away.
//
// The class also owns churn helpers (fail a node set, heal) and ground-truth queries
// (closest live node to a key) used to validate routing correctness in tests.
#ifndef SRC_DHT_PASTRY_NETWORK_H_
#define SRC_DHT_PASTRY_NETWORK_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/dht/pastry_node.h"

namespace totoro {

class PastryNetwork {
 public:
  PastryNetwork(Network* net, PastryConfig config);

  // Creates a node with the given id (or a random one) and registers it with the
  // network. Returns its index in nodes().
  size_t AddNode(NodeId id);
  size_t AddRandomNode(Rng& rng);

  // Pre-sizes node storage, lookup maps, and the underlying network's host table for a
  // topology whose final size is known (benches, 100k-node scale runs).
  void Reserve(size_t num_nodes);

  PastryNode& node(size_t i) { return *nodes_[i]; }
  const PastryNode& node(size_t i) const { return *nodes_[i]; }
  size_t size() const { return nodes_.size(); }
  const std::vector<std::unique_ptr<PastryNode>>& nodes() const { return nodes_; }

  PastryNode* FindByHost(HostId host);
  PastryNode* FindById(const NodeId& id);

  // Installs converged routing state into every node from global knowledge. The draws
  // from `rng` and the installed state do not depend on the thread count: above one
  // 2048-node chunk, proximity is evaluated on worker threads, so the network's
  // LatencyModel must tolerate concurrent const calls.
  void BuildOracle(Rng& rng);

  // Joins all nodes through the protocol, one at a time (first node bootstraps alone).
  // Runs the simulator to quiescence between joins.
  void JoinAll();

  // Marks `count` distinct random live nodes as failed (network down). Returns them.
  std::vector<PastryNode*> FailRandomNodes(size_t count, Rng& rng);
  void Heal(PastryNode& node);

  // Ground truth: the live node numerically closest to `key`.
  PastryNode* ClosestLiveNode(const NodeId& key);

  Network* network() { return net_; }
  const PastryConfig& config() const { return config_; }

 private:
  Network* net_;
  PastryConfig config_;
  std::vector<std::unique_ptr<PastryNode>> nodes_;
  std::unordered_map<HostId, PastryNode*> by_host_;
  std::unordered_map<U128, PastryNode*, U128Hash> by_id_;
};

}  // namespace totoro

#endif  // SRC_DHT_PASTRY_NETWORK_H_
