#include "src/faultsim/invariant_checker.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/obs/metrics_registry.h"

namespace totoro {
namespace {

Counter& ChecksCounter() {
  static thread_local Counter* c = &GlobalMetrics().GetCounter("faultsim.invariant.checks");
  return *c;
}

Counter& ViolationsCounter() {
  static thread_local Counter* c =
      &GlobalMetrics().GetCounter("faultsim.invariant.violations");
  return *c;
}

}  // namespace

InvariantChecker::InvariantChecker(PastryNetwork* pastry, Forest* forest,
                                   InvariantCheckerConfig config)
    : pastry_(pastry), forest_(forest), config_(config) {
  CHECK(pastry_ != nullptr);
  CHECK(forest_ != nullptr);
}

InvariantChecker::~InvariantChecker() { Stop(); }

void InvariantChecker::WatchTopic(const NodeId& topic) {
  uint64_t subs = 0;
  for (size_t i = 0; i < forest_->size(); ++i) {
    if (forest_->scribe(i).IsSubscriber(topic)) {
      ++subs;
    }
  }
  topics_.push_back(topic);
  subscribers_.push_back(subs);
  max_subscribers_.push_back(0);
  if (!audit_installed_) {
    audit_installed_ = true;
    for (size_t i = 0; i < forest_->size(); ++i) {
      forest_->scribe(i).SetAggregateAudit(
          [this](const NodeId& t, uint64_t round, const AggregationPiece& total) {
            OnRootAggregate(t, round, total.count);
          });
      forest_->scribe(i).SetSubscriptionAudit(
          [this](const NodeId& t, bool subscribed) { OnSubscription(t, subscribed); });
    }
  }
}

uint64_t InvariantChecker::SubscriberCount(const NodeId& topic) const {
  const auto it = std::find(topics_.begin(), topics_.end(), topic);
  CHECK(it != topics_.end());
  return subscribers_[static_cast<size_t>(it - topics_.begin())];
}

void InvariantChecker::OnSubscription(const NodeId& topic, bool subscribed) {
  for (size_t t = 0; t < topics_.size(); ++t) {
    if (topics_[t] != topic) {
      continue;
    }
    if (subscribed) {
      ++subscribers_[t];
    } else {
      CHECK_GT(subscribers_[t], 0u);
      --subscribers_[t];
    }
  }
}

void InvariantChecker::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  pending_ = pastry_->network()->sim()->Schedule(config_.interval_ms, [this]() { Tick(); });
}

void InvariantChecker::Stop() {
  running_ = false;
  pending_.Cancel();
}

void InvariantChecker::Tick() {
  if (!running_) {
    return;
  }
  CheckNow();
  // Eventual invariants only apply once the run has been quiet long enough for repair
  // to finish: no active partition, and the last fault at least a grace period ago.
  const SimTime now = pastry_->network()->sim()->Now();
  const bool quiet = injector_ == nullptr ||
                     (!injector_->PartitionActive() &&
                      now - injector_->last_fault_ms() >= config_.convergence_grace_ms);
  if (quiet) {
    CheckConverged();
  }
  pending_ = pastry_->network()->sim()->Schedule(config_.interval_ms, [this]() { Tick(); });
}

void InvariantChecker::Violate(const char* invariant, std::string detail) {
  InvariantViolation v;
  v.at = pastry_->network()->sim()->Now();
  v.invariant = invariant;
  v.detail = std::move(detail);
  TLOG_WARN("invariant violation [%s] at t=%.1fms: %s", invariant, v.at, v.detail.c_str());
  ViolationsCounter().Increment();
  violations_.push_back(std::move(v));
}

void InvariantChecker::UpdateSubscriberHighWater() {
  for (size_t t = 0; t < topics_.size(); ++t) {
    max_subscribers_[t] = std::max(max_subscribers_[t], subscribers_[t]);
  }
}

void InvariantChecker::OnRootAggregate(const NodeId& topic, uint64_t round, uint64_t count) {
  for (size_t t = 0; t < topics_.size(); ++t) {
    if (topics_[t] != topic) {
      continue;
    }
    UpdateSubscriberHighWater();
    if (count > max_subscribers_[t]) {
      Violate("aggregation.no_double_count",
              "round " + std::to_string(round) + " counted " + std::to_string(count) +
                  " contributions but the topic peaked at " +
                  std::to_string(max_subscribers_[t]) + " subscribers");
    }
    return;
  }
}

void InvariantChecker::CheckNow() {
  ++checks_run_;
  ChecksCounter().Increment();
  UpdateSubscriberHighWater();
  if (config_.check_trees) {
    for (const NodeId& topic : topics_) {
      CheckSafetyTree(topic);
    }
  }
}

void InvariantChecker::CheckSafetyTree(const NodeId& topic) {
  // Self-loops are unconditionally illegal; longer transient cycles can form mid-repair
  // (a detached parent re-grafting through its own subtree) and are checked only at
  // convergence.
  for (size_t i = 0; i < forest_->size(); ++i) {
    const ScribeNode& scribe = forest_->scribe(i);
    if (scribe.ParentOf(topic) == scribe.host()) {
      Violate("tree.no_self_parent",
              "host " + std::to_string(scribe.host()) + " is its own parent");
    }
  }
}

void InvariantChecker::CheckConverged() {
  if (config_.check_trees) {
    for (const NodeId& topic : topics_) {
      CheckConvergedTree(topic);
    }
  }
  if (config_.check_leaf_sets && pastry_->config().enable_keepalive) {
    CheckLeafSets();
  }
}

void InvariantChecker::CheckConvergedTree(const NodeId& topic) {
  // Host -> scribe lookup for parent-pointer walks.
  std::vector<const ScribeNode*> by_host(pastry_->network()->num_hosts(), nullptr);
  for (size_t i = 0; i < forest_->size(); ++i) {
    const ScribeNode& s = forest_->scribe(i);
    if (s.host() < by_host.size()) {
      by_host[s.host()] = &s;
    }
  }

  // Acyclicity: every live in-tree node's parent chain must terminate within N hops.
  const size_t limit = forest_->size() + 1;
  for (size_t i = 0; i < forest_->size(); ++i) {
    const ScribeNode& start = forest_->scribe(i);
    if (!start.pastry().alive() || !start.InTree(topic)) {
      continue;
    }
    const ScribeNode* cur = &start;
    size_t steps = 0;
    while (cur != nullptr && !cur->IsRoot(topic) && steps <= limit) {
      const HostId parent = cur->ParentOf(topic);
      if (parent == kInvalidHost) {
        break;  // Detached (allowed to be mid-rejoin even at convergence gates).
      }
      cur = parent < by_host.size() ? by_host[parent] : nullptr;
      ++steps;
    }
    if (steps > limit) {
      Violate("tree.acyclic", "parent chain from host " + std::to_string(start.host()) +
                                  " does not terminate (cycle)");
      return;  // One report per check; the walk would re-trip for every cycle member.
    }
  }

  // Exactly one live root, and it is the key's rendezvous node.
  std::vector<HostId> roots;
  for (size_t i = 0; i < forest_->size(); ++i) {
    const ScribeNode& s = forest_->scribe(i);
    if (s.pastry().alive() && s.IsRoot(topic)) {
      roots.push_back(s.host());
    }
  }
  if (roots.size() != 1) {
    Violate("tree.single_root",
            std::to_string(roots.size()) + " live roots for the topic (want exactly 1)");
  }
  PastryNode* rendezvous = pastry_->ClosestLiveNode(topic);
  if (rendezvous != nullptr && roots.size() == 1 && roots[0] != rendezvous->host()) {
    Violate("tree.root_is_rendezvous",
            "root host " + std::to_string(roots[0]) + " but rendezvous host " +
                std::to_string(rendezvous->host()));
  }

  if (!forest_->IsFullyConnected(topic)) {
    Violate("tree.connected", "a live subscriber cannot reach a live root");
  }
}

void InvariantChecker::CheckLeafSets() {
  // Ground-truth ring: live nodes in id order.
  std::vector<const PastryNode*> live;
  for (size_t i = 0; i < pastry_->size(); ++i) {
    const PastryNode& n = pastry_->node(i);
    if (n.alive()) {
      live.push_back(&n);
    }
  }
  if (live.size() < 3) {
    return;  // No meaningful ring neighbors.
  }
  std::sort(live.begin(), live.end(),
            [](const PastryNode* a, const PastryNode* b) { return a->id() < b->id(); });
  for (size_t i = 0; i < live.size(); ++i) {
    const PastryNode& node = *live[i];
    const PastryNode& succ = *live[(i + 1) % live.size()];
    const PastryNode& pred = *live[(i + live.size() - 1) % live.size()];
    if (!node.leaf_set().Contains(succ.id())) {
      Violate("leafset.ring_neighbor",
              "host " + std::to_string(node.host()) + " misses ring successor host " +
                  std::to_string(succ.host()));
    }
    if (!node.leaf_set().Contains(pred.id())) {
      Violate("leafset.ring_neighbor",
              "host " + std::to_string(node.host()) + " misses ring predecessor host " +
                  std::to_string(pred.host()));
    }
  }
}

}  // namespace totoro
