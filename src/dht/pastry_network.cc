#include "src/dht/pastry_network.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/obs/profiler.h"

namespace totoro {

PastryNetwork::PastryNetwork(Network* net, PastryConfig config) : net_(net), config_(config) {}

void PastryNetwork::Reserve(size_t num_nodes) {
  nodes_.reserve(num_nodes);
  by_host_.reserve(num_nodes);
  by_id_.reserve(num_nodes);
  net_->ReserveHosts(num_nodes);
}

size_t PastryNetwork::AddNode(NodeId id) {
  CHECK(by_id_.find(id) == by_id_.end());
  auto node = std::make_unique<PastryNode>(net_, id, config_);
  by_host_[node->host()] = node.get();
  by_id_[id] = node.get();
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

size_t PastryNetwork::AddRandomNode(Rng& rng) {
  NodeId id = RandomNodeId(rng);
  while (by_id_.find(id) != by_id_.end()) {
    id = RandomNodeId(rng);
  }
  return AddNode(id);
}

PastryNode* PastryNetwork::FindByHost(HostId host) {
  auto it = by_host_.find(host);
  return it == by_host_.end() ? nullptr : it->second;
}

PastryNode* PastryNetwork::FindById(const NodeId& id) {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

namespace {

// Positions per build chunk: bounds the chunk buffers (about 5 MB each at b=4 and 100k
// nodes) and sets the size at or below which the build runs inline.
constexpr size_t kBuildChunk = 2048;

// One routing-table slot's sampled candidates (sorted positions, in draw order) and,
// once evaluated, the proximity-closest of them.
struct SlotDraw {
  std::array<uint32_t, 4> cand{};
  uint32_t num_cand = 0;
  uint32_t best = 0;
  double best_prox = 0.0;
};

// Everything one chunk carries from its draw phase to its apply phase. Flat, and reused
// from chunk to chunk, so capacity stays at one chunk's worth.
struct ChunkBuffers {
  size_t begin = 0;  // First sorted position of the chunk.
  size_t end = 0;
  std::vector<SlotDraw> slots;
  std::vector<size_t> slot_end;  // Per position: one past its last slot.
  std::vector<double> leaf_prox;  // Per position: 2 * leaf_k proximities (cw, ccw) by k.
};

}  // namespace

void PastryNetwork::BuildOracle(Rng& rng) {
  ProfileScope profile("overlay_build");
  const size_t n = nodes_.size();
  CHECK_GT(n, 0u);
  CHECK_LE(n, static_cast<size_t>(UINT32_MAX));
  // Struct-of-arrays {id, host} table in ring (sorted-id) order; order[pos] maps back to
  // the node. Drawing and evaluating read only this table, never the node objects.
  std::vector<std::pair<NodeId, uint32_t>> by_id(n);
  for (size_t i = 0; i < n; ++i) {
    by_id[i] = {nodes_[i]->id(), static_cast<uint32_t>(i)};
  }
  std::sort(by_id.begin(), by_id.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<NodeId> ids(n);
  std::vector<HostId> hosts(n);
  std::vector<uint32_t> order(n);
  for (size_t pos = 0; pos < n; ++pos) {
    ids[pos] = by_id[pos].first;
    order[pos] = by_id[pos].second;
    hosts[pos] = nodes_[order[pos]]->host();
  }
  by_id = {};

  const int b = config_.bits_per_digit;
  const int digits = 128 / b;
  const uint32_t cols = 1u << b;
  // Rows beyond log_{2^b}(N)+2 have empty candidate intervals w.h.p.; skip them.
  const int max_rows =
      std::min(digits, static_cast<int>(std::ceil(std::log2(static_cast<double>(n)) / b)) + 2);
  const size_t leaf_k = std::min(static_cast<size_t>(config_.leaf_set_size) / 2, n - 1);
  const LatencyModel& latency = net_->latency_model();

  // Per-row cursor: the r-digit-prefix block holding the current position ends at
  // block_end[r], and its digit-c sub-block (the candidates for slot (r, c)) spans
  // starts[r][c] .. starts[r][c + 1]. A block is rescanned only when the sweep leaves
  // it, so each row costs one linear pass over the table.
  std::vector<uint32_t> block_end(static_cast<size_t>(max_rows), 0);
  std::vector<uint32_t> starts(static_cast<size_t>(max_rows) * (cols + 1));
  auto advance = [&](uint32_t pos) {
    int r = 0;
    while (r < max_rows && pos < block_end[static_cast<size_t>(r)]) {
      ++r;
    }
    for (; r < max_rows; ++r) {
      // The sweep left row r's previous block exactly at `pos`, so `pos` starts the new
      // one; it ends where pos's sub-block of row r - 1 ends.
      const uint32_t end =
          r == 0 ? static_cast<uint32_t>(n)
                 : starts[static_cast<size_t>(r - 1) * (cols + 1) + ids[pos].Digit(r - 1, b) + 1];
      block_end[static_cast<size_t>(r)] = end;
      uint32_t* row = &starts[static_cast<size_t>(r) * (cols + 1)];
      uint32_t i = pos;
      for (uint32_t c = 0; c < cols; ++c) {
        row[c] = i;
        while (i < end && ids[i].Digit(r, b) == c) {
          ++i;
        }
      }
      row[cols] = end;
    }
  };

  // Phase 1 (serial): draw every slot's candidates in the canonical order — position,
  // row, column, sample — so the RNG stream is independent of the thread count.
  auto draw = [&](size_t begin, ChunkBuffers& buf) {
    buf.begin = begin;
    buf.end = std::min(n, begin + kBuildChunk);
    buf.slots.clear();
    buf.slot_end.resize(buf.end - begin);
    buf.leaf_prox.resize((buf.end - begin) * 2 * leaf_k);
    for (size_t pos = begin; pos < buf.end; ++pos) {
      advance(static_cast<uint32_t>(pos));
      const NodeId& self = ids[pos];
      for (int r = 0; r < max_rows; ++r) {
        const uint32_t* row = &starts[static_cast<size_t>(r) * (cols + 1)];
        const uint32_t self_digit = self.Digit(r, b);
        for (uint32_t c = 0; c < cols; ++c) {
          const uint32_t count = row[c + 1] - row[c];
          if (c == self_digit || count == 0) {
            continue;
          }
          // Sample up to 4 candidates; the closest in network proximity wins (phase 2).
          SlotDraw slot;
          slot.num_cand = count == 1 ? 1 : 4;
          for (uint32_t s = 0; s < slot.num_cand; ++s) {
            slot.cand[s] =
                row[c] + (count == 1 ? 0 : static_cast<uint32_t>(rng.NextBelow(count)));
          }
          buf.slots.push_back(slot);
        }
      }
      buf.slot_end[pos - begin] = buf.slots.size();
    }
  };

  // Phase 2 (parallel): evaluate proximity — a pure function of the host pair — for the
  // leaf neighbours and the sampled candidates of positions [lo, hi). Each thread writes
  // only its own positions' outputs.
  auto evaluate = [&](ChunkBuffers& buf, size_t lo, size_t hi) {
    for (size_t pos = lo; pos < hi; ++pos) {
      const HostId self_host = hosts[pos];
      double* leaf = buf.leaf_prox.data() + (pos - buf.begin) * 2 * leaf_k;
      for (size_t k = 1; k <= leaf_k; ++k) {
        leaf[2 * (k - 1)] = latency.LatencyMs(self_host, hosts[(pos + k) % n]);
        leaf[2 * (k - 1) + 1] = latency.LatencyMs(self_host, hosts[(pos + n - k) % n]);
      }
      const size_t first_slot = pos == buf.begin ? 0 : buf.slot_end[pos - buf.begin - 1];
      for (size_t i = first_slot; i < buf.slot_end[pos - buf.begin]; ++i) {
        SlotDraw& slot = buf.slots[i];
        slot.best = slot.cand[0];
        slot.best_prox = latency.LatencyMs(self_host, hosts[slot.cand[0]]);
        for (uint32_t s = 1; s < slot.num_cand; ++s) {
          // A repeated draw ties its earlier copy, and ties keep the earlier winner.
          const auto cand = slot.cand.begin();
          if (std::find(cand, cand + s, slot.cand[s]) != cand + s) {
            continue;
          }
          const double prox = latency.LatencyMs(self_host, hosts[slot.cand[s]]);
          if (prox < slot.best_prox) {
            slot.best = slot.cand[s];
            slot.best_prox = prox;
          }
        }
      }
    }
  };

  // Phase 3 (serial): install state in the original order — each node's leaf neighbours
  // (clockwise then counter-clockwise, nearest first), then its routing slots row by row.
  auto apply = [&](const ChunkBuffers& buf) {
    for (size_t pos = buf.begin; pos < buf.end; ++pos) {
      PastryNode& node = *nodes_[order[pos]];
      const double* leaf = buf.leaf_prox.data() + (pos - buf.begin) * 2 * leaf_k;
      for (size_t k = 1; k <= leaf_k; ++k) {
        const size_t cw = (pos + k) % n;
        const size_t ccw = (pos + n - k) % n;
        node.Learn(RouteEntry{ids[cw], hosts[cw], leaf[2 * (k - 1)]});
        node.Learn(RouteEntry{ids[ccw], hosts[ccw], leaf[2 * (k - 1) + 1]});
      }
      const size_t first_slot = pos == buf.begin ? 0 : buf.slot_end[pos - buf.begin - 1];
      for (size_t i = first_slot; i < buf.slot_end[pos - buf.begin]; ++i) {
        const SlotDraw& slot = buf.slots[i];
        node.routing_table().Consider(
            RouteEntry{ids[slot.best], hosts[slot.best], slot.best_prox});
      }
    }
  };

  // Pipelined over two buffers: while worker threads evaluate chunk i, this thread
  // draws chunk i + 1 and then applies chunk i - 1. Draws and applies stay in chunk
  // order on this one thread, so the result is the inline build's, bit for bit. This
  // thread is busy throughout, so the evaluation gets the remaining cores; an overlay
  // of at most one chunk is evaluated inline.
  const size_t workers =
      n > kBuildChunk ? std::max<size_t>(2, std::thread::hardware_concurrency()) - 1 : 0;
  std::array<ChunkBuffers, 2> bufs;
  std::vector<std::jthread> evaluating;  // Joined before its buffer is applied.
  size_t chunk = 0;
  for (size_t begin = 0; begin < n; begin += kBuildChunk, ++chunk) {
    ChunkBuffers& buf = bufs[chunk % 2];
    draw(begin, buf);
    evaluating.clear();  // Joins the previous chunk's evaluation.
    if (workers == 0) {
      evaluate(buf, buf.begin, buf.end);
    }
    const size_t span = buf.end - buf.begin;
    for (size_t t = 0; t < workers; ++t) {
      evaluating.emplace_back(evaluate, std::ref(buf), buf.begin + span * t / workers,
                              buf.begin + span * (t + 1) / workers);
    }
    if (chunk > 0) {
      apply(bufs[(chunk - 1) % 2]);
    }
  }
  evaluating.clear();
  apply(bufs[(chunk - 1) % 2]);
}

void PastryNetwork::JoinAll() {
  CHECK_GT(nodes_.size(), 0u);
  // First node forms the overlay alone; the rest join through it (or a recent member).
  for (size_t i = 1; i < nodes_.size(); ++i) {
    const size_t bootstrap = i - 1;
    nodes_[i]->Join(nodes_[bootstrap]->host());
    net_->sim()->Run();
  }
}

std::vector<PastryNode*> PastryNetwork::FailRandomNodes(size_t count, Rng& rng) {
  std::vector<PastryNode*> live;
  for (const auto& node : nodes_) {
    if (node->alive()) {
      live.push_back(node.get());
    }
  }
  CHECK_LE(count, live.size());
  rng.Shuffle(live);
  live.resize(count);
  for (PastryNode* node : live) {
    net_->SetHostUp(node->host(), false);
  }
  return live;
}

void PastryNetwork::Heal(PastryNode& node) { net_->SetHostUp(node.host(), true); }

PastryNode* PastryNetwork::ClosestLiveNode(const NodeId& key) {
  PastryNode* best = nullptr;
  U128 best_dist = U128::Max();
  for (const auto& node : nodes_) {
    if (!node->alive()) {
      continue;
    }
    const U128 d = U128::RingDistance(node->id(), key);
    if (best == nullptr || d < best_dist || (d == best_dist && node->id() < best->id())) {
      best = node.get();
      best_dist = d;
    }
  }
  return best;
}

}  // namespace totoro
