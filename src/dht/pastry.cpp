#include "dht/pastry.hpp"

#include <algorithm>
#include <type_traits>

#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"

namespace spider::dht {

void PastryNetwork::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    m_routes_ = m_route_hops_ = nullptr;
    return;
  }
  m_routes_ = &metrics->counter("dht.routes");
  m_route_hops_ = &metrics->counter("dht.route_hops");
}

PastryNetwork::PastryNetwork(int leaf_set_size, int replication)
    : leaf_half_(leaf_set_size / 2), replication_(replication) {
  SPIDER_REQUIRE(leaf_set_size >= 2 && leaf_set_size % 2 == 0);
  SPIDER_REQUIRE(replication >= 1);
  SPIDER_REQUIRE_MSG(replication <= leaf_half_ + 1,
                     "replicas must fit in the leaf set");
}

PastryNetwork::Node& PastryNetwork::node(PeerId peer) {
  auto it = nodes_.find(peer);
  SPIDER_REQUIRE_MSG(it != nodes_.end(), "unknown peer");
  return it->second;
}

const PastryNetwork::Node& PastryNetwork::node(PeerId peer) const {
  auto it = nodes_.find(peer);
  SPIDER_REQUIRE_MSG(it != nodes_.end(), "unknown peer");
  return it->second;
}

PastryNetwork::Node& PastryNetwork::node_by_id(NodeId id) {
  auto it = ring_.find(id);
  SPIDER_REQUIRE_MSG(it != ring_.end(), "unknown node id");
  return node(it->second);
}

const PastryNetwork::Node& PastryNetwork::node_by_id(NodeId id) const {
  auto it = ring_.find(id);
  SPIDER_REQUIRE_MSG(it != ring_.end(), "unknown node id");
  return node(it->second);
}

bool PastryNetwork::alive_id(NodeId id) const {
  auto it = ring_.find(id);
  if (it == ring_.end()) return false;
  return node(it->second).alive;
}

void PastryNetwork::bootstrap(PeerId peer, NodeId id) {
  SPIDER_REQUIRE(nodes_.empty());
  SPIDER_REQUIRE(ring_.emplace(id, peer).second);
  nodes_.emplace(peer, Node(id, peer, leaf_half_));
  live_count_ = 1;
}

RouteResult PastryNetwork::join(PeerId peer, NodeId id, PeerId bootstrap_peer) {
  // A peer that failed earlier may rejoin under a fresh id; its stale ring
  // entry is dropped so lazy repair cannot resurrect the old identity.
  if (auto existing = nodes_.find(peer); existing != nodes_.end()) {
    SPIDER_REQUIRE_MSG(!existing->second.alive, "peer already joined");
    ring_.erase(existing->second.id);
    nodes_.erase(existing);
  }
  SPIDER_REQUIRE_MSG(ring_.find(id) == ring_.end(), "node id collision");
  SPIDER_REQUIRE(alive(bootstrap_peer));

  // Route the join message from the bootstrap node toward the new id; the
  // delivery node Z is numerically closest to it.
  RouteResult route_result = route(bootstrap_peer, id);
  SPIDER_REQUIRE(route_result.ok);

  ring_.emplace(id, peer);
  auto [it, inserted] = nodes_.emplace(peer, Node(id, peer, leaf_half_));
  SPIDER_REQUIRE(inserted);
  Node& x = it->second;
  ++live_count_;

  // Routing table: row i comes from the i-th node on the join path (its
  // row i entries share i digits with the new id as well); in practice we
  // offer every entry and let canonical placement sort them out.
  for (PeerId hop : route_result.path) {
    Node& h = node(hop);
    table_insert(x, h.id);
    x.leaves.insert(h.id);
    for (NodeId entry : h.table.entries()) {
      if (alive_id(entry)) table_insert(x, entry);
    }
  }
  // Leaf set: copied from Z (the numerically closest node) and adjusted.
  Node& z = node(route_result.target());
  for (NodeId member : z.leaves.members()) {
    if (alive_id(member)) {
      x.leaves.insert(member);
      table_insert(x, member);
    }
  }

  // Announce the new node to everyone it learned about (they add X), and
  // count one message per announcement.
  std::vector<NodeId> contacts = x.table.entries();
  for (NodeId member : x.leaves.members()) contacts.push_back(member);
  std::sort(contacts.begin(), contacts.end());
  contacts.erase(std::unique(contacts.begin(), contacts.end()), contacts.end());
  for (NodeId contact : contacts) {
    if (!alive_id(contact)) continue;
    introduce(node_by_id(contact), id);
    ++messages_;
  }

  // Key handoff: the new node may now be owner or replica for keys held by
  // its leaf-set neighborhood.
  for (NodeId member : x.leaves.members()) {
    if (!alive_id(member)) continue;
    Node& m = node_by_id(member);
    for (const auto& [key, values] : m.store) {
      // X takes a copy if it is among the replication_ closest ids to the
      // key within m's view.
      const unsigned __int128 dx = NodeId::ring_distance(id, key);
      int closer = 0;
      for (NodeId other : m.leaves.members()) {
        if (other != id && alive_id(other) &&
            NodeId::ring_distance(other, key) < dx) {
          ++closer;
        }
      }
      if (NodeId::ring_distance(m.id, key) < dx) ++closer;
      if (closer < replication_) {
        auto& mine = x.store[key];
        for (const std::string& v : values) append_unique(mine, v);
        ++messages_;
      }
    }
  }
  return route_result;
}

void PastryNetwork::bulk_fill_node(
    Node& x, const std::vector<std::pair<NodeId, PeerId>>& entries,
    std::size_t index, std::size_t candidate_budget) {
  const std::size_t n = entries.size();

  // Leaf set: ascending sorted ids are clockwise ring order, so the
  // canonical members are the nearest `leaf_half_` indices on each side
  // (mod n). LeafSet::insert places every candidate on whichever sides it
  // belongs to, so feeding it exactly this union yields the exact
  // half-closest per side.
  const std::size_t span =
      std::min<std::size_t>(std::size_t(leaf_half_), n - 1);
  for (std::size_t s = 1; s <= span; ++s) {
    x.leaves.insert(entries[(index + s) % n].first);
    x.leaves.insert(entries[(index + n - s) % n].first);
  }

  // Routing table: walk the prefix rows. At row r, [lo, hi) spans the ids
  // sharing the first r digits with x (ids there sort by digit r), so
  // every sibling digit's candidates form a contiguous subrange found by
  // binary search. Cell choice is the proximity-argmin over a bounded
  // candidate window — prefix-correctness doesn't care which candidate
  // wins, the budget only caps per-cell work at scale.
  const auto begin = entries.begin();
  std::size_t lo = 0, hi = n;
  for (int row = 0; row < kDigitsPerId && hi - lo > 1; ++row) {
    const int self_digit = x.id.digit(row);
    std::size_t next_lo = lo, next_hi = lo;
    for (int c = 0; c < kDigitRadix; ++c) {
      const auto first = std::lower_bound(
          begin + long(lo), begin + long(hi), c,
          [row](const std::pair<NodeId, PeerId>& e, int digit) {
            return e.first.digit(row) < digit;
          });
      const auto last = std::lower_bound(
          first, begin + long(hi), c + 1,
          [row](const std::pair<NodeId, PeerId>& e, int digit) {
            return e.first.digit(row) < digit;
          });
      if (c == self_digit) {
        next_lo = std::size_t(first - begin);
        next_hi = std::size_t(last - begin);
        continue;
      }
      if (first == last) continue;
      std::size_t cand_lo = std::size_t(first - begin);
      std::size_t cand_hi = std::size_t(last - begin);
      if (candidate_budget > 0 && cand_hi - cand_lo > candidate_budget) {
        // Keep the window numerically closest to x: the whole subrange
        // sits on one side of x's id (it differs at digit `row`).
        if (c < self_digit) {
          cand_lo = cand_hi - candidate_budget;
        } else {
          cand_hi = cand_lo + candidate_budget;
        }
      }
      NodeId best = entries[cand_lo].first;
      if (proximity_fn_) {
        double best_d = proximity_fn_(x.peer, entries[cand_lo].second);
        for (std::size_t j = cand_lo + 1; j < cand_hi; ++j) {
          const double d = proximity_fn_(x.peer, entries[j].second);
          if (d < best_d) {
            best_d = d;
            best = entries[j].first;
          }
        }
      }
      x.table.insert(best);
    }
    lo = next_lo;
    hi = next_hi;
  }
}

void PastryNetwork::bulk_load(
    const std::vector<std::pair<NodeId, PeerId>>& entries, std::size_t jobs,
    std::size_t candidate_budget) {
  SPIDER_REQUIRE_MSG(nodes_.empty(), "bulk_load needs an empty network");
  const std::size_t n = entries.size();
  SPIDER_REQUIRE(n >= 1);
  for (std::size_t i = 1; i < n; ++i) {
    SPIDER_REQUIRE_MSG(entries[i - 1].first < entries[i].first,
                       "bulk_load ids must be sorted and distinct");
  }
  // Serial membership pass: node storage must not rehash while workers
  // hold pointers, so all nodes exist before any fill starts.
  std::vector<Node*> slot(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [id, peer] = entries[i];
    ring_.emplace_hint(ring_.end(), id, peer);
    auto [it, inserted] = nodes_.emplace(peer, Node(id, peer, leaf_half_));
    SPIDER_REQUIRE_MSG(inserted, "duplicate peer in bulk_load");
    slot[i] = &it->second;
  }
  live_count_ = n;
  // Per-node fill: each worker writes only its own node and reads the
  // shared sorted array, so the result is identical at any job count.
  util::parallel_for_each(jobs, n, [&](std::size_t i) {
    bulk_fill_node(*slot[i], entries, i, candidate_budget);
  });
}

void PastryNetwork::leave(PeerId peer) {
  Node& n = node(peer);
  SPIDER_REQUIRE(n.alive);
  // Hand stored keys to the ring successor (which re-replicates lazily via
  // refresh_replicas).
  std::optional<NodeId> succ = n.leaves.successor();
  if (succ.has_value() && alive_id(*succ)) {
    Node& s = node_by_id(*succ);
    for (const auto& [key, values] : n.store) {
      auto& theirs = s.store[key];
      for (const std::string& v : values) append_unique(theirs, v);
      ++messages_;
    }
  }
  n.store.clear();
  n.alive = false;
  --live_count_;
  // Notify contacts so they do not need lazy repair.
  for (NodeId member : n.leaves.members()) {
    if (alive_id(member)) {
      expel(node_by_id(member), n.id);
      ++messages_;
    }
  }
  for (NodeId entry : n.table.entries()) {
    if (alive_id(entry)) {
      expel(node_by_id(entry), n.id);
      ++messages_;
    }
  }
}

void PastryNetwork::fail(PeerId peer) {
  Node& n = node(peer);
  SPIDER_REQUIRE(n.alive);
  n.alive = false;
  n.store.clear();
  --live_count_;
  // Nobody is notified: survivors discover the failure lazily.
}

bool PastryNetwork::alive(PeerId peer) const {
  auto it = nodes_.find(peer);
  return it != nodes_.end() && it->second.alive;
}

NodeId PastryNetwork::id_of(PeerId peer) const { return node(peer).id; }

std::optional<PeerId> PastryNetwork::peer_of(NodeId id) const {
  auto it = ring_.find(id);
  if (it == ring_.end()) return std::nullopt;
  return it->second;
}

template <class Self, class N>
std::optional<NodeId> PastryNetwork::next_hop(Self& self, N& cur, NodeId key) {
  constexpr bool kRepair = !std::is_const_v<Self>;  // route(), not _readonly
  if (cur.id == key) return std::nullopt;

  // (1) Leaf-set delivery: if the key is within the leaf set span, the
  // closest member (or self) is the destination / next hop.
  if (cur.leaves.covers(key)) {
    for (;;) {
      const NodeId best = cur.leaves.closest(key);
      if (best == cur.id) break;
      if (self.alive_id(best)) return best;
      if constexpr (!kRepair) {
        break;
      } else {
        cur.leaves.remove(best);  // lazy repair
        cur.table.remove(best);
        self.repair_leafset(cur);
      }
    }
    // Self looks closest per the leaf set — but after heavy churn the
    // leaf set may be thin/stale. Forward to any known strictly-closer
    // live node before accepting delivery.
    const unsigned __int128 self_dist = NodeId::ring_distance(cur.id, key);
    std::optional<NodeId> closer;
    unsigned __int128 closer_dist = self_dist;
    for (NodeId entry : cur.table.entries()) {
      if (!self.alive_id(entry)) continue;
      const unsigned __int128 d = NodeId::ring_distance(entry, key);
      if (d < closer_dist) {
        closer = entry;
        closer_dist = d;
      }
    }
    return closer;  // nullopt -> deliver here
  }

  // (2) Prefix routing.
  const int row = cur.id.shared_prefix(key);
  if (auto entry = cur.table.next_hop(key); entry.has_value()) {
    if (self.alive_id(*entry)) return *entry;
    if constexpr (kRepair) {
      cur.table.remove(*entry);  // lazy repair
      cur.leaves.remove(*entry);
    }
  }

  // (3) Rare case: forward to any known live node that shares at least as
  // long a prefix and is strictly closer to the key.
  const unsigned __int128 self_dist = NodeId::ring_distance(cur.id, key);
  std::optional<NodeId> fallback;
  unsigned __int128 fallback_dist = self_dist;
  auto consider = [&](NodeId candidate) {
    if (!self.alive_id(candidate)) return;
    if (candidate.shared_prefix(key) < row) return;
    const unsigned __int128 d = NodeId::ring_distance(candidate, key);
    if (d < fallback_dist) {
      fallback = candidate;
      fallback_dist = d;
    }
  };
  for (NodeId member : cur.leaves.members()) consider(member);
  for (NodeId entry : cur.table.entries()) consider(entry);
  return fallback;  // nullopt -> deliver here (best effort)
}

template <class Self>
RouteResult PastryNetwork::walk(Self& self, PeerId from, NodeId key) {
  RouteResult result;
  SPIDER_REQUIRE(self.alive(from));
  result.path.push_back(from);
  auto* cur = &self.node(from);
  for (int guard = 0; guard < 2 * kDigitsPerId + int(self.leaf_half_) * 4;
       ++guard) {
    std::optional<NodeId> nxt = next_hop(self, *cur, key);
    if (!nxt.has_value()) break;
    cur = &self.node_by_id(*nxt);
    result.path.push_back(cur->peer);
  }
  // If the loop guard tripped, deliver best effort at the current node.
  result.ok = true;
  return result;
}

RouteResult PastryNetwork::route_readonly(PeerId from, NodeId key) const {
  return walk(*this, from, key);
}

RouteResult PastryNetwork::route(PeerId from, NodeId key) {
  RouteResult result = walk(*this, from, key);
  count_route(result);
  return result;
}

void PastryNetwork::count_route(const RouteResult& route) {
  messages_ += route.hops();
  if (m_routes_ != nullptr) {
    m_routes_->inc();
    m_route_hops_->inc(route.hops());
  }
}

void PastryNetwork::bulk_put(const std::vector<BulkPutItem>& items,
                             std::size_t jobs) {
  SPIDER_REQUIRE_MSG(live_count_ == nodes_.size(),
                     "bulk_put requires an all-live network");
  std::vector<RouteResult> routes(items.size());
  util::parallel_for_each(jobs, items.size(), [&](std::size_t i) {
    routes[i] = route_readonly(items[i].from, items[i].key);
  });
  // Serial application in item order replays what sequential put() calls
  // would have done, message/metric accounting included.
  for (std::size_t i = 0; i < items.size(); ++i) {
    const RouteResult& r = routes[i];
    count_route(r);
    if (r.ok) store_at_replicas(node(r.target()), items[i].key, items[i].value);
  }
}

void PastryNetwork::append_unique(std::vector<std::string>& list,
                                  const std::string& value) {
  if (std::find(list.begin(), list.end(), value) == list.end()) {
    list.push_back(value);
  }
}

void PastryNetwork::store_at_replicas(Node& owner, NodeId key,
                                      const std::string& value) {
  append_unique(owner.store[key], value);
  // Replicate to the owner's closest leaf-set members (ring neighbors).
  std::vector<NodeId> members = owner.leaves.members();
  std::sort(members.begin(), members.end(), [&](NodeId a, NodeId b) {
    return NodeId::ring_distance(a, owner.id) <
           NodeId::ring_distance(b, owner.id);
  });
  int placed = 1;
  for (NodeId member : members) {
    if (placed >= replication_) break;
    if (!alive_id(member)) continue;
    append_unique(node_by_id(member).store[key], value);
    ++messages_;
    ++placed;
  }
}

RouteResult PastryNetwork::put(PeerId from, NodeId key,
                               const std::string& value) {
  RouteResult r = route(from, key);
  if (r.ok) store_at_replicas(node(r.target()), key, value);
  return r;
}

GetResult PastryNetwork::get(PeerId from, NodeId key) {
  GetResult result;
  RouteResult r = route(from, key);
  result.path = std::move(r.path);
  if (!r.ok) return result;
  Node& owner = node(result.path.back());
  if (auto it = owner.store.find(key); it != owner.store.end()) {
    result.values = it->second;
    result.found = true;
    return result;
  }
  // Replica fallback: one extra hop to a leaf-set member holding the key.
  for (NodeId member : owner.leaves.members()) {
    if (!alive_id(member)) continue;
    Node& m = node_by_id(member);
    ++messages_;
    if (auto it = m.store.find(key); it != m.store.end()) {
      result.path.push_back(m.peer);
      result.values = it->second;
      result.found = true;
      return result;
    }
  }
  return result;
}

void PastryNetwork::erase(NodeId key, const std::string& value) {
  for (auto& [peer, n] : nodes_) {
    if (!n.alive) continue;
    auto it = n.store.find(key);
    if (it == n.store.end()) continue;
    auto& list = it->second;
    list.erase(std::remove(list.begin(), list.end(), value), list.end());
    if (list.empty()) n.store.erase(it);
  }
}

void PastryNetwork::refresh_replicas() {
  // Gather (key, value, holder) snapshots, then re-place each value at the
  // current owner + successors per protocol routing from the holder.
  struct Item {
    PeerId holder;
    NodeId key;
    std::string value;
  };
  std::vector<Item> items;
  for (auto& [peer, n] : nodes_) {
    if (!n.alive) continue;
    for (auto& [key, values] : n.store) {
      for (const std::string& v : values) items.push_back({peer, key, v});
    }
  }
  for (auto& [peer, n] : nodes_) {
    if (n.alive) n.store.clear();
  }
  for (const Item& item : items) {
    if (!alive(item.holder)) continue;
    put(item.holder, item.key, item.value);
  }
}

void PastryNetwork::stabilize(int rounds) {
  for (int round = 0; round < rounds; ++round) {
    for (auto& [peer, n] : nodes_) {
      if (!n.alive) continue;
      repair_leafset(n);
      // When an entire leaf-set side fails at once, the surviving members
      // all sit on the other side and member gossip cannot rediscover the
      // lost neighborhood. Pastry's prescription: recruit replacements
      // through routing table entries, whose prefix structure spans the
      // whole ring.
      for (NodeId entry : n.table.entries()) {
        if (!alive_id(entry)) {
          n.table.remove(entry);
          continue;
        }
        ++messages_;
        Node& e = node_by_id(entry);
        n.leaves.insert(entry);
        for (NodeId candidate : e.leaves.members()) {
          if (candidate != n.id && alive_id(candidate)) {
            n.leaves.insert(candidate);
            table_insert(n, candidate);
          }
        }
        e.leaves.insert(n.id);
        table_insert(e, n.id);
      }
    }
  }
}

PeerId PastryNetwork::owner_oracle(NodeId key) const {
  PeerId best = overlay::kInvalidPeer;
  unsigned __int128 best_d = 0;
  bool first = true;
  for (const auto& [id, peer] : ring_) {
    const Node& n = node(peer);
    if (!n.alive) continue;
    const unsigned __int128 d = NodeId::ring_distance(id, key);
    if (first || d < best_d) {
      best = peer;
      best_d = d;
      first = false;
    }
  }
  return best;
}

void PastryNetwork::table_insert(Node& target, NodeId who) {
  if (target.table.insert(who)) return;  // empty cell: stored
  if (!proximity_fn_ || who == target.id) return;
  // Contested cell: Pastry's locality heuristic keeps the closer entry.
  const int row = target.id.shared_prefix(who);
  if (row >= kDigitsPerId) return;
  const auto incumbent = target.table.at(row, who.digit(row));
  if (!incumbent.has_value() || *incumbent == who) return;
  const auto incumbent_peer = peer_of(*incumbent);
  const auto who_peer = peer_of(who);
  if (!incumbent_peer.has_value() || !who_peer.has_value()) return;
  if (proximity_fn_(target.peer, *who_peer) <
      proximity_fn_(target.peer, *incumbent_peer)) {
    target.table.insert(who, /*prefer=*/true);
  }
}

void PastryNetwork::introduce(Node& target, NodeId who) {
  target.leaves.insert(who);
  table_insert(target, who);
}

void PastryNetwork::expel(Node& target, NodeId who) {
  target.leaves.remove(who);
  target.table.remove(who);
  repair_leafset(target);
}

void PastryNetwork::repair_leafset(Node& n) {
  // Push-pull with surviving members: pull their members as replacement
  // candidates and push ourselves into their state (a one-sided exchange
  // leaves asymmetric knowledge gaps after correlated failures).
  std::vector<NodeId> members = n.leaves.members();
  for (NodeId member : members) {
    if (!alive_id(member)) {
      n.leaves.remove(member);
      continue;
    }
    ++messages_;
    Node& m = node_by_id(member);
    for (NodeId candidate : m.leaves.members()) {
      if (candidate != n.id && alive_id(candidate)) {
        n.leaves.insert(candidate);
        table_insert(n, candidate);
      }
    }
    m.leaves.insert(n.id);
    table_insert(m, n.id);
  }
}

const LeafSet& PastryNetwork::leaf_set(PeerId peer) const {
  return node(peer).leaves;
}

const RoutingTable& PastryNetwork::routing_table(PeerId peer) const {
  return node(peer).table;
}

}  // namespace spider::dht
