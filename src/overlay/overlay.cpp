#include "overlay/overlay.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>

#include "util/parallel.hpp"
#include "util/require.hpp"

namespace spider::overlay {
namespace {

using SeenSet = std::unordered_set<PeerPairKey, PeerPairKeyHash>;

/// Random k-neighbor wiring shared by every builder. The rejection loop
/// draws exactly the sequence the legacy code drew; when it exhausts its
/// collision guard (dense small worlds) it no longer silently
/// under-provisions the peer — a deterministic scan of unused partners
/// (no RNG) tops the degree up, and only a peer already adjacent to
/// every other peer counts as underwired.
template <typename AddLink>
void wire_random(std::size_t n, std::size_t degree, Rng& rng,
                 const SeenSet& seen, AddLink&& add_link,
                 std::size_t* underwired_peers) {
  for (PeerId p = 0; p < n; ++p) {
    std::size_t added = 0, guard = 0;
    while (added < degree && guard++ < degree * 64 + 16) {
      const auto q = PeerId(rng.next_below(n));
      if (q == p || seen.count(PeerPairKey(p, q)) > 0) continue;
      add_link(p, q);
      ++added;
    }
    if (added >= degree) continue;
    for (std::size_t step = 1; step < n && added < degree; ++step) {
      const auto q = PeerId((p + step) % n);
      if (seen.count(PeerPairKey(p, q)) > 0) continue;
      add_link(p, q);
      ++added;
    }
    if (added < degree) ++*underwired_peers;
  }
}

/// Connectivity ring over a random permutation: pure nearest-neighbor
/// meshes can fragment into proximity cliques, and real topology-aware
/// meshes blend in long links for exactly this reason [20].
template <typename AddLink>
void add_connectivity_ring(std::size_t n, Rng& rng, AddLink&& add_link) {
  std::vector<PeerId> order(n);
  for (PeerId p = 0; p < n; ++p) order[p] = p;
  rng.shuffle(order);
  for (std::size_t i = 0; i < n; ++i) {
    add_link(order[i], order[(i + 1) % n]);
  }
}

}  // namespace

OverlayNetwork OverlayNetwork::from_topology(const net::Topology& topo,
                                             net::Router& router,
                                             std::vector<net::NodeIdx> peer_nodes,
                                             OverlayKind kind,
                                             std::size_t degree, Rng& rng,
                                             std::size_t jobs) {
  SPIDER_REQUIRE(peer_nodes.size() >= 2);
  SPIDER_REQUIRE(degree >= 1);
  for (net::NodeIdx node : peer_nodes) {
    SPIDER_REQUIRE(node < topo.node_count());
  }
  const std::size_t n = peer_nodes.size();

  OverlayNetwork net;
  net.peer_node_ = std::move(peer_nodes);
  const std::vector<net::NodeIdx>& node_of = net.peer_node_;

  // Every random choice comes first, in a fixed RNG order: random
  // partners, then the ring permutation (the mesh draws nothing). A link
  // a-b is priced from a's search, so partners[a] lists the b's of a's
  // random links.
  std::vector<std::vector<PeerId>> partners(n);
  if (kind == OverlayKind::kRandom) {
    SeenSet drawn;
    wire_random(
        n, degree, rng, drawn,
        [&](PeerId a, PeerId b) {
          drawn.insert(PeerPairKey(a, b));
          partners[a].push_back(b);
        },
        &net.underwired_peers_);
  }
  std::vector<std::pair<PeerId, PeerId>> ring;
  ring.reserve(n);
  add_connectivity_ring(n, rng,
                        [&](PeerId a, PeerId b) { ring.emplace_back(a, b); });
  std::vector<PeerId> ring_next(n);
  for (const auto& [a, b] : ring) ring_next[a] = b;

  // Topology-aware mesh: each peer links to its `degree` nearest peers by
  // IP delay, ties to the lower peer index. Peers are bucketed by IP node
  // so a search collects candidates as it settles their hosts.
  const std::size_t mesh_k =
      kind == OverlayKind::kNearestMesh ? std::min(degree, n - 1) : 0;
  std::vector<std::uint32_t> hosted_from(topo.node_count() + 1, 0);
  for (net::NodeIdx node : node_of) ++hosted_from[node + 1];
  for (std::size_t i = 1; i < hosted_from.size(); ++i) {
    hosted_from[i] += hosted_from[i - 1];
  }
  std::vector<PeerId> hosted(n);
  std::vector<std::uint32_t> cursor(hosted_from.begin(), hosted_from.end() - 1);
  for (PeerId q = 0; q < n; ++q) hosted[cursor[node_of[q]]++] = q;

  // One IP search per peer, stopped once its targets are settled: its ring
  // successor, its random partners, or its `mesh_k` nearest peer hosts and
  // every node tied with the last of them. A stopped search settles a
  // prefix of the full tree's settle order, so every price is the full
  // tree's. Each search writes only its own slot.
  struct Slot {
    std::vector<std::pair<PeerId, net::PathMetrics>> links;  // link order
    net::PathMetrics ring;
    std::size_t settled = 0;
  };
  std::vector<Slot> slots(n);
  util::parallel_for_each(jobs, n, [&](std::size_t pi) {
    const PeerId p = PeerId(pi);
    std::vector<net::NodeIdx> targets{node_of[ring_next[p]]};
    for (PeerId q : partners[p]) targets.push_back(node_of[q]);
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    std::size_t pending = targets.size();
    std::vector<std::pair<double, PeerId>> nearest;  // (delay, peer)
    double kth = std::numeric_limits<double>::infinity();
    bool mesh_done = mesh_k == 0;
    const net::SingleSourcePaths paths =
        router.search(node_of[p], [&](net::NodeIdx u, double d) {
          if (!mesh_done) {
            if (d > kth) {
              mesh_done = true;  // every node tied with the k-th is in
            } else {
              for (std::uint32_t i = hosted_from[u]; i < hosted_from[u + 1];
                   ++i) {
                if (hosted[i] != p) nearest.emplace_back(d, hosted[i]);
              }
              if (nearest.size() >= mesh_k) kth = d;
            }
          }
          if (std::binary_search(targets.begin(), targets.end(), u)) {
            --pending;
          }
          return mesh_done && pending == 0;
        });
    Slot& slot = slots[pi];
    slot.settled = paths.settled();
    const std::size_t k = std::min(mesh_k, nearest.size());
    std::partial_sort(nearest.begin(), nearest.begin() + long(k),
                      nearest.end());
    nearest.resize(k);
    for (PeerId q : partners[p]) {
      slot.links.emplace_back(q, paths.metrics_to(node_of[q]));
    }
    for (const auto& [d, q] : nearest) {
      slot.links.emplace_back(q, paths.metrics_to(node_of[q]));
    }
    slot.ring = paths.metrics_to(node_of[ring_next[p]]);
  });

  // Serial merge: each peer's links in peer order, then the ring,
  // deduplicated through one seen set. The link order is part of the
  // output, so it does not depend on `jobs`.
  SeenSet seen;
  auto add_link = [&](PeerId a, PeerId b, const net::PathMetrics& m) {
    if (!seen.insert(PeerPairKey(a, b)).second) return;
    SPIDER_REQUIRE_MSG(m.reachable(), "IP topology must be connected");
    net.links_.push_back(OverlayLink{a, b, m.delay_ms, m.bottleneck_kbps,
                                     std::max<std::uint32_t>(m.hops, 1)});
  };
  std::uint64_t settled = 0;
  for (PeerId p = 0; p < n; ++p) {
    // A search that ran out of reachable peers before its k-th nearest.
    SPIDER_REQUIRE_MSG(slots[p].links.size() >= mesh_k,
                       "IP topology must be connected");
    for (const auto& [q, m] : slots[p].links) add_link(p, q, m);
    settled += slots[p].settled;
  }
  for (const auto& [a, b] : ring) add_link(a, b, slots[a].ring);
  router.count_searches(n, settled);

  net.build_adjacency();
  return net;
}

OverlayNetwork OverlayNetwork::from_topology_estimated(
    const net::Topology& topo, std::vector<net::NodeIdx> peer_nodes,
    OverlayKind kind, std::size_t degree, Rng& rng,
    std::size_t landmark_count, std::size_t jobs) {
  SPIDER_REQUIRE(peer_nodes.size() >= 2);
  SPIDER_REQUIRE(degree >= 1);
  SPIDER_REQUIRE(landmark_count >= 1);
  for (net::NodeIdx node : peer_nodes) {
    SPIDER_REQUIRE(node < topo.node_count());
  }
  const std::size_t n = peer_nodes.size();

  OverlayNetwork net;
  net.peer_node_ = std::move(peer_nodes);
  const net::LandmarkTable table =
      net::build_ip_landmarks(topo, net.peer_node_, landmark_count, jobs);

  SeenSet seen;
  auto add_link = [&](PeerId a, PeerId b) {
    if (a == b) return;
    if (!seen.insert(PeerPairKey(a, b)).second) return;
    // Metrics of the real a -> landmark -> b path realizing the
    // triangulation upper bound: admissible delay, real bottleneck.
    const net::PathMetrics m = table.through_metrics(a, b);
    SPIDER_REQUIRE_MSG(m.reachable(), "IP topology must be connected");
    net.links_.push_back(OverlayLink{a, b, m.delay_ms, m.bottleneck_kbps,
                                     std::max<std::uint32_t>(m.hops, 1)});
  };

  if (kind == OverlayKind::kNearestMesh) {
    // Sharded proximity mesh: peers bucket by their nearest landmark and
    // sort within the bucket by distance to it; each peer ranks only a
    // small window of its sorted neighborhood by the full triangulation
    // estimate and links to the best `degree`. O(n·degree·k) total — no
    // per-peer full scan, no per-peer Dijkstra. Every per-peer step
    // (bucket assignment, window ranking, link pricing) writes its own
    // pre-sized slot, so the worker fan-out below is order-free; only the
    // final seen-set merge is serial, and it runs in slot order.
    struct Slot {
      std::uint32_t bucket = 0;
      double dist = 0.0;
      PeerId peer = 0;
    };
    std::vector<Slot> slots(n);
    util::parallel_for_each(jobs, n, [&](std::size_t pi) {
      const PeerId p = PeerId(pi);
      std::uint32_t best_l = 0;
      double best = table.landmark_delay_ms(0, p);
      for (std::size_t l = 1; l < table.landmark_count(); ++l) {
        const double d = table.landmark_delay_ms(l, p);
        if (d < best) {
          best = d;
          best_l = std::uint32_t(l);
        }
      }
      slots[pi] = Slot{best_l, best, p};
    });
    std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
      if (a.bucket != b.bucket) return a.bucket < b.bucket;
      if (a.dist != b.dist) return a.dist < b.dist;
      return a.peer < b.peer;
    });
    // Window over the global bucket-major order (not clamped to bucket
    // boundaries): tiny buckets then borrow candidates from adjacent
    // buckets instead of starving a peer below its degree. Ranking and
    // through-landmark pricing are pure table reads, so each position
    // selects and prices its links concurrently.
    const std::size_t window = degree + 8;
    struct Pick {
      PeerId peer;
      net::PathMetrics metrics;
    };
    std::vector<std::vector<Pick>> picks(n);
    util::parallel_for_each(jobs, n, [&](std::size_t i) {
      const PeerId p = slots[i].peer;
      std::vector<std::pair<double, PeerId>> ranked;
      const std::size_t from = i > window ? i - window : 0;
      const std::size_t to = std::min(n, i + window + 1);
      for (std::size_t j = from; j < to; ++j) {
        if (j == i) continue;
        const PeerId q = slots[j].peer;
        ranked.emplace_back(table.estimate_ms(p, q), q);
      }
      const std::size_t k = std::min(degree, ranked.size());
      std::partial_sort(ranked.begin(), ranked.begin() + long(k),
                        ranked.end());
      picks[i].reserve(k);
      for (std::size_t j = 0; j < k; ++j) {
        picks[i].push_back(
            Pick{ranked[j].second, table.through_metrics(p, ranked[j].second)});
      }
    });
    // Serial merge in slot order: dedup against the seen set and append —
    // identical link order to the all-serial loop (pricing is pure, so
    // pre-pricing deduped picks changes nothing but wasted work).
    for (std::size_t i = 0; i < n; ++i) {
      const PeerId p = slots[i].peer;
      for (const Pick& pick : picks[i]) {
        if (p == pick.peer) continue;
        if (!seen.insert(PeerPairKey(p, pick.peer)).second) continue;
        const net::PathMetrics& m = pick.metrics;
        SPIDER_REQUIRE_MSG(m.reachable(), "IP topology must be connected");
        net.links_.push_back(OverlayLink{p, pick.peer, m.delay_ms,
                                         m.bottleneck_kbps,
                                         std::max<std::uint32_t>(m.hops, 1)});
      }
    }
  } else {
    wire_random(n, degree, rng, seen, add_link, &net.underwired_peers_);
  }
  add_connectivity_ring(n, rng, add_link);

  net.build_adjacency();
  return net;
}

OverlayNetwork OverlayNetwork::from_planetlab(const net::PlanetLabModel& model,
                                              OverlayKind kind,
                                              std::size_t degree, Rng& rng) {
  const std::size_t n = model.host_count();
  SPIDER_REQUIRE(n >= 2);
  OverlayNetwork net;
  net.peer_node_.resize(n);
  for (std::size_t i = 0; i < n; ++i) net.peer_node_[i] = net::NodeIdx(i);

  SeenSet seen;
  auto add_link = [&](PeerId a, PeerId b) {
    if (a == b) return;
    if (!seen.insert(PeerPairKey(a, b)).second) return;
    net.links_.push_back(OverlayLink{a, b, model.delay_ms(a, b),
                                     model.bandwidth_kbps(), 1});
  };

  if (kind == OverlayKind::kNearestMesh) {
    for (PeerId p = 0; p < n; ++p) {
      std::vector<std::pair<double, PeerId>> by_delay;
      for (PeerId q = 0; q < n; ++q) {
        if (q != p) by_delay.emplace_back(model.delay_ms(p, q), q);
      }
      const std::size_t k = std::min(degree, by_delay.size());
      std::partial_sort(by_delay.begin(), by_delay.begin() + long(k),
                        by_delay.end());
      for (std::size_t i = 0; i < k; ++i) add_link(p, by_delay[i].second);
    }
  } else {
    wire_random(n, degree, rng, seen, add_link, &net.underwired_peers_);
  }
  add_connectivity_ring(n, rng, add_link);

  net.build_adjacency();
  return net;
}

void OverlayNetwork::build_adjacency() {
  const std::size_t n = peer_node_.size();
  offsets_.assign(n + 1, 0);
  for (const OverlayLink& l : links_) {
    ++offsets_[l.a + 1];
    ++offsets_[l.b + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) offsets_[i] += offsets_[i - 1];
  adj_.resize(links_.size() * 2);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (OverlayLinkId li = 0; li < links_.size(); ++li) {
    const OverlayLink& l = links_[li];
    adj_[cursor[l.a]++] = OverlayAdjacency{l.b, li, l.delay_ms};
    adj_[cursor[l.b]++] = OverlayAdjacency{l.a, li, l.delay_ms};
  }
  alive_.assign(n, true);
  live_count_ = n;
  // A route is a simple path, so its computed delay stays below twice the
  // sum of all delays; a delay above that bound's rounding unit lengthens
  // every route it extends.
  double total_ms = 0.0;
  double least_ms = std::numeric_limits<double>::infinity();
  for (const OverlayLink& l : links_) {
    total_ms += l.delay_ms;
    least_ms = std::min(least_ms, l.delay_ms);
  }
  trees_repairable_ =
      least_ms > 2.0 * total_ms * std::numeric_limits<double>::epsilon();
}

std::span<const OverlayAdjacency> OverlayNetwork::neighbors(PeerId p) const {
  SPIDER_REQUIRE(p < peer_node_.size());
  return std::span<const OverlayAdjacency>(adj_.data() + offsets_[p],
                                           offsets_[p + 1] - offsets_[p]);
}

bool OverlayNetwork::are_neighbors(PeerId a, PeerId b,
                                   double* out_delay) const {
  for (const OverlayAdjacency& adj : neighbors(a)) {
    if (adj.neighbor == b) {
      if (out_delay != nullptr) *out_delay = adj.delay_ms;
      return true;
    }
  }
  return false;
}

double OverlayNetwork::mean_neighbor_delay(PeerId p) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (const OverlayAdjacency& adj : neighbors(p)) {
    if (!alive_[adj.neighbor]) continue;
    sum += adj.delay_ms;
    ++count;
  }
  return count == 0 ? 0.0 : sum / double(count);
}

void OverlayNetwork::set_alive(PeerId p, bool alive) {
  SPIDER_REQUIRE(p < alive_.size());
  if (alive_[p] == alive) return;
  alive_[p] = alive;
  live_count_ += alive ? 1 : std::size_t(-1);
  tree_cache_.erase(p);  // recomputed, and counted, on its next use
  if (trees_repairable_) {
    tree_cache_.for_each([&](PeerId, RouteTree& tree) {
      nodes_settled_ +=
          alive ? net::repair_after_insertion(tree, p, live_edges())
                : net::repair_after_deletion(tree, p, kInvalidOverlayLink,
                                             live_edges());
    });
  } else {
    tree_cache_.clear();
  }
  path_cache_.clear();
  ++route_cache_clears_;  // every outstanding OverlayPathRef is now invalid
}

OverlayNetwork::RouteTree OverlayNetwork::compute_tree(PeerId src) const {
  if (!alive_[src]) return RouteTree(src, peer_count(), kInvalidOverlayLink);
  return net::shortest_path_tree(peer_count(), src, kInvalidOverlayLink,
                                 live_edges());
}

OverlayPath OverlayNetwork::materialize(PeerId dst,
                                        const RouteTree& tree) const {
  OverlayPath path;
  if (!tree.reachable(dst)) return path;
  path.valid = true;
  path.delay_ms = tree.dist[dst];
  tree.walk(dst, [&](OverlayLinkId li, PeerId cur) {
    path.links.push_back(li);
    path.capacity_kbps = std::min(path.capacity_kbps, links_[li].capacity_kbps);
    return links_[li].other(cur);
  });
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

OverlayPathRef OverlayNetwork::route(PeerId src, PeerId dst) {
  SPIDER_REQUIRE(src < peer_count() && dst < peer_count());
  // Tree eviction does not invalidate handles (materialized paths own
  // their data); a path eviction bumps route_epoch().
  const OverlayPath& path = path_cache_.get({src, dst}, [&] {
    return materialize(dst, tree_cache_.get(src, [&] {
                         RouteTree tree = compute_tree(src);
                         nodes_settled_ += tree.settled;
                         return tree;
                       }));
  });
  return OverlayPathRef(&path, this, route_epoch());
}

double OverlayNetwork::delay_ms(PeerId src, PeerId dst) {
  if (src == dst) return 0.0;
  return route(src, dst)->delay_ms;
}

double OverlayNetwork::estimated_delay_ms(PeerId src, PeerId dst) {
  if (src == dst) return 0.0;
  if (estimator_ != nullptr) {
    // Staleness invariant: the table was built over the full overlay and is
    // deliberately churn-oblivious — kill/revive does not refresh columns,
    // so hints for dead peers keep answering build-time delays. That is
    // sound because estimates only ever order/time *hints* (DHT locality,
    // discovery timing); candidate liveness is filtered per-probe and every
    // path that reaches a service graph goes through route(), which is
    // liveness-exact. The table must still cover the current peer space.
    SPIDER_DCHECK(estimator_->target_count() == peer_count());
    return estimator_->estimate_ms(src, dst);
  }
  return delay_ms(src, dst);
}

net::LandmarkTable::Column OverlayNetwork::sssp_column(PeerId target) const {
  net::LandmarkTable::Column col;
  col.target = target;
  col.delay_ms = compute_tree(target).dist;  // overlay layer: delays only
  return col;
}

void OverlayNetwork::build_estimator(std::size_t landmark_count,
                                     std::size_t jobs) {
  SPIDER_REQUIRE(landmark_count >= 1);
  // sssp_column computes a fresh tree without touching the route caches,
  // so concurrent columns are safe.
  estimator_ = std::make_unique<net::LandmarkTable>(net::LandmarkTable::build(
      peer_count(), landmark_count,
      [this](std::uint32_t target) { return sssp_column(target); }, jobs));
}

bool OverlayNetwork::live_connected() const {
  const auto first_live = std::find(alive_.begin(), alive_.end(), true);
  if (first_live == alive_.end()) return false;
  // Connected means route() reaches every live peer from one of them.
  const RouteTree tree = compute_tree(PeerId(first_live - alive_.begin()));
  std::size_t reached = 0;
  for (PeerId p = 0; p < peer_count(); ++p) reached += tree.reachable(p);
  return reached == live_count_;
}

}  // namespace spider::overlay
