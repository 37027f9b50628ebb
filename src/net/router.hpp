// Shortest-path IP routing (Dijkstra, by propagation delay).
//
// The simulator routes both IP-layer and overlay-layer traffic with
// shortest-path routing, as in the paper (§6.1).  For a 10,000-node IP
// graph with 1,000 overlay peers we never need all-pairs state: the exact
// overlay build runs one bounded search per peer that stops once the few
// nodes it prices are settled, and the Router caches full per-source trees
// only for callers that ask for them.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "net/shortest_paths.hpp"
#include "net/topology.hpp"
#include "util/lru_cache.hpp"

namespace spider::net {

/// Metrics of a shortest (min-delay) path.
struct PathMetrics {
  double delay_ms = std::numeric_limits<double>::infinity();
  double bottleneck_kbps = 0.0;  ///< min link bandwidth along the path
  std::uint32_t hops = 0;
  bool reachable() const { return delay_ms < std::numeric_limits<double>::infinity(); }
};

/// Single-source shortest path tree (delays + parent links): full, or cut
/// short by a stop hook, in which case nodes it did not settle read
/// unreachable.
class SingleSourcePaths {
 public:
  SingleSourcePaths(const Topology& topo, NodeIdx source)
      : SingleSourcePaths(topo, topo.min_delay_tree(source)) {}
  SingleSourcePaths(const Topology& topo, ShortestPathTree<LinkIdx> tree)
      : topo_(&topo), tree_(std::move(tree)) {}

  double delay_to(NodeIdx dst) const { return tree_.dist.at(dst); }
  bool reachable(NodeIdx dst) const {
    return delay_to(dst) < std::numeric_limits<double>::infinity();
  }
  /// Nodes the search settled.
  std::size_t settled() const { return tree_.settled; }

  /// Metrics (delay / bottleneck bw / hops) of the tree path to `dst`.
  PathMetrics metrics_to(NodeIdx dst) const;

  /// Node sequence source..dst (inclusive); empty if unreachable.
  std::vector<NodeIdx> path_to(NodeIdx dst) const;

 private:
  const Topology* topo_;
  ShortestPathTree<LinkIdx> tree_;
};

/// Lazy per-source cache of shortest-path trees.
class Router {
 public:
  explicit Router(const Topology& topo) : topo_(&topo) {}

  /// Shortest-path tree from `src`, computing and caching on first use.
  const SingleSourcePaths& from(NodeIdx src) {
    return cache_.get(src, [&] {
      SingleSourcePaths paths(*topo_, src);
      nodes_settled_ += paths.settled();
      return paths;
    });
  }

  /// Uncached search from `src` that ends once `stop(node, delay_ms)`
  /// returns true (net::shortest_path_tree's stop hook). Const and
  /// independent of the cache, so searches may run concurrently; the
  /// caller books them with count_searches() once they are done.
  template <typename Stop>
  SingleSourcePaths search(NodeIdx src, Stop&& stop) const {
    return SingleSourcePaths(
        *topo_, topo_->min_delay_tree(src, NoImproveHook{},
                                      std::forward<Stop>(stop)));
  }
  /// Adds `searches` uncached searches that settled `nodes` nodes between
  /// them to recomputes() and nodes_settled().
  void count_searches(std::uint64_t searches, std::uint64_t nodes) {
    searches_ += searches;
    nodes_settled_ += nodes;
  }

  /// Convenience: metrics of the min-delay path src -> dst.
  PathMetrics metrics(NodeIdx src, NodeIdx dst) { return from(src).metrics_to(dst); }

  /// Drops all cached trees (e.g. between benchmark repetitions).
  void clear_cache() { cache_.clear(); }
  std::size_t cached_sources() const { return cache_.size(); }
  /// Trees computed since construction (cache misses plus counted
  /// searches) — the recompute regression counter: a capped cache that
  /// thrashes shows up here.
  std::uint64_t recomputes() const { return cache_.misses() + searches_; }
  /// Nodes settled by every tree and search recomputes() counts — the
  /// work measure once searches stop early.
  std::uint64_t nodes_settled() const { return nodes_settled_; }

  /// Caps the number of cached per-source trees (util::LruCache policy,
  /// minimum 1, default unbounded). Affects memory and recompute cost
  /// only, never routing results. A reference returned by from() stays
  /// valid until `max_sources` *other* distinct sources have been queried.
  void set_cache_limit(std::size_t max_sources) {
    cache_.set_capacity(max_sources);
  }

 private:
  const Topology* topo_;
  util::LruCache<NodeIdx, SingleSourcePaths> cache_;
  std::uint64_t searches_ = 0;
  std::uint64_t nodes_settled_ = 0;
};

}  // namespace spider::net
