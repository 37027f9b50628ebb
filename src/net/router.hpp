// Shortest-path IP routing (Dijkstra, by propagation delay).
//
// The simulator routes both IP-layer and overlay-layer traffic with
// shortest-path routing, as in the paper (§6.1).  For a 10,000-node IP
// graph with 1,000 overlay peers we never need all-pairs state: the overlay
// layer asks for one source node's metrics to a target *set*, and the
// Router caches per-source trees only when asked to.
#pragma once

#include <cstdint>
#include <limits>
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

/// Full single-source shortest path tree (delays + parent links).
class SingleSourcePaths {
 public:
  SingleSourcePaths(const Topology& topo, NodeIdx source)
      : topo_(&topo), tree_(topo.min_delay_tree(source)) {}

  double delay_to(NodeIdx dst) const { return tree_.dist.at(dst); }
  bool reachable(NodeIdx dst) const {
    return delay_to(dst) < std::numeric_limits<double>::infinity();
  }

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
    return cache_.get(src, [&] { return SingleSourcePaths(*topo_, src); });
  }

  /// Convenience: metrics of the min-delay path src -> dst.
  PathMetrics metrics(NodeIdx src, NodeIdx dst) { return from(src).metrics_to(dst); }

  /// Drops all cached trees (e.g. between benchmark repetitions).
  void clear_cache() { cache_.clear(); }
  std::size_t cached_sources() const { return cache_.size(); }
  /// Trees computed (cache misses) since construction — the recompute
  /// regression counter: a capped cache that thrashes shows up here.
  std::uint64_t recomputes() const { return cache_.misses(); }

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
};

}  // namespace spider::net
