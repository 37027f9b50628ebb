// The one min-delay shortest-path kernel behind both routing layers: IP
// trees, IP landmark columns, overlay route trees and overlay columns.
// Its tie-break is part of the contract, since byte-identical outputs
// depend on which of two equal-delay paths a tree keeps: the frontier pops
// the least (delay, node index), relaxation is strict `<`, and edges relax
// in the order the edge visitor yields them. A search ended early by its
// stop hook is the full run cut short: it settles a prefix of the full
// run's settle order, each with the full tree's delay and parent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace spider::net {

/// Min-delay tree from one source over dense node indices 0..n-1.
template <typename Edge>
struct ShortestPathTree {
  /// A tree in which nothing is reachable, not even `src`.
  ShortestPathTree(std::uint32_t src, std::size_t node_count, Edge no_edge)
      : source(src),
        dist(node_count, std::numeric_limits<double>::infinity()),
        parent(node_count, no_edge) {}

  std::uint32_t source;
  std::vector<double> dist;  ///< infinity where unreachable or unsettled
  std::vector<Edge> parent;  ///< edge taken into each node (none at source)
  std::size_t settled = 0;   ///< nodes the search settled

  bool reachable(std::uint32_t v) const {
    return dist[v] < std::numeric_limits<double>::infinity();
  }

  /// Walks the tree path from reachable `dst` back to the source:
  /// `step(edge, node)` runs once per tree edge, `node` being the edge's
  /// end nearer `dst`, and returns the edge's other end.
  template <typename Step>
  void walk(std::uint32_t dst, Step&& step) const {
    std::uint32_t cur = dst;
    while (cur != source) cur = step(parent[cur], cur);
  }
};

/// Default on-improve hook: carries nothing along the tree.
struct NoImproveHook {
  template <typename Edge>
  void operator()(std::uint32_t, std::uint32_t, Edge) const {}
};

/// Default stop hook: the search settles every reachable node.
struct NeverStop {
  bool operator()(std::uint32_t, double) const { return false; }
};

/// Dijkstra from `source`. `for_each_edge(u, relax)` calls
/// `relax(v, edge, delay_ms)` for each usable edge out of `u`, in a fixed
/// order. `on_improve(u, v, edge)` runs each time `v`'s distance improves
/// through `u`, after its distance and parent are set, so callers can carry
/// per-path values (bottleneck bandwidth, hop count) along the same tree.
/// `stop(u, delay_ms)` runs once per node as it settles, in settle order
/// and before its edges relax; returning true ends the search with `u`
/// settled. Every node the search reached but had not settled then reads
/// unreached again, so a stopped tree never reports a tentative distance.
template <typename Edge, typename ForEachEdge,
          typename OnImprove = NoImproveHook, typename Stop = NeverStop>
ShortestPathTree<Edge> shortest_path_tree(std::size_t node_count,
                                          std::uint32_t source, Edge no_edge,
                                          ForEachEdge&& for_each_edge,
                                          OnImprove&& on_improve = {},
                                          Stop&& stop = {}) {
  SPIDER_REQUIRE(source < node_count);
  ShortestPathTree<Edge> tree(source, node_count, no_edge);
  using Item = std::pair<double, std::uint32_t>;  // (delay, node)
  // A binary min-heap, popped in the least (delay, node) order.
  std::vector<Item> frontier;
  const auto later = std::greater<Item>();
  tree.dist[source] = 0.0;
  frontier.emplace_back(0.0, source);
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), later);
    const auto [d, u] = frontier.back();
    frontier.pop_back();
    if (d > tree.dist[u]) continue;  // stale entry
    ++tree.settled;
    if (stop(u, d)) {
      // The one live entry of a reached, unsettled node carries its
      // current distance: settled nodes have none left, and older entries
      // are stale.
      for (const auto& [fd, v] : frontier) {
        if (fd == tree.dist[v]) {
          tree.dist[v] = std::numeric_limits<double>::infinity();
          tree.parent[v] = no_edge;
        }
      }
      break;
    }
    for_each_edge(u, [&](std::uint32_t v, Edge edge, double delay_ms) {
      const double nd = d + delay_ms;
      if (nd < tree.dist[v]) {
        tree.dist[v] = nd;
        tree.parent[v] = edge;
        on_improve(u, v, edge);
        frontier.emplace_back(nd, v);
        std::push_heap(frontier.begin(), frontier.end(), later);
      }
    });
  }
  return tree;
}

}  // namespace spider::net
