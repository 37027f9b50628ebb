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

// Repair under node deletion and insertion. When one node of an undirected
// graph dies or revives, the two functions below turn a kernel tree for the
// old graph into, bit for bit, the tree the kernel returns on the new one,
// touching only the nodes whose delay or parent can change (selective
// repair of shortest-path trees, Ramalingam & Reps, J. Algorithms 1996).
//
// Exactness rests on the kernel's settle order. If every offer d + delay_ms
// exceeds d, each push lands after the node that pushed it, so the kernel
// settles nodes in increasing (delay, node) order, and under strict `<`
// each node keeps the edge from its first achiever in that order: of the
// neighbours u whose offer dist[u] + delay_ms equals its delay, the one with
// the least (dist[u], u). A repair re-settles only part of the graph, so it
// applies that tie rule explicitly, and it computes every offer as the
// kernel does. A zero delay breaks the premise: the kernel then settles an
// equal-delay group in the order its zero-delay edges discover it, which
// no local rule reproduces, so such graphs must recompute instead.
//
// Preconditions, beyond the kernel's:
// - the graph is undirected: `u` yields (w, e, delay) exactly when `w`
//   yields (u, e, delay), and no two edges join the same pair of nodes;
// - `for_each_edge(u, relax)` yields the edges from `u` to live nodes,
//   whether `u` itself is live or not;
// - every offer the kernel computes exceeds the delay it extends;
// - `tree` is exact for the graph before the change: a kernel tree, a
//   repaired one, or, for a dead source, a tree in which nothing is
//   reachable.
namespace detail {

using Frontier = std::vector<std::pair<double, std::uint32_t>>;

inline void push(Frontier& frontier, double d, std::uint32_t v) {
  frontier.emplace_back(d, v);
  std::push_heap(frontier.begin(), frontier.end(), std::greater<>());
}

/// Settles `y` on its best offer from its neighbours: the least delay, an
/// equal one going to the least (dist[u], u). Returns false, leaving `y`
/// unreachable, if no neighbour reaches it.
template <typename Edge, typename ForEachEdge>
bool take_best_offer(ShortestPathTree<Edge>& tree, std::uint32_t y,
                     ForEachEdge& for_each_edge) {
  const double inf = std::numeric_limits<double>::infinity();
  double best = inf;
  std::uint32_t from = y;
  for_each_edge(y, [&](std::uint32_t u, Edge edge, double delay_ms) {
    const double nd = tree.dist[u] + delay_ms;
    if (nd == inf || nd > best) return;
    if (nd == best && std::pair(tree.dist[from], from) <
                          std::pair(tree.dist[u], u)) {
      return;
    }
    best = nd;
    from = u;
    tree.parent[y] = edge;
  });
  if (best == inf) return false;
  tree.dist[y] = best;
  ++tree.settled;
  return true;
}

/// True if `u`, settled at `du`, wins the tie for `z` against the
/// neighbour z's parent edge leads to: the least (delay, node) wins.
template <typename Edge, typename ForEachEdge>
bool wins_tie(const ShortestPathTree<Edge>& tree, std::uint32_t z, double du,
              std::uint32_t u, ForEachEdge& for_each_edge) {
  std::uint32_t p = z;
  for_each_edge(z, [&](std::uint32_t w, Edge edge, double) {
    if (edge == tree.parent[z]) p = w;
  });
  SPIDER_DCHECK(p != z);
  return std::pair(du, u) < std::pair(tree.dist[p], p);
}

/// The kernel's loop from a seeded frontier, with the tie rule written
/// out; returns the nodes it settled.
template <typename Edge, typename ForEachEdge>
std::size_t settle(ShortestPathTree<Edge>& tree, Frontier& frontier,
                   ForEachEdge& for_each_edge) {
  std::size_t settled = 0;
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), std::greater<>());
    const auto [d, u] = frontier.back();
    frontier.pop_back();
    if (d > tree.dist[u]) continue;  // stale entry
    ++settled;
    for_each_edge(u, [&](std::uint32_t z, Edge edge, double delay_ms) {
      const double nd = d + delay_ms;
      if (nd < tree.dist[z]) {
        if (!tree.reachable(z)) ++tree.settled;
        tree.dist[z] = nd;
        tree.parent[z] = edge;
        push(frontier, nd, z);
      } else if (nd == tree.dist[z] && wins_tie(tree, z, d, u, for_each_edge)) {
        tree.parent[z] = edge;
      }
    });
  }
  return settled;
}

}  // namespace detail

/// Repairs `tree` after node `v` died (`for_each_edge` no longer yields
/// edges into it); returns the nodes the repair settled. Only v's subtree
/// can change: every other node keeps a path that avoids v, no delay falls
/// when a node goes away, and no surviving node moves earlier in the
/// settle order, so each keeps its delay and its first achiever. The
/// subtree is found by following the children whose parent edge leads
/// back to their parent; each subtree node is seeded from its neighbours
/// outside it, and the subtree is settled again from those seeds. A node
/// nothing reaches any more reads unreachable.
template <typename Edge, typename ForEachEdge>
std::size_t repair_after_deletion(ShortestPathTree<Edge>& tree,
                                  std::uint32_t v, Edge no_edge,
                                  ForEachEdge&& for_each_edge) {
  SPIDER_REQUIRE(v < tree.dist.size());
  if (!tree.reachable(v)) return 0;
  std::vector<std::uint32_t> subtree{v};
  for (std::size_t i = 0; i < subtree.size(); ++i) {
    for_each_edge(subtree[i], [&](std::uint32_t w, Edge edge, double) {
      if (tree.parent[w] == edge) subtree.push_back(w);
    });
  }
  for (std::uint32_t x : subtree) {
    tree.dist[x] = std::numeric_limits<double>::infinity();
    tree.parent[x] = no_edge;
  }
  tree.settled -= subtree.size();
  detail::Frontier frontier;
  for (std::size_t i = 1; i < subtree.size(); ++i) {
    if (detail::take_best_offer(tree, subtree[i], for_each_edge)) {
      detail::push(frontier, tree.dist[subtree[i]], subtree[i]);
    }
  }
  return detail::settle(tree, frontier, for_each_edge);
}

/// Repairs `tree` after node `v` revived (`for_each_edge` yields edges
/// into it again); returns the nodes the repair settled. `v` takes its
/// best offer from its neighbours (delay 0 if it is the source), then the
/// kernel's loop runs from `v` alone: it settles only the nodes whose delay
/// `v` lowers and hands a node's parent to a `v`-side neighbour only on a
/// lower delay or on an equal one from a lower (delay, node).
template <typename Edge, typename ForEachEdge>
std::size_t repair_after_insertion(ShortestPathTree<Edge>& tree,
                                   std::uint32_t v,
                                   ForEachEdge&& for_each_edge) {
  SPIDER_REQUIRE(v < tree.dist.size() && !tree.reachable(v));
  if (v == tree.source) {
    tree.dist[v] = 0.0;
    ++tree.settled;
  } else if (!detail::take_best_offer(tree, v, for_each_edge)) {
    return 0;
  }
  detail::Frontier frontier;
  detail::push(frontier, tree.dist[v], v);
  return detail::settle(tree, frontier, for_each_edge);
}

}  // namespace spider::net
