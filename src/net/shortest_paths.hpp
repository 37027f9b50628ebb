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
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// Working storage for one search at a time: the frontier's heap, each
/// node's heap slot, and a node list for the deletion repair. It is clean
/// between searches (no slot taken, heap and list empty), so a search
/// never pays O(node_count) to reset it; the slot array only grows the
/// first time it meets a larger graph.
class SearchScratch {
 public:
  SearchScratch() = default;
  SearchScratch(const SearchScratch&) = delete;
  SearchScratch& operator=(const SearchScratch&) = delete;

 private:
  friend class Frontier;
  // A heap key packs (delay, node) into one integer that orders the same
  // way: the delay's bit pattern in the high 64 bits (a non-negative
  // double's bits order like its value) and the node in the low 32. One
  // integer compare per child lets the sift pick the least child without
  // a branch.
  __extension__ typedef unsigned __int128 Key;
  static constexpr std::uint32_t kAbsent = std::uint32_t(-1);

  std::vector<std::uint32_t> slot_;  ///< heap index per node, or kAbsent
  std::vector<Key> heap_;
  std::vector<std::uint32_t> nodes_;
  bool in_use_ = false;
};

/// The calling thread's scratch, which every kernel search and repair on
/// that thread borrows.
inline SearchScratch& thread_search_scratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

/// The frontier of one search: an indexed 4-ary min-heap of (delay, node)
/// with one entry per queued node and decrease-key, popped in the least
/// (delay, node) order. Delays must be non-negative. It borrows a scratch
/// for its lifetime and leaves it clean: each pop frees its slot, and the
/// destructor frees the slots of whatever an early stop or an unwinding
/// exception left queued. Borrowing a scratch that another frontier holds
/// (a search nested in a hook of another search on the same thread)
/// aborts.
class Frontier {
 public:
  Frontier(std::size_t node_count, SearchScratch& scratch)
      : scratch_(scratch), heap_(scratch.heap_) {
    SPIDER_REQUIRE_MSG(!scratch.in_use_,
                       "nested shortest-path search on one scratch");
    scratch.in_use_ = true;
    if (scratch.slot_.size() < node_count) {
      scratch.slot_.resize(node_count, SearchScratch::kAbsent);
    }
    slot_ = scratch.slot_.data();
  }
  ~Frontier() {
    for (const Key k : heap_) slot_[node_of(k)] = SearchScratch::kAbsent;
    heap_.clear();
    scratch_.nodes_.clear();
    scratch_.in_use_ = false;
  }
  Frontier(const Frontier&) = delete;
  Frontier& operator=(const Frontier&) = delete;

  bool empty() const { return heap_.empty(); }

  /// Queues `v` at `delay_ms`, or lowers its queued delay to `delay_ms`.
  void push(std::uint32_t v, double delay_ms) {
    SPIDER_DCHECK(!std::signbit(delay_ms));
    const Key k = key(delay_ms, v);
    std::size_t i = slot_[v];
    if (i == SearchScratch::kAbsent) {
      i = heap_.size();
      heap_.emplace_back();
    } else {
      SPIDER_DCHECK(k < heap_[i]);
    }
    sift_up(i, k);
  }

  /// Removes and returns the least (delay, node).
  std::pair<double, std::uint32_t> pop() {
    SPIDER_DCHECK(!heap_.empty());
    const Key top = heap_.front();
    slot_[node_of(top)] = SearchScratch::kAbsent;
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    return {std::bit_cast<double>(std::uint64_t(top >> 32)), node_of(top)};
  }

  /// Calls `fn(node)` for every queued node, in heap order.
  template <typename Fn>
  void for_each_queued(Fn&& fn) const {
    for (const Key k : heap_) fn(node_of(k));
  }

  /// A node list for the frontier's holder: empty when the frontier is
  /// made, cleared when it ends.
  std::vector<std::uint32_t>& nodes() { return scratch_.nodes_; }

 private:
  using Key = SearchScratch::Key;
  static constexpr std::size_t kArity = 4;

  static Key key(double delay_ms, std::uint32_t node) {
    return Key(std::bit_cast<std::uint64_t>(delay_ms)) << 32 | node;
  }
  static std::uint32_t node_of(Key k) { return std::uint32_t(k); }

  void place(std::size_t i, Key k) {
    heap_[i] = k;
    slot_[node_of(k)] = std::uint32_t(i);
  }
  void sift_up(std::size_t i, Key k) {
    while (i > 0) {
      const std::size_t up = (i - 1) / kArity;
      if (!(k < heap_[up])) break;
      place(i, heap_[up]);
      i = up;
    }
    place(i, k);
  }
  void sift_down(std::size_t i, Key k) {
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= size) break;
      const std::size_t end = std::min(first + kArity, size);
      std::size_t least = first;
      Key least_key = heap_[first];
      for (std::size_t c = first + 1; c < end; ++c) {
        const Key child = heap_[c];
        const bool lower = child < least_key;
        least = lower ? c : least;
        least_key = lower ? child : least_key;
      }
      if (!(least_key < k)) break;
      place(i, least_key);
      i = least;
    }
    place(i, k);
  }

  SearchScratch& scratch_;
  std::vector<Key>& heap_;
  std::uint32_t* slot_ = nullptr;
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

/// Dijkstra from `source` on the calling thread's scratch.
/// `for_each_edge(u, relax)` calls `relax(v, edge, delay_ms)` for each
/// usable edge out of `u`, in a fixed order. `on_improve(u, v, edge)` runs
/// each time `v`'s distance improves through `u`, after its distance and
/// parent are set, so callers can carry per-path values (bottleneck
/// bandwidth, hop count) along the same tree. `stop(u, delay_ms)` runs
/// once per node as it settles, in settle order and before its edges
/// relax; returning true ends the search with `u` settled. Every node the
/// search reached but had not settled then reads unreached again, so a
/// stopped tree never reports a tentative distance. No hook may start
/// another search on the same thread.
template <typename Edge, typename ForEachEdge,
          typename OnImprove = NoImproveHook, typename Stop = NeverStop>
ShortestPathTree<Edge> shortest_path_tree(std::size_t node_count,
                                          std::uint32_t source, Edge no_edge,
                                          ForEachEdge&& for_each_edge,
                                          OnImprove&& on_improve = {},
                                          Stop&& stop = {}) {
  SPIDER_REQUIRE(source < node_count);
  ShortestPathTree<Edge> tree(source, node_count, no_edge);
  Frontier frontier(node_count, thread_search_scratch());
  tree.dist[source] = 0.0;
  frontier.push(source, 0.0);
  while (!frontier.empty()) {
    const auto [d, u] = frontier.pop();
    ++tree.settled;
    if (stop(u, d)) {
      // The queued nodes are exactly the reached, unsettled ones.
      frontier.for_each_queued([&](std::uint32_t v) {
        tree.dist[v] = std::numeric_limits<double>::infinity();
        tree.parent[v] = no_edge;
      });
      break;
    }
    for_each_edge(u, [&](std::uint32_t v, Edge edge, double delay_ms) {
      const double nd = d + delay_ms;
      if (nd < tree.dist[v]) {
        tree.dist[v] = nd;
        tree.parent[v] = edge;
        on_improve(u, v, edge);
        frontier.push(v, nd);
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
    const auto [d, u] = frontier.pop();
    SPIDER_DCHECK(d == tree.dist[u]);
    ++settled;
    for_each_edge(u, [&](std::uint32_t z, Edge edge, double delay_ms) {
      const double nd = d + delay_ms;
      if (nd < tree.dist[z]) {
        if (!tree.reachable(z)) ++tree.settled;
        tree.dist[z] = nd;
        tree.parent[z] = edge;
        frontier.push(z, nd);
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
/// nothing reaches any more reads unreachable. Runs on the calling
/// thread's scratch, as the kernel does.
template <typename Edge, typename ForEachEdge>
std::size_t repair_after_deletion(ShortestPathTree<Edge>& tree,
                                  std::uint32_t v, Edge no_edge,
                                  ForEachEdge&& for_each_edge) {
  SPIDER_REQUIRE(v < tree.dist.size());
  if (!tree.reachable(v)) return 0;
  Frontier frontier(tree.dist.size(), thread_search_scratch());
  std::vector<std::uint32_t>& subtree = frontier.nodes();
  subtree.push_back(v);
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
  for (std::size_t i = 1; i < subtree.size(); ++i) {
    if (detail::take_best_offer(tree, subtree[i], for_each_edge)) {
      frontier.push(subtree[i], tree.dist[subtree[i]]);
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
  Frontier frontier(tree.dist.size(), thread_search_scratch());
  frontier.push(v, tree.dist[v]);
  return detail::settle(tree, frontier, for_each_edge);
}

}  // namespace spider::net
