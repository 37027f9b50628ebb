// IP-layer network topology.
//
// The paper builds its simulation on a 10,000-node power-law graph produced
// by the Inet-3.0 degree-based topology generator (§6.1).  Inet-3.0 is not
// available offline, so `src/net/generator.hpp` provides a
// preferential-attachment power-law generator with the same relevant
// properties (heavy-tailed degree distribution, low diameter) plus Waxman
// and uniform-random generators for comparison; see DESIGN.md S3.
//
// A Topology is an immutable undirected multigraph-free graph: nodes are
// dense indices, links carry propagation delay and bandwidth capacity.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/shortest_paths.hpp"
#include "util/require.hpp"

namespace spider::net {

using NodeIdx = std::uint32_t;
using LinkIdx = std::uint32_t;

constexpr NodeIdx kInvalidNode = static_cast<NodeIdx>(-1);
constexpr LinkIdx kInvalidLink = static_cast<LinkIdx>(-1);

/// Undirected IP-layer link with static capacity.
struct Link {
  NodeIdx a = kInvalidNode;
  NodeIdx b = kInvalidNode;
  double delay_ms = 0.0;        ///< one-way propagation delay
  double bandwidth_kbps = 0.0;  ///< capacity (availability is tracked at the
                                ///< overlay layer; see overlay/README note)

  NodeIdx other(NodeIdx n) const {
    SPIDER_DCHECK(n == a || n == b);
    return n == a ? b : a;
  }
};

/// Half-edge in a node's adjacency list, with its link's delay copied in
/// so an edge visitor reads neighbour, link and delay from one array.
struct Adjacency {
  NodeIdx neighbor = kInvalidNode;
  LinkIdx link = kInvalidLink;
  double delay_ms = 0.0;  ///< links_[link].delay_ms
};

/// Immutable undirected graph with per-link delay and bandwidth.
class Topology {
 public:
  /// Builds from a node count and link list. Duplicate and self links are
  /// rejected.
  Topology(std::size_t node_count, std::vector<Link> links);

  std::size_t node_count() const { return node_count_; }
  std::size_t link_count() const { return links_.size(); }

  const Link& link(LinkIdx l) const { return links_.at(l); }
  std::span<const Link> links() const { return links_; }

  std::span<const Adjacency> neighbors(NodeIdx n) const;
  std::size_t degree(NodeIdx n) const { return neighbors(n).size(); }

  /// Min-delay tree from `source` over every link; `on_improve` and
  /// `stop` as in net::shortest_path_tree.
  template <typename OnImprove = NoImproveHook, typename Stop = NeverStop>
  ShortestPathTree<LinkIdx> min_delay_tree(NodeIdx source,
                                           OnImprove&& on_improve = {},
                                           Stop&& stop = {}) const {
    return net::shortest_path_tree(
        node_count_, source, kInvalidLink,
        [this](NodeIdx u, auto&& relax) {
          for (const Adjacency& adj : neighbors(u)) {
            relax(adj.neighbor, adj.link, adj.delay_ms);
          }
        },
        std::forward<OnImprove>(on_improve), std::forward<Stop>(stop));
  }

  /// True if every node can reach every other node.
  bool connected() const;

 private:
  std::size_t node_count_;
  std::vector<Link> links_;
  // CSR-style adjacency: offsets_[n]..offsets_[n+1] indexes into adj_.
  std::vector<std::uint32_t> offsets_;
  std::vector<Adjacency> adj_;
};

}  // namespace spider::net
