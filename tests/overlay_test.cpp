// Tests for the overlay layer: construction from IP topology and PlanetLab
// matrices, metric inheritance, routing around dead peers against a
// brute-force oracle, the shortest-path tie-break, exact route-tree repair
// on kill and revive, cache invalidation on liveness changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "net/generator.hpp"
#include "net/planetlab.hpp"
#include "net/router.hpp"
#include "net/shortest_paths.hpp"
#include "overlay/overlay.hpp"
#include "util/rng.hpp"

namespace spider::overlay {
namespace {

OverlayNetwork make_overlay(Rng& rng, std::size_t ip_nodes = 300,
                            std::size_t peers = 40,
                            OverlayKind kind = OverlayKind::kNearestMesh) {
  static std::unique_ptr<net::Topology> topo;
  static std::unique_ptr<net::Router> router;
  topo = std::make_unique<net::Topology>(net::power_law(ip_nodes, 2, rng));
  router = std::make_unique<net::Router>(*topo);
  std::vector<net::NodeIdx> nodes;
  for (std::size_t idx : rng.sample_indices(ip_nodes, peers)) {
    nodes.push_back(net::NodeIdx(idx));
  }
  return OverlayNetwork::from_topology(*topo, *router, std::move(nodes), kind,
                                       4, rng);
}

TEST(Overlay, MeshConstructionBasics) {
  Rng rng(1);
  OverlayNetwork ov = make_overlay(rng);
  EXPECT_EQ(ov.peer_count(), 40u);
  EXPECT_EQ(ov.live_count(), 40u);
  EXPECT_GT(ov.link_count(), 0u);
  // Each peer has at least `degree` neighbors (mesh adds both directions).
  for (PeerId p = 0; p < ov.peer_count(); ++p) {
    EXPECT_GE(ov.neighbors(p).size(), 4u);
  }
}

TEST(Overlay, LinkMetricsInheritedFromIpPath) {
  Rng rng(2);
  auto topo = net::power_law(200, 2, rng);
  net::Router router(topo);
  std::vector<net::NodeIdx> nodes{1, 5, 9, 13, 50, 77};
  OverlayNetwork ov = OverlayNetwork::from_topology(
      topo, router, std::move(nodes), OverlayKind::kNearestMesh, 2, rng);
  for (OverlayLinkId l = 0; l < ov.link_count(); ++l) {
    const OverlayLink& link = ov.link(l);
    const net::PathMetrics m =
        router.metrics(ov.ip_node(link.a), ov.ip_node(link.b));
    EXPECT_DOUBLE_EQ(link.delay_ms, m.delay_ms);
    EXPECT_DOUBLE_EQ(link.capacity_kbps, m.bottleneck_kbps);
  }
}

TEST(Overlay, RouteFindsMinDelayPath) {
  Rng rng(3);
  OverlayNetwork ov = make_overlay(rng);
  const OverlayPathRef path = ov.route(0, 17);
  ASSERT_TRUE(path->valid);
  EXPECT_GT(path->delay_ms, 0.0);
  // Path link chain must connect 0 to 17.
  PeerId cur = 0;
  for (OverlayLinkId l : path->links) cur = ov.link(l).other(cur);
  EXPECT_EQ(cur, 17u);
  // Delay equals sum of link delays.
  double sum = 0;
  for (OverlayLinkId l : path->links) sum += ov.link(l).delay_ms;
  EXPECT_NEAR(sum, path->delay_ms, 1e-9);
}

TEST(Overlay, SelfRouteIsTrivial) {
  Rng rng(4);
  OverlayNetwork ov = make_overlay(rng);
  const OverlayPathRef path = ov.route(3, 3);
  EXPECT_TRUE(path->valid);
  EXPECT_TRUE(path->links.empty());
  EXPECT_DOUBLE_EQ(ov.delay_ms(3, 3), 0.0);
}

TEST(Overlay, DeadPeerIsAvoided) {
  Rng rng(5);
  OverlayNetwork ov = make_overlay(rng, 300, 30);
  // Find a route that traverses some intermediate peer, kill it, verify
  // rerouting avoids it.
  PeerId victim = kInvalidPeer;
  const OverlayPath before = *ov.route(0, 20);
  ASSERT_TRUE(before.valid);
  if (before.links.size() >= 2) {
    victim = ov.link(before.links[0]).other(0);
  }
  ASSERT_NE(victim, kInvalidPeer);
  ASSERT_NE(victim, PeerId{20});
  ov.set_alive(victim, false);
  EXPECT_EQ(ov.live_count(), 29u);
  const OverlayPathRef after = ov.route(0, 20);
  if (after->valid) {
    PeerId cur = 0;
    for (OverlayLinkId l : after->links) {
      cur = ov.link(l).other(cur);
      EXPECT_NE(cur, victim);
    }
  }
}

TEST(Overlay, DeadEndpointInvalidatesRoute) {
  Rng rng(6);
  OverlayNetwork ov = make_overlay(rng);
  ov.set_alive(7, false);
  EXPECT_FALSE(ov.route(0, 7)->valid);
  EXPECT_FALSE(ov.route(7, 0)->valid);
}

TEST(Overlay, ReviveRestoresRouting) {
  Rng rng(7);
  OverlayNetwork ov = make_overlay(rng);
  ov.set_alive(5, false);
  EXPECT_FALSE(ov.route(0, 5)->valid);
  ov.set_alive(5, true);
  EXPECT_TRUE(ov.route(0, 5)->valid);
  EXPECT_EQ(ov.live_count(), ov.peer_count());
}

TEST(Overlay, LiveConnectedReflectsPartitions) {
  Rng rng(8);
  OverlayNetwork ov = make_overlay(rng);
  EXPECT_TRUE(ov.live_connected());
  // Kill half the peers; connectivity may or may not survive but the
  // call must agree with route() reachability.
  for (PeerId p = 0; p < ov.peer_count(); p += 2) ov.set_alive(p, false);
  const bool connected = ov.live_connected();
  bool all_routable = true;
  for (PeerId p = 1; p < ov.peer_count(); p += 2) {
    if (!ov.route(1, p)->valid) all_routable = false;
  }
  EXPECT_EQ(connected, all_routable);
}

TEST(Overlay, FromPlanetLabFullConnectivity) {
  Rng rng(9);
  net::PlanetLabConfig config;
  config.hosts = 30;
  net::PlanetLabModel model(config, rng);
  OverlayNetwork ov =
      OverlayNetwork::from_planetlab(model, OverlayKind::kNearestMesh, 5, rng);
  EXPECT_EQ(ov.peer_count(), 30u);
  EXPECT_TRUE(ov.live_connected());
  for (OverlayLinkId l = 0; l < ov.link_count(); ++l) {
    const OverlayLink& link = ov.link(l);
    EXPECT_DOUBLE_EQ(link.delay_ms, model.delay_ms(link.a, link.b));
    EXPECT_EQ(link.ip_hops, 1u);
  }
}

TEST(Overlay, RandomOverlayIsConnected) {
  Rng rng(10);
  OverlayNetwork ov = make_overlay(rng, 300, 50, OverlayKind::kRandom);
  EXPECT_TRUE(ov.live_connected());
}

TEST(Overlay, AreNeighborsMatchesAdjacency) {
  Rng rng(12);
  OverlayNetwork ov = make_overlay(rng);
  for (const OverlayAdjacency& adj : ov.neighbors(0)) {
    double delay = -1.0;
    EXPECT_TRUE(ov.are_neighbors(0, adj.neighbor, &delay));
    EXPECT_DOUBLE_EQ(delay, ov.link(adj.link).delay_ms);
    EXPECT_TRUE(ov.are_neighbors(adj.neighbor, 0));
  }
  // A peer is not its own neighbor.
  EXPECT_FALSE(ov.are_neighbors(0, 0));
}

TEST(Overlay, MeanNeighborDelayReflectsLiveLinks) {
  Rng rng(13);
  OverlayNetwork ov = make_overlay(rng);
  const double before = ov.mean_neighbor_delay(0);
  EXPECT_GT(before, 0.0);
  // Manual recomputation.
  double sum = 0;
  std::size_t count = 0;
  for (const OverlayAdjacency& adj : ov.neighbors(0)) {
    sum += ov.link(adj.link).delay_ms;
    ++count;
  }
  EXPECT_NEAR(before, sum / double(count), 1e-9);
  // Killing a neighbor removes its link from the average.
  const PeerId victim = ov.neighbors(0)[0].neighbor;
  ov.set_alive(victim, false);
  double sum2 = 0;
  std::size_t count2 = 0;
  for (const OverlayAdjacency& adj : ov.neighbors(0)) {
    if (adj.neighbor == victim) continue;
    sum2 += ov.link(adj.link).delay_ms;
    ++count2;
  }
  EXPECT_NEAR(ov.mean_neighbor_delay(0), sum2 / double(count2), 1e-9);
}

TEST(Overlay, RouteDelayTriangleSanity) {
  Rng rng(11);
  OverlayNetwork ov = make_overlay(rng);
  // Routed delay can never beat the direct overlay link, if one exists.
  for (const OverlayAdjacency& adj : ov.neighbors(0)) {
    EXPECT_LE(ov.delay_ms(0, adj.neighbor),
              ov.link(adj.link).delay_ms + 1e-9);
  }
}

// Independent reference: Floyd–Warshall over live peers and the links
// between them (infinity where unreachable, including from a dead peer).
std::vector<std::vector<double>> live_all_pairs(const OverlayNetwork& ov) {
  const std::size_t n = ov.peer_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, kInf));
  for (PeerId p = 0; p < n; ++p) {
    if (ov.alive(p)) d[p][p] = 0.0;
  }
  for (OverlayLinkId l = 0; l < ov.link_count(); ++l) {
    const OverlayLink& link = ov.link(l);
    if (!ov.alive(link.a) || !ov.alive(link.b)) continue;
    d[link.a][link.b] = std::min(d[link.a][link.b], link.delay_ms);
    d[link.b][link.a] = std::min(d[link.b][link.a], link.delay_ms);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

TEST(Overlay, RouteMatchesBruteForceUnderChurn) {
  for (std::uint64_t seed : {31, 32, 33}) {
    for (OverlayKind kind : {OverlayKind::kNearestMesh, OverlayKind::kRandom}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " kind " << int(kind));
      Rng rng(seed);
      OverlayNetwork ov = make_overlay(rng, 200, 30, kind);
      Rng churn(seed + 1000);
      for (int round = 0; round < 5; ++round) {
        // Kill three random peers and revive one: dead endpoints, dead
        // relays and (sometimes) partitions all occur.
        for (int i = 0; i < 3; ++i) {
          ov.set_alive(PeerId(churn.next_below(ov.peer_count())), false);
        }
        ov.set_alive(PeerId(churn.next_below(ov.peer_count())), true);
        const auto d = live_all_pairs(ov);
        for (PeerId u = 0; u < ov.peer_count(); ++u) {
          for (PeerId v = 0; v < ov.peer_count(); ++v) {
            const OverlayPath path = *ov.route(u, v);
            const bool reachable =
                d[u][v] < std::numeric_limits<double>::infinity();
            ASSERT_EQ(path.valid, reachable) << u << " -> " << v;
            if (!reachable) continue;
            EXPECT_NEAR(path.delay_ms, d[u][v], 1e-9) << u << " -> " << v;
            // The link chain is a live u -> v path summing to the delay.
            PeerId cur = u;
            double sum = 0.0;
            double capacity = std::numeric_limits<double>::infinity();
            for (OverlayLinkId l : path.links) {
              const OverlayLink& link = ov.link(l);
              ASSERT_TRUE(link.a == cur || link.b == cur);
              cur = link.other(cur);
              ASSERT_TRUE(ov.alive(cur));
              sum += link.delay_ms;
              capacity = std::min(capacity, link.capacity_kbps);
            }
            EXPECT_EQ(cur, v);
            EXPECT_NEAR(sum, path.delay_ms, 1e-9);
            EXPECT_DOUBLE_EQ(capacity, path.capacity_kbps);
          }
        }
      }
    }
  }
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// Warms a tree for every source, then runs a kill/revive schedule: the
// neighbours of the least-linked peer q die one by one until the last of
// them cuts q off, that one revives and rejoins q, and random kills and
// revives follow. After each change every pair routes exactly as on a
// never-warmed twin with the same liveness, and only the changed peer's
// own tree is recomputed; with a zero-delay link every tree is.
void expect_repairs_match_cold(const net::Topology& topo,
                               const std::vector<net::NodeIdx>& nodes,
                               OverlayKind kind, std::uint64_t seed) {
  auto build = [&] {
    net::Router router(topo);
    Rng rng(seed);
    return OverlayNetwork::from_topology(topo, router, nodes, kind, 4, rng);
  };
  OverlayNetwork warm = build();
  const std::size_t n = warm.peer_count();
  bool zero_delay = false;
  for (OverlayLinkId l = 0; l < warm.link_count(); ++l) {
    zero_delay |= warm.link(l).delay_ms == 0.0;
  }
  for (PeerId u = 0; u < n; ++u) warm.route(u, PeerId((u + 1) % n));
  ASSERT_EQ(warm.route_trees_computed(), n);

  auto change = [&](PeerId p, bool up) {
    SCOPED_TRACE(::testing::Message() << (up ? "revive " : "kill ") << p);
    warm.set_alive(p, up);
    OverlayNetwork cold = build();
    for (PeerId q = 0; q < n; ++q) {
      if (!warm.alive(q)) cold.set_alive(q, false);
    }
    const std::uint64_t trees = warm.route_trees_computed();
    for (PeerId u = 0; u < n; ++u) {
      for (PeerId v = 0; v < n; ++v) {
        const OverlayPathRef got = warm.route(u, v);
        const OverlayPathRef want = cold.route(u, v);
        ASSERT_EQ(got->valid, want->valid) << u << " -> " << v;
        ASSERT_EQ(got->links, want->links) << u << " -> " << v;
        ASSERT_EQ(bits(got->delay_ms), bits(want->delay_ms))
            << u << " -> " << v;
        ASSERT_EQ(bits(got->capacity_kbps), bits(want->capacity_kbps))
            << u << " -> " << v;
      }
    }
    EXPECT_EQ(warm.route_trees_computed() - trees, zero_delay ? n : 1u);
  };

  PeerId q = 0;
  for (PeerId p = 1; p < n; ++p) {
    if (warm.neighbors(p).size() < warm.neighbors(q).size()) q = p;
  }
  std::vector<PeerId> cut;
  for (const OverlayAdjacency& adj : warm.neighbors(q)) {
    cut.push_back(adj.neighbor);
  }
  for (std::size_t i = 0; i + 1 < cut.size(); ++i) {
    change(cut[i], false);
    if (::testing::Test::HasFatalFailure()) return;
  }
  PeerId far = 0;
  while (far == q || std::find(cut.begin(), cut.end(), far) != cut.end()) {
    ++far;
  }
  ASSERT_TRUE(warm.route(q, far)->valid);
  change(cut.back(), false);
  EXPECT_FALSE(warm.route(q, far)->valid) << "peer " << q << " is cut off";
  change(cut.back(), true);
  EXPECT_TRUE(warm.route(q, far)->valid) << "peer " << q << " rejoined";

  Rng churn(seed + 1000);
  for (int step = 0; step < 4 && !::testing::Test::HasFatalFailure(); ++step) {
    const auto p = PeerId(churn.next_below(n));
    change(p, !warm.alive(p));
  }
}

TEST(Overlay, RepairedTreesMatchColdTreesUnderChurn) {
  for (OverlayKind kind : {OverlayKind::kNearestMesh, OverlayKind::kRandom}) {
    for (const std::uint64_t seed : {61u, 62u, 63u}) {
      Rng gen(seed);
      const net::Topology topo = net::power_law(400, 2, gen);
      for (const std::size_t peers : {50u, 200u}) {
        SCOPED_TRACE(::testing::Message() << "kind " << int(kind) << " seed "
                                          << seed << " peers " << peers);
        std::vector<net::NodeIdx> nodes;
        for (std::size_t idx : gen.sample_indices(400, peers)) {
          nodes.push_back(net::NodeIdx(idx));
        }
        expect_repairs_match_cold(topo, nodes, kind, seed);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// Peers 0 and 3, 1 and 4 share IP nodes, so the mesh joins each pair by a
// zero-delay link, which tree repair does not support: a liveness change
// drops every cached tree, and routes stay exact.
TEST(Overlay, ZeroDelayLinksStillRouteExactlyUnderChurn) {
  Rng gen(64);
  const net::Topology topo = net::power_law(300, 2, gen);
  const std::vector<net::NodeIdx> shared{17, 9,   120, 17, 9,  250, 64,
                                         3,  200, 41,  88, 150, 7,  260};
  expect_repairs_match_cold(topo, shared, OverlayKind::kNearestMesh, 65);
}

// Two equal-delay paths 0-1-3 and 0-2-3, with 0's edge to 2 listed first.
// The kernel keeps 0-1-3: equal delays leave the frontier lowest node
// first (first-queued would pick 2), and an equal-delay relaxation never
// replaces a parent (`<=` would switch 3 to 2). Every layer and any
// point-to-point mode must keep this tie-break for outputs to stay
// byte-identical.
TEST(ShortestPathKernel, EqualDelayTieGoesToTheLowerNodeFirstFound) {
  struct Edge {
    std::uint32_t to, id;
    double delay_ms;
  };
  const std::vector<std::vector<Edge>> adj = {
      {{2, 0, 1.0}, {1, 1, 1.0}},
      {{0, 1, 1.0}, {3, 3, 1.0}},
      {{0, 0, 1.0}, {3, 2, 1.0}},
      {{2, 2, 1.0}, {1, 3, 1.0}}};
  const auto tree = net::shortest_path_tree(
      adj.size(), 0, std::uint32_t(-1), [&](std::uint32_t u, auto&& relax) {
        for (const Edge& e : adj[u]) relax(e.to, e.id, e.delay_ms);
      });
  EXPECT_DOUBLE_EQ(tree.dist[3], 2.0);
  EXPECT_EQ(tree.parent[3], 3u);  // edge 1-3
  EXPECT_EQ(tree.parent[1], 1u);
  EXPECT_EQ(tree.parent[2], 0u);

  // The IP layer runs the same kernel over the same graph.
  net::Topology topo(4, {{0, 2, 1.0, 100.0},
                         {0, 1, 1.0, 100.0},
                         {2, 3, 1.0, 100.0},
                         {1, 3, 1.0, 100.0}});
  net::Router router(topo);
  EXPECT_EQ(router.from(0).path_to(3), (std::vector<net::NodeIdx>{0, 1, 3}));
}

using KernelTree = net::ShortestPathTree<std::uint32_t>;

// Bitwise delays, parents and the settled count.
void expect_same_tree(const KernelTree& got, const KernelTree& want) {
  ASSERT_EQ(got.dist.size(), want.dist.size());
  for (std::size_t v = 0; v < got.dist.size(); ++v) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.dist[v]),
              std::bit_cast<std::uint64_t>(want.dist[v]))
        << "source " << want.source << " node " << v;
  }
  EXPECT_EQ(got.parent, want.parent) << "source " << want.source;
  EXPECT_EQ(got.settled, want.settled) << "source " << want.source;
}

// A graph with an alive mask: the kernel's edge visitor over live nodes,
// and the cold tree a repair must reproduce (nothing reachable from a dead
// source).
struct MaskedGraph {
  struct Edge {
    std::uint32_t to, id;
    double delay_ms;
  };
  std::vector<std::vector<Edge>> adj;
  std::vector<bool> alive = std::vector<bool>(adj.size(), true);

  auto edges() const {
    return [this](std::uint32_t u, auto&& relax) {
      for (const Edge& e : adj[u]) {
        if (alive[e.to]) relax(e.to, e.id, e.delay_ms);
      }
    };
  }
  KernelTree cold(std::uint32_t src) const {
    if (!alive[src]) return KernelTree(src, adj.size(), std::uint32_t(-1));
    return net::shortest_path_tree(adj.size(), src, std::uint32_t(-1),
                                   edges());
  }
  // Flips `v` and repairs every tree; returns the nodes the repairs settled.
  std::size_t flip(std::uint32_t v, std::vector<KernelTree>& trees) {
    alive[v] = !alive[v];
    std::size_t settled = 0;
    for (KernelTree& tree : trees) {
      settled += alive[v] ? net::repair_after_insertion(tree, v, edges())
                          : net::repair_after_deletion(
                                tree, v, std::uint32_t(-1), edges());
    }
    return settled;
  }
};

MaskedGraph masked(const net::Topology& topo) {
  MaskedGraph g{std::vector<std::vector<MaskedGraph::Edge>>(topo.node_count())};
  for (net::NodeIdx u = 0; u < topo.node_count(); ++u) {
    for (const net::Adjacency& a : topo.neighbors(u)) {
      g.adj[u].push_back({a.neighbor, a.link, topo.link(a.link).delay_ms});
    }
  }
  return g;
}

TEST(ShortestPathKernel, RepairedTreesMatchColdTreesUnderRemovalAndInsertion) {
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    Rng gen(seed);
    const net::Topology topos[] = {net::power_law(300, 2, gen),
                                   net::waxman(300, 0.4, 0.2, gen),
                                   net::random_graph(300, 300, gen)};
    for (const net::Topology& topo : topos) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", "
                                        << topo.link_count() << " links");
      MaskedGraph g = masked(topo);
      const std::size_t n = topo.node_count();
      std::vector<KernelTree> trees;
      for (std::size_t src : gen.sample_indices(n, 16)) {
        trees.push_back(g.cold(std::uint32_t(src)));
      }
      std::vector<std::uint32_t> dead;
      for (int step = 0; step < 80; ++step) {
        // About as many insertions as removals; a removal on every eighth
        // step aims at a tree's source.
        std::uint32_t v = 0;
        if (!dead.empty() && gen.next_bool(0.5)) {
          const std::size_t i = gen.next_below(dead.size());
          v = dead[i];
          dead.erase(dead.begin() + long(i));
        } else {
          v = step % 8 == 0 ? trees[gen.next_below(trees.size())].source
                            : std::uint32_t(gen.next_below(n));
          while (!g.alive[v]) v = std::uint32_t(gen.next_below(n));
          dead.push_back(v);
        }
        g.flip(v, trees);
        for (const KernelTree& tree : trees) {
          expect_same_tree(tree, g.cold(tree.source));
        }
        if (HasFatalFailure()) return;
      }
    }
  }
}

// The tie graph of EqualDelayTieGoesToTheLowerNodeFirstFound: killing node 1
// hands node 3 to edge 2-3, and 1's revival wins it back on an equal offer,
// as a cold run keeps 0-1-3.
TEST(ShortestPathKernel, RepairKeepsTheKernelTieBreak) {
  MaskedGraph g{{{{2, 0, 1.0}, {1, 1, 1.0}},
                 {{0, 1, 1.0}, {3, 3, 1.0}},
                 {{0, 0, 1.0}, {3, 2, 1.0}},
                 {{2, 2, 1.0}, {1, 3, 1.0}}}};
  // From source 3 the same tie decides node 0: edge 0-1 or edge 0-2.
  std::vector<KernelTree> trees{g.cold(0), g.cold(3)};
  EXPECT_EQ(g.flip(1, trees), 2u);  // 1's one child in each tree
  EXPECT_EQ(trees[0].parent[3], 2u);
  EXPECT_DOUBLE_EQ(trees[0].dist[3], 2.0);
  EXPECT_EQ(trees[1].parent[0], 0u);
  EXPECT_EQ(g.flip(1, trees), 2u);  // 1 itself in each tree
  EXPECT_EQ(trees[0].parent[3], 3u);
  EXPECT_EQ(trees[0].parent[1], 1u);
  EXPECT_EQ(trees[1].parent[0], 1u);
  for (const KernelTree& tree : trees) {
    expect_same_tree(tree, g.cold(tree.source));
  }

  // Why repair needs positive delays: with the zero-delay edge 2-1 (two
  // peers on one IP node give an overlay such a link), the kernel settles
  // 2 before the lower node 1 at the same delay, so node 3 keeps edge 2-3
  // although 1 ties with it. A rule over (delay, node) would pick 1-3.
  const MaskedGraph zero{{{{2, 0, 1.0}},
                          {{2, 1, 0.0}, {3, 3, 1.0}},
                          {{0, 0, 1.0}, {1, 1, 0.0}, {3, 2, 1.0}},
                          {{2, 2, 1.0}, {1, 3, 1.0}}}};
  const KernelTree tree = zero.cold(0);
  EXPECT_EQ(tree.dist[1], tree.dist[2]);
  EXPECT_EQ(tree.parent[3], 2u);
}

TEST(Overlay, TreeCacheLruNeverThrashesTheQueriedSource) {
  Rng rng(20);
  OverlayNetwork ov = make_overlay(rng);
  ov.set_route_cache_limit(2);
  // Alternating between two sources fits the cap: after the two cold
  // misses, no tree is ever recomputed (the old epoch-clear policy
  // recomputed on every call once the cap was hit).
  for (int i = 0; i < 10; ++i) {
    ov.route(0, 10);
    ov.route(1, 11);
  }
  EXPECT_EQ(ov.route_trees_computed(), 2u);
  // A third source evicts the coldest (source 0), never the one queried.
  ov.route(2, 12);
  EXPECT_EQ(ov.route_trees_computed(), 3u);
  ov.route(1, 13);  // still cached: only source 0 was evicted
  EXPECT_EQ(ov.route_trees_computed(), 3u);
  ov.route(0, 14);  // recomputed: it was the LRU victim
  EXPECT_EQ(ov.route_trees_computed(), 4u);
}

TEST(Overlay, PathCacheIsBoundedAndRepeatHitsAreFree) {
  Rng rng(21);
  OverlayNetwork ov = make_overlay(rng);
  ov.set_route_path_cache_limit(4);
  const std::uint64_t before = ov.route_paths_materialized();
  ov.route(0, 10);
  ov.route(0, 10);
  ov.route(0, 10);
  EXPECT_EQ(ov.route_paths_materialized() - before, 1u)
      << "repeat queries must hit the path cache";
  // Filling the cache past its cap evicts cold pairs and bumps the epoch.
  const std::uint64_t epoch = ov.route_epoch();
  for (PeerId v = 1; v <= 8; ++v) ov.route(0, v);
  EXPECT_GT(ov.route_epoch(), epoch);
}

TEST(Overlay, StalePathRefDerefAborts) {
  Rng rng(22);
  OverlayNetwork ov = make_overlay(rng);
  ov.set_route_path_cache_limit(2);
  OverlayPathRef stale = ov.route(0, 10);
  EXPECT_TRUE(stale->valid);  // fresh: dereference is fine
  // Routing enough other pairs evicts (0, 10); the handle must now abort
  // on dereference instead of reading a freed cache slot.
  for (PeerId v = 1; v <= 6; ++v) ov.route(0, v);
  EXPECT_DEATH((void)stale->valid, "outlived a route-cache eviction");
}

TEST(Overlay, LivenessChangeInvalidatesOutstandingRefs) {
  Rng rng(23);
  OverlayNetwork ov = make_overlay(rng);
  OverlayPathRef ref = ov.route(0, 10);
  EXPECT_TRUE(ref->valid);
  ov.set_alive(5, false);  // clears route caches
  EXPECT_DEATH((void)ref->valid, "outlived a route-cache eviction");
}

TEST(Overlay, DenseRandomWiringFallsBackDeterministically) {
  // 6 peers, degree 16: the rejection loop cannot find 16 distinct
  // partners among 5, so the deterministic fallback links each peer to
  // every other peer and reports all of them as underwired (the old
  // guard loop silently under-provisioned without a trace).
  Rng rng(24);
  auto topo = net::power_law(60, 2, rng);
  net::Router router(topo);
  std::vector<net::NodeIdx> nodes{2, 7, 11, 23, 31, 47};
  OverlayNetwork ov = OverlayNetwork::from_topology(
      topo, router, std::move(nodes), OverlayKind::kRandom, 16, rng);
  EXPECT_EQ(ov.underwired_peers(), 6u);
  // The fallback saturated the clique: every peer adjacent to all others.
  for (PeerId p = 0; p < ov.peer_count(); ++p) {
    EXPECT_EQ(ov.neighbors(p).size(), 5u);
  }
  EXPECT_EQ(ov.link_count(), 15u);  // 6 choose 2
  EXPECT_TRUE(ov.live_connected());
}

TEST(Overlay, SparseRandomWiringReportsNoUnderwiredPeers) {
  Rng rng(25);
  OverlayNetwork ov = make_overlay(rng, 300, 50, OverlayKind::kRandom);
  EXPECT_EQ(ov.underwired_peers(), 0u);
}

/// The links of an exact overlay priced from full IP trees
/// (net::Router::metrics): mesh or random pairs in peer order, then the
/// connectivity ring, each priced from its first peer.
struct ReferenceOverlay {
  std::vector<OverlayLink> links;
  std::size_t underwired_peers = 0;
};

ReferenceOverlay reference_overlay(const net::Topology& topo,
                                   const std::vector<net::NodeIdx>& nodes,
                                   OverlayKind kind, std::size_t degree,
                                   Rng& rng) {
  net::Router router(topo);
  const std::size_t n = nodes.size();
  ReferenceOverlay ref;
  std::set<std::pair<PeerId, PeerId>> seen;
  auto linked = [&](PeerId a, PeerId b) {
    return seen.count(std::minmax(a, b)) > 0;
  };
  auto add = [&](PeerId a, PeerId b) {
    if (!seen.insert(std::minmax(a, b)).second) return;
    const net::PathMetrics m = router.metrics(nodes[a], nodes[b]);
    ref.links.push_back(OverlayLink{a, b, m.delay_ms, m.bottleneck_kbps,
                                    std::max<std::uint32_t>(m.hops, 1)});
  };
  if (kind == OverlayKind::kNearestMesh) {
    for (PeerId p = 0; p < n; ++p) {
      const net::SingleSourcePaths& tree = router.from(nodes[p]);
      std::vector<std::pair<double, PeerId>> by_delay;
      for (PeerId q = 0; q < n; ++q) {
        if (q != p) by_delay.emplace_back(tree.delay_to(nodes[q]), q);
      }
      std::sort(by_delay.begin(), by_delay.end());
      for (std::size_t i = 0; i < std::min(degree, by_delay.size()); ++i) {
        add(p, by_delay[i].second);
      }
    }
  } else {
    // Rejection draws, then a scan of unused partners.
    for (PeerId p = 0; p < n; ++p) {
      std::size_t added = 0, guard = 0;
      while (added < degree && guard++ < degree * 64 + 16) {
        const auto q = PeerId(rng.next_below(n));
        if (q == p || linked(p, q)) continue;
        add(p, q);
        ++added;
      }
      for (std::size_t step = 1; step < n && added < degree; ++step) {
        const auto q = PeerId((p + step) % n);
        if (linked(p, q)) continue;
        add(p, q);
        ++added;
      }
      if (added < degree) ++ref.underwired_peers;
    }
  }
  std::vector<PeerId> order(n);
  for (PeerId p = 0; p < n; ++p) order[p] = p;
  rng.shuffle(order);
  for (std::size_t i = 0; i < n; ++i) add(order[i], order[(i + 1) % n]);
  return ref;
}

/// Builds through from_topology and through the reference from the same
/// RNG state, and compares them field by field, RNG stream included.
void expect_matches_reference(const net::Topology& topo,
                              const std::vector<net::NodeIdx>& nodes,
                              OverlayKind kind, std::size_t degree,
                              std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "kind " << int(kind) << " peers " << nodes.size()
               << " degree " << degree << " seed " << seed);
  Rng ref_rng(seed), rng(seed);
  const ReferenceOverlay ref =
      reference_overlay(topo, nodes, kind, degree, ref_rng);
  net::Router router(topo);
  const OverlayNetwork ov =
      OverlayNetwork::from_topology(topo, router, nodes, kind, degree, rng);
  ASSERT_EQ(ov.link_count(), ref.links.size());
  for (OverlayLinkId l = 0; l < ov.link_count(); ++l) {
    const OverlayLink& got = ov.link(l);
    const OverlayLink& want = ref.links[l];
    EXPECT_EQ(got.a, want.a) << "link " << l;
    EXPECT_EQ(got.b, want.b) << "link " << l;
    EXPECT_EQ(got.delay_ms, want.delay_ms) << "link " << l;
    EXPECT_EQ(got.capacity_kbps, want.capacity_kbps) << "link " << l;
    EXPECT_EQ(got.ip_hops, want.ip_hops) << "link " << l;
  }
  EXPECT_EQ(ov.underwired_peers(), ref.underwired_peers);
  EXPECT_EQ(rng(), ref_rng());
  // One search per peer; none of them enters the tree cache.
  EXPECT_EQ(router.recomputes(), nodes.size());
  EXPECT_EQ(router.cached_sources(), 0u);
}

TEST(Overlay, ExactBuildMatchesFullTreeReference) {
  const OverlayKind kinds[] = {OverlayKind::kNearestMesh,
                               OverlayKind::kRandom};
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    Rng gen(seed);
    const net::Topology topos[] = {net::power_law(400, 2, gen),
                                   net::waxman(400, 0.4, 0.2, gen),
                                   net::random_graph(400, 400, gen)};
    for (const net::Topology& topo : topos) {
      for (const std::size_t peers : {50u, 200u}) {
        std::vector<net::NodeIdx> nodes;
        for (std::size_t idx : gen.sample_indices(400, peers)) {
          nodes.push_back(net::NodeIdx(idx));
        }
        std::sort(nodes.begin(), nodes.end());  // as build_sim_scenario
        for (OverlayKind kind : kinds) {
          expect_matches_reference(topo, nodes, kind, 6, seed);
        }
      }
    }
  }

  Rng gen(34);
  const net::Topology topo = net::power_law(300, 2, gen);
  // Unsorted peer nodes, as make_overlay passes them.
  std::vector<net::NodeIdx> unsorted;
  for (std::size_t idx : gen.sample_indices(300, 40)) {
    unsorted.push_back(net::NodeIdx(idx));
  }
  ASSERT_FALSE(std::is_sorted(unsorted.begin(), unsorted.end()));
  // Peers 1 and 3 share IP node 9, and peer 4 shares peer 0's node.
  const std::vector<net::NodeIdx> shared{17, 9, 120, 9, 17, 250, 64, 3};
  for (OverlayKind kind : kinds) {
    expect_matches_reference(topo, unsorted, kind, 4, 35);
    expect_matches_reference(topo, shared, kind, 3, 36);
  }

  // The 6-peer, degree-16 dense world of
  // DenseRandomWiringFallsBackDeterministically.
  Rng dense_gen(24);
  const net::Topology dense = net::power_law(60, 2, dense_gen);
  for (OverlayKind kind : kinds) {
    expect_matches_reference(dense, {2, 7, 11, 23, 31, 47}, kind, 16, 24);
  }

  // Peers 1 (node 3) and 2 (node 2) tie 2 ms from peer 0 (node 0) as its
  // second nearest, behind peer 3 (node 1, 1 ms). Node 2 settles first,
  // but the lower peer index wins the tie: peer 0 links to 3 and 1.
  const net::Topology tie(4, {{0, 1, 1.0, 100.0},
                              {0, 2, 2.0, 50.0},
                              {0, 3, 2.0, 80.0}});
  const std::vector<net::NodeIdx> tie_nodes{0, 3, 2, 1};
  for (OverlayKind kind : kinds) {
    expect_matches_reference(tie, tie_nodes, kind, 2, 37);
  }
  net::Router router(tie);
  Rng rng(37);
  const OverlayNetwork ov = OverlayNetwork::from_topology(
      tie, router, tie_nodes, OverlayKind::kNearestMesh, 2, rng);
  EXPECT_TRUE(ov.are_neighbors(0, 3));
  EXPECT_TRUE(ov.are_neighbors(0, 1));
  ASSERT_GE(ov.link_count(), 2u);
  EXPECT_EQ(ov.link(1).a, 0u);
  EXPECT_EQ(ov.link(1).b, 1u);
  EXPECT_EQ(ov.link(1).capacity_kbps, 80.0);
}

TEST(Overlay, NodesSettledCountsBothLayers) {
  // Line 0-1-...-7 at 1 ms a hop; peer 0 on node 1, peer 1 on node 3,
  // degree 1, so each peer's nearest peer is also its ring successor.
  std::vector<net::Link> line;
  for (net::NodeIdx v = 0; v + 1 < 8; ++v) {
    line.push_back({v, v + 1, 1.0, 100.0});
  }
  const net::Topology topo(8, line);
  net::Router router(topo);
  Rng rng(1);
  OverlayNetwork ov = OverlayNetwork::from_topology(
      topo, router, {1, 3}, OverlayKind::kNearestMesh, 1, rng);
  // Peer 0 settles nodes 1, 0, 2, 3 (peer 1, 2 ms) and then 4 (3 ms),
  // which proves nothing else ties at 2 ms. Peer 1 settles 3, 2, 4, 1
  // (peer 0), the 2 ms tie 5, then 0 at 3 ms. 5 + 6 of 16 nodes.
  EXPECT_EQ(router.recomputes(), 2u);
  EXPECT_EQ(router.nodes_settled(), 11u);
  ASSERT_EQ(ov.link_count(), 1u);
  EXPECT_EQ(ov.link(0).delay_ms, 2.0);
  EXPECT_EQ(ov.link(0).ip_hops, 2u);

  // Overlay route trees: two live peers, then one, then a dead source.
  // The kill drops peer 1's tree and repairs peer 0's, where 1 was a leaf:
  // the repair settles nothing. The revive repair settles 1 again.
  EXPECT_EQ(ov.nodes_settled(), 0u);
  ov.route(0, 1);
  ov.route(0, 1);  // cached
  EXPECT_EQ(ov.nodes_settled(), 2u);
  ov.route(1, 0);
  EXPECT_EQ(ov.nodes_settled(), 4u);
  ov.set_alive(1, false);
  EXPECT_FALSE(ov.route(0, 1)->valid);
  EXPECT_EQ(ov.nodes_settled(), 4u);
  EXPECT_FALSE(ov.route(1, 0)->valid);
  EXPECT_EQ(ov.nodes_settled(), 4u);
  EXPECT_EQ(ov.route_trees_computed(), 3u);
  ov.set_alive(1, true);
  EXPECT_TRUE(ov.route(0, 1)->valid);
  EXPECT_EQ(ov.nodes_settled(), 5u);
  EXPECT_EQ(ov.route_trees_computed(), 3u);
}

TEST(OverlayDeath, ExactBuildRejectsDisconnectedTopology) {
  // Two components, {0, 1, 2} and {3, 4, 5}, with two peers in each.
  const net::Topology split(6, {{0, 1, 1.0, 100.0},
                                {1, 2, 1.0, 100.0},
                                {3, 4, 1.0, 100.0},
                                {4, 5, 1.0, 100.0}});
  for (OverlayKind kind : {OverlayKind::kNearestMesh, OverlayKind::kRandom}) {
    for (const std::size_t degree : {1u, 2u}) {
      EXPECT_DEATH(
          {
            net::Router router(split);
            Rng rng(3);
            OverlayNetwork::from_topology(split, router, {0, 2, 3, 5}, kind,
                                          degree, rng);
          },
          "IP topology must be connected");
    }
  }
}

}  // namespace
}  // namespace spider::overlay
