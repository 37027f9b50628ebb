// Tests for the overlay layer: construction from IP topology and PlanetLab
// matrices, metric inheritance, routing around dead peers against a
// brute-force oracle, the shortest-path tie-break, cache invalidation on
// liveness changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
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

}  // namespace
}  // namespace spider::overlay
