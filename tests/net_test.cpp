// Tests for the IP substrate: topology invariants, generators (power-law
// degree skew, connectivity), Dijkstra routing (vs brute force), PlanetLab
// delay structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "net/generator.hpp"
#include "net/planetlab.hpp"
#include "net/router.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace spider::net {
namespace {

Topology tiny_line() {
  // 0 -1ms- 1 -2ms- 2 -4ms- 3, plus a slow shortcut 0-3 (10ms).
  std::vector<Link> links{
      {0, 1, 1.0, 100.0},
      {1, 2, 2.0, 50.0},
      {2, 3, 4.0, 200.0},
      {0, 3, 10.0, 10.0},
  };
  return Topology(4, std::move(links));
}

TEST(Topology, AdjacencyIsSymmetric) {
  Topology t = tiny_line();
  EXPECT_EQ(t.node_count(), 4u);
  EXPECT_EQ(t.link_count(), 4u);
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.degree(1), 2u);
  EXPECT_EQ(t.degree(3), 2u);
  bool found = false;
  for (const Adjacency& a : t.neighbors(0)) {
    if (a.neighbor == 1) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Topology, ConnectedDetectsPartition) {
  EXPECT_TRUE(tiny_line().connected());
  std::vector<Link> links{{0, 1, 1.0, 1.0}, {2, 3, 1.0, 1.0}};
  Topology split(4, std::move(links));
  EXPECT_FALSE(split.connected());
}

TEST(TopologyDeath, RejectsSelfLoopAndDuplicate) {
  EXPECT_DEATH(Topology(2, {{0, 0, 1.0, 1.0}}), "self loop");
  EXPECT_DEATH(Topology(2, {{0, 1, 1.0, 1.0}, {1, 0, 2.0, 2.0}}),
               "duplicate");
}

TEST(Generator, PowerLawIsConnectedAndSized) {
  Rng rng(1);
  Topology t = power_law(500, 2, rng);
  EXPECT_EQ(t.node_count(), 500u);
  EXPECT_TRUE(t.connected());
  EXPECT_GE(t.link_count(), 2u * (500 - 3));
}

TEST(Generator, PowerLawHasHeavyTailedDegrees) {
  Rng rng(2);
  Topology t = power_law(2000, 2, rng);
  std::vector<std::size_t> degrees;
  for (NodeIdx n = 0; n < t.node_count(); ++n) degrees.push_back(t.degree(n));
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  // Preferential attachment: the max degree should dwarf the median.
  const std::size_t median = degrees[degrees.size() / 2];
  EXPECT_GE(degrees[0], 8 * median);
}

TEST(Generator, WaxmanIsConnected) {
  Rng rng(3);
  Topology t = waxman(300, 0.4, 0.2, rng);
  EXPECT_TRUE(t.connected());
  EXPECT_GE(t.link_count(), 299u);
}

TEST(Generator, RandomGraphIsConnectedWithExtras) {
  Rng rng(4);
  Topology t = random_graph(200, 400, rng);
  EXPECT_TRUE(t.connected());
  EXPECT_GE(t.link_count(), 199u + 300u);
}

TEST(Generator, LinkPropertiesWithinProfile) {
  Rng rng(5);
  LinkProfile profile;
  profile.min_delay_ms = 1.0;
  profile.max_delay_ms = 2.0;
  profile.min_bandwidth_kbps = 10.0;
  profile.max_bandwidth_kbps = 20.0;
  Topology t = power_law(100, 2, rng, profile);
  for (const Link& l : t.links()) {
    EXPECT_GE(l.delay_ms, 1.0);
    EXPECT_LE(l.delay_ms, 2.0);
    EXPECT_GE(l.bandwidth_kbps, 10.0);
    EXPECT_LE(l.bandwidth_kbps, 20.0);
  }
}

TEST(Router, ShortestPathOnLine) {
  Topology t = tiny_line();
  Router router(t);
  // 0 -> 3: path through the line costs 7 < shortcut 10.
  const PathMetrics m = router.metrics(0, 3);
  EXPECT_DOUBLE_EQ(m.delay_ms, 7.0);
  EXPECT_EQ(m.hops, 3u);
  EXPECT_DOUBLE_EQ(m.bottleneck_kbps, 50.0);

  const auto path = router.from(0).path_to(3);
  EXPECT_EQ(path, (std::vector<NodeIdx>{0, 1, 2, 3}));
}

TEST(Router, SelfPathIsZero) {
  Topology t = tiny_line();
  Router router(t);
  const PathMetrics m = router.metrics(2, 2);
  EXPECT_DOUBLE_EQ(m.delay_ms, 0.0);
  EXPECT_EQ(m.hops, 0u);
}

TEST(Router, MatchesBruteForceOnRandomGraph) {
  Rng rng(6);
  Topology t = random_graph(60, 120, rng);
  Router router(t);

  // Floyd–Warshall reference.
  const std::size_t n = t.node_count();
  std::vector<std::vector<double>> d(
      n, std::vector<double>(n, std::numeric_limits<double>::infinity()));
  for (std::size_t i = 0; i < n; ++i) d[i][i] = 0;
  for (const Link& l : t.links()) {
    d[l.a][l.b] = std::min(d[l.a][l.b], l.delay_ms);
    d[l.b][l.a] = std::min(d[l.b][l.a], l.delay_ms);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  for (NodeIdx src : {NodeIdx(0), NodeIdx(17), NodeIdx(42)}) {
    for (NodeIdx dst = 0; dst < n; ++dst) {
      EXPECT_NEAR(router.metrics(src, dst).delay_ms, d[src][dst], 1e-9);
    }
  }
}

TEST(Router, CachesPerSourceTrees) {
  Topology t = tiny_line();
  Router router(t);
  router.metrics(0, 3);
  router.metrics(0, 2);
  EXPECT_EQ(router.cached_sources(), 1u);
  router.metrics(1, 3);
  EXPECT_EQ(router.cached_sources(), 2u);
  router.clear_cache();
  EXPECT_EQ(router.cached_sources(), 0u);
}

TEST(Router, CappedCacheEvictsLruNotTheQueriedSource) {
  Topology t = tiny_line();
  Router router(t);
  router.set_cache_limit(2);
  // Alternating sources fit the cap: two cold recomputes, then pure hits
  // (the old epoch-clear policy recomputed both on every call at the cap).
  for (int i = 0; i < 8; ++i) {
    router.from(0);
    router.from(1);
  }
  EXPECT_EQ(router.recomputes(), 2u);
  EXPECT_EQ(router.cached_sources(), 2u);
  // A new source evicts the coldest tree (source 0), not the whole cache.
  router.from(2);
  EXPECT_EQ(router.recomputes(), 3u);
  EXPECT_EQ(router.cached_sources(), 2u);
  router.from(1);  // survived the eviction
  EXPECT_EQ(router.recomputes(), 3u);
  router.from(0);  // the LRU victim recomputes
  EXPECT_EQ(router.recomputes(), 4u);
}

TEST(Router, PathMetricsConsistentWithPath) {
  Rng rng(7);
  Topology t = power_law(200, 2, rng);
  Router router(t);
  const auto& tree = router.from(5);
  for (NodeIdx dst : {NodeIdx(0), NodeIdx(50), NodeIdx(199)}) {
    const auto path = tree.path_to(dst);
    const PathMetrics m = tree.metrics_to(dst);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.size(), m.hops + 1);
    EXPECT_EQ(path.front(), 5u);
    EXPECT_EQ(path.back(), dst);
  }
}

TEST(PlanetLab, MatrixIsSymmetricWithZeroDiagonal) {
  Rng rng(8);
  PlanetLabConfig config;
  PlanetLabModel model(config, rng);
  EXPECT_EQ(model.host_count(), 102u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(model.delay_ms(i, i), 0.0);
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_DOUBLE_EQ(model.delay_ms(i, j), model.delay_ms(j, i));
      if (i != j) {
        EXPECT_GT(model.delay_ms(i, j), 0.0);
      }
    }
  }
}

TEST(PlanetLab, TransatlanticSlowerThanRegional) {
  Rng rng(9);
  PlanetLabConfig config;
  PlanetLabModel model(config, rng);
  double regional_sum = 0, transat_sum = 0;
  int regional_n = 0, transat_n = 0;
  for (std::size_t i = 0; i < model.host_count(); ++i) {
    for (std::size_t j = i + 1; j < model.host_count(); ++j) {
      const bool same_continent =
          model.site_in_us(model.site_of(i)) == model.site_in_us(model.site_of(j));
      const bool same_site = model.site_of(i) == model.site_of(j);
      if (same_site) continue;
      if (same_continent) {
        regional_sum += model.delay_ms(i, j);
        ++regional_n;
      } else {
        transat_sum += model.delay_ms(i, j);
        ++transat_n;
      }
    }
  }
  ASSERT_GT(regional_n, 0);
  ASSERT_GT(transat_n, 0);
  EXPECT_GT(transat_sum / transat_n, 2.0 * (regional_sum / regional_n));
}

}  // namespace
}  // namespace spider::net
