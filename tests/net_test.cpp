// Tests for the IP substrate: topology invariants, generators (power-law
// degree skew, connectivity), Dijkstra routing (vs brute force), PlanetLab
// delay structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "net/generator.hpp"
#include "net/planetlab.hpp"
#include "net/router.hpp"
#include "net/shortest_paths.hpp"
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

// A search cut short by its stop hook is the full run's prefix: the nodes
// it settled, in the full run's order, with the full tree's delay (bitwise)
// and parent; every other node reads unreached, never a tentative delay.
void expect_stopped_searches_are_prefixes(const Topology& topo) {
  for (const NodeIdx src : {NodeIdx(0), NodeIdx(topo.node_count() / 2)}) {
    const ShortestPathTree<LinkIdx> full = topo.min_delay_tree(src);
    std::vector<NodeIdx> order;
    topo.min_delay_tree(src, NoImproveHook{}, [&](NodeIdx u, double) {
      order.push_back(u);
      return false;
    });
    ASSERT_EQ(order.size(), full.settled);
    const std::size_t n = order.size();
    for (const std::size_t cut : {std::size_t(1), std::size_t(2), n / 3,
                                  n / 2, n - 1, n}) {
      std::vector<bool> settled(topo.node_count(), false);
      std::size_t seen = 0;
      const ShortestPathTree<LinkIdx> part = topo.min_delay_tree(
          src, NoImproveHook{}, [&](NodeIdx u, double d) {
            EXPECT_EQ(u, order[seen]) << "settle " << seen;
            EXPECT_EQ(d, full.dist[u]);
            settled[u] = true;
            return ++seen == cut;
          });
      EXPECT_EQ(part.settled, cut);
      for (NodeIdx v = 0; v < topo.node_count(); ++v) {
        if (settled[v]) {
          EXPECT_EQ(part.dist[v], full.dist[v]) << "node " << v;
          EXPECT_EQ(part.parent[v], full.parent[v]) << "node " << v;
        } else {
          EXPECT_FALSE(part.reachable(v)) << "node " << v << " cut " << cut;
          EXPECT_EQ(part.parent[v], kInvalidLink) << "node " << v;
        }
      }
    }
  }
}

TEST(ShortestPathKernel, StoppedSearchSettlesAPrefixOfTheFullRun) {
  Rng rng(11);
  expect_stopped_searches_are_prefixes(power_law(300, 2, rng));
  expect_stopped_searches_are_prefixes(waxman(300, 0.4, 0.2, rng));
  expect_stopped_searches_are_prefixes(random_graph(200, 400, rng));
  // The equal-delay graph of EqualDelayTieGoesToTheLowerNodeFirstFound:
  // both 0-1-3 and 0-2-3 take 2 ms.
  expect_stopped_searches_are_prefixes(Topology(4, {{0, 2, 1.0, 100.0},
                                                    {0, 1, 1.0, 100.0},
                                                    {2, 3, 1.0, 100.0},
                                                    {1, 3, 1.0, 100.0}}));
}

// The kernel as it ran on a lazy-deletion binary heap, before the indexed
// frontier: a node is pushed again on each improvement, and an entry whose
// delay exceeds the node's current one is skipped as stale. It is the
// oracle for the indexed frontier, which must reproduce it bit for bit.
template <typename Edge, typename ForEachEdge, typename OnImprove,
          typename Stop>
ShortestPathTree<Edge> lazy_heap_tree(std::size_t node_count,
                                      std::uint32_t source, Edge no_edge,
                                      ForEachEdge&& for_each_edge,
                                      OnImprove&& on_improve, Stop&& stop) {
  ShortestPathTree<Edge> tree(source, node_count, no_edge);
  using Item = std::pair<double, std::uint32_t>;  // (delay, node)
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

// One search as the tests observe it: the tree, every on_improve call in
// order, and the settle order the stop hook saw.
struct ObservedSearch {
  ShortestPathTree<LinkIdx> tree{0, 0, kInvalidLink};
  std::vector<std::tuple<NodeIdx, NodeIdx, LinkIdx>> improves;
  std::vector<std::pair<NodeIdx, double>> settles;
};

// Runs the kernel (through Topology's edge visitor) or the lazy-heap
// oracle (reading each delay from the link table) from `src`, stopping
// once `cut` nodes are settled (0: never).
ObservedSearch observe(const Topology& topo, NodeIdx src, std::size_t cut,
                       bool oracle) {
  ObservedSearch run;
  auto on_improve = [&](NodeIdx u, NodeIdx v, LinkIdx link) {
    run.improves.emplace_back(u, v, link);
  };
  auto stop = [&](NodeIdx u, double d) {
    run.settles.emplace_back(u, d);
    return run.settles.size() == cut;
  };
  if (!oracle) {
    run.tree = topo.min_delay_tree(src, on_improve, stop);
    return run;
  }
  run.tree = lazy_heap_tree(
      topo.node_count(), src, kInvalidLink,
      [&](NodeIdx u, auto&& relax) {
        for (const Adjacency& adj : topo.neighbors(u)) {
          relax(adj.neighbor, adj.link, topo.link(adj.link).delay_ms);
        }
      },
      on_improve, stop);
  return run;
}

void expect_same_search(const ObservedSearch& got,
                        const ObservedSearch& want) {
  ASSERT_EQ(got.tree.dist.size(), want.tree.dist.size());
  for (std::size_t v = 0; v < got.tree.dist.size(); ++v) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.tree.dist[v]),
              std::bit_cast<std::uint64_t>(want.tree.dist[v]))
        << "node " << v;
  }
  EXPECT_EQ(got.tree.parent, want.tree.parent);
  EXPECT_EQ(got.tree.settled, want.tree.settled);
  EXPECT_EQ(got.improves, want.improves);
  EXPECT_EQ(got.settles, want.settles);
}

// The same graph with each link's delay replaced by delay_of(index, delay).
template <typename DelayOf>
Topology with_delays(const Topology& topo, DelayOf&& delay_of) {
  std::vector<Link> links(topo.links().begin(), topo.links().end());
  for (std::size_t i = 0; i < links.size(); ++i) {
    links[i].delay_ms = delay_of(i, links[i].delay_ms);
  }
  return Topology(topo.node_count(), std::move(links));
}

// Every source's full search, and every seventh source's searches cut
// short at several prefix lengths, against the lazy-heap oracle.
TEST(ShortestPathKernel, IndexedFrontierMatchesLazyHeapReference) {
  Rng rng(23);
  std::vector<Topology> graphs;
  graphs.push_back(power_law(300, 2, rng));
  graphs.push_back(waxman(300, 0.4, 0.2, rng));
  graphs.push_back(random_graph(200, 400, rng));
  const std::size_t generated = graphs.size();
  for (std::size_t g = 0; g < generated; ++g) {
    // Small integer delays force equal-delay ties; zero delays let a node
    // settle at its parent's delay.
    graphs.push_back(with_delays(
        graphs[g], [](std::size_t i, double) { return double(1 + i % 3); }));
    graphs.push_back(with_delays(graphs[g], [](std::size_t i, double d) {
      return i % 4 == 0 ? 0.0 : d;
    }));
    graphs.push_back(with_delays(
        graphs[g], [](std::size_t i, double) { return double(i % 3); }));
  }
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const Topology& topo = graphs[g];
    const std::size_t n = topo.node_count();
    for (NodeIdx src = 0; src < n; ++src) {
      SCOPED_TRACE(::testing::Message() << "graph " << g << " source " << src);
      expect_same_search(observe(topo, src, 0, false),
                         observe(topo, src, 0, true));
      if (HasFatalFailure()) return;
      if (src % 7 != 0) continue;
      for (const std::size_t cut : {std::size_t(1), std::size_t(2), n / 3,
                                    n / 2, n - 1}) {
        SCOPED_TRACE(::testing::Message() << "cut " << cut);
        expect_same_search(observe(topo, src, cut, false),
                           observe(topo, src, cut, true));
        if (HasFatalFailure()) return;
      }
    }
  }
}

// A search started from a hook of another search on the same thread would
// share its frontier scratch, so it aborts instead of corrupting it.
TEST(ShortestPathKernel, NestedSearchOnOneThreadAborts) {
  const Topology topo = tiny_line();
  EXPECT_DEATH(topo.min_delay_tree(0, NoImproveHook{},
                                   [&](NodeIdx, double) {
                                     topo.min_delay_tree(1);
                                     return false;
                                   }),
               "nested shortest-path search");
}

// A search cut short by its stop hook or by an exception leaves the
// thread's scratch clean: the next search on it matches the oracle.
TEST(ShortestPathKernel, StoppedAndUnwoundSearchesLeaveTheScratchClean) {
  Rng rng(29);
  const Topology topo = power_law(300, 2, rng);
  const ObservedSearch want = observe(topo, 5, 0, true);
  observe(topo, 0, 100, false);
  expect_same_search(observe(topo, 5, 0, false), want);
  std::size_t settles = 0;
  EXPECT_THROW(topo.min_delay_tree(0, NoImproveHook{},
                                   [&](NodeIdx, double) {
                                     if (++settles == 100) {
                                       throw std::runtime_error("unwind");
                                     }
                                     return false;
                                   }),
               std::runtime_error);
  expect_same_search(observe(topo, 5, 0, false), want);

  // A caller-owned scratch follows the same rules.
  SearchScratch scratch;
  {
    Frontier frontier(4, scratch);
    frontier.push(3, 2.0);
    frontier.push(1, 2.0);
    frontier.push(2, 1.0);
    frontier.push(3, 0.5);  // decrease-key
    EXPECT_EQ(frontier.pop(), (std::pair<double, std::uint32_t>(0.5, 3)));
    EXPECT_EQ(frontier.pop(), (std::pair<double, std::uint32_t>(1.0, 2)));
  }
  Frontier frontier(4, scratch);
  EXPECT_TRUE(frontier.empty());
  frontier.push(1, 7.0);  // node 1 was left queued above
  EXPECT_EQ(frontier.pop(), (std::pair<double, std::uint32_t>(7.0, 1)));
  EXPECT_TRUE(frontier.empty());
}

TEST(Router, SearchesStayOutOfTheCacheAndCountOnce) {
  Topology t = tiny_line();
  Router router(t);
  // Stop once node 2 settles: 0, 1, then 2 (3 ms) — node 3 (7 ms via 2,
  // 10 ms direct) stays unsettled and reads unreachable.
  const SingleSourcePaths paths =
      router.search(0, [](NodeIdx u, double) { return u == 2; });
  EXPECT_EQ(paths.settled(), 3u);
  EXPECT_DOUBLE_EQ(paths.metrics_to(2).delay_ms, 3.0);
  EXPECT_DOUBLE_EQ(paths.metrics_to(2).bottleneck_kbps, 50.0);
  EXPECT_FALSE(paths.reachable(3));
  EXPECT_FALSE(paths.metrics_to(3).reachable());
  EXPECT_EQ(router.cached_sources(), 0u);
  EXPECT_EQ(router.recomputes(), 0u);  // searches count when booked
  router.count_searches(1, paths.settled());
  router.from(0);  // a full tree settles all four nodes
  EXPECT_EQ(router.recomputes(), 2u);
  EXPECT_EQ(router.nodes_settled(), 7u);
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
