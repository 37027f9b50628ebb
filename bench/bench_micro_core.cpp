// Microbenchmarks for the composition path: topology generation, Dijkstra
// routing at the IP and overlay layers, pattern enumeration, one full BCP
// compose, and the exhaustive optimal compose it is compared against.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/baselines.hpp"
#include "core/bcp.hpp"
#include "net/generator.hpp"
#include "net/router.hpp"
#include "overlay/overlay.hpp"
#include "workload/scenario.hpp"

using namespace spider;

namespace {

void BM_PowerLawTopology(benchmark::State& state) {
  Rng rng(3);
  const auto n = std::size_t(state.range(0));
  for (auto _ : state) {
    net::Topology t = net::power_law(n, 2, rng);
    benchmark::DoNotOptimize(t.link_count());
  }
}
BENCHMARK(BM_PowerLawTopology)->Arg(1000)->Arg(10000);

void BM_Dijkstra(benchmark::State& state) {
  Rng rng(5);
  net::Topology t = net::power_law(std::size_t(state.range(0)), 2, rng);
  std::uint32_t src = 0;
  for (auto _ : state) {
    net::SingleSourcePaths paths(t, src % net::NodeIdx(t.node_count()));
    benchmark::DoNotOptimize(paths.delay_to(net::NodeIdx(t.node_count() - 1)));
    ++src;
  }
}
BENCHMARK(BM_Dijkstra)->Arg(1000)->Arg(10000);

// One full overlay Dijkstra tree per iteration, from successive sources,
// on the exact world perfbench's compose_scale builds: 2,000 peers over a
// 4,000-node power-law IP graph, nearest mesh of degree 6. This is the
// kernel behind every route() miss, timed through the const column query
// so no route cache is involved.
void BM_OverlaySsspColumn(benchmark::State& state) {
  Rng rng(7);
  const net::Topology topo = net::power_law(4000, 3, rng);
  net::Router router(topo);
  std::vector<net::NodeIdx> peers;
  for (std::size_t idx : rng.sample_indices(topo.node_count(), 2000)) {
    peers.push_back(net::NodeIdx(idx));
  }
  std::sort(peers.begin(), peers.end());
  const overlay::OverlayNetwork net = overlay::OverlayNetwork::from_topology(
      topo, router, std::move(peers), overlay::OverlayKind::kNearestMesh, 6,
      rng);
  overlay::PeerId src = 0;
  for (auto _ : state) {
    const net::LandmarkTable::Column col = net.sssp_column(src);
    benchmark::DoNotOptimize(col.delay_ms.data());
    src = overlay::PeerId((src + 1) % net.peer_count());
  }
}
BENCHMARK(BM_OverlaySsspColumn);

void BM_PatternEnumeration(benchmark::State& state) {
  service::FunctionGraph g = service::make_linear_graph({1, 2, 3, 4, 5});
  for (service::FnNode i = 0; i + 1 < 5; ++i) g.add_commutation(i, i + 1);
  for (auto _ : state) {
    auto patterns = g.patterns(std::size_t(state.range(0)));
    benchmark::DoNotOptimize(patterns.size());
  }
}
BENCHMARK(BM_PatternEnumeration)->Arg(4)->Arg(16);

struct ComposeFixture {
  std::unique_ptr<workload::Scenario> scenario;
  std::unique_ptr<core::BcpEngine> bcp;
  std::unique_ptr<core::OptimalComposer> optimal;
  workload::RequestProfile profile;

  ComposeFixture() {
    workload::SimScenarioConfig config;
    config.ip_nodes = 1000;
    config.peers = 150;
    config.function_count = 40;
    scenario = workload::build_sim_scenario(config);
    core::BcpConfig bcp_config;
    bcp_config.probing_budget = 64;
    bcp = std::make_unique<core::BcpEngine>(*scenario->deployment,
                                            *scenario->alloc,
                                            *scenario->evaluator,
                                            scenario->sim, bcp_config);
    optimal = std::make_unique<core::OptimalComposer>(
        *scenario->deployment, *scenario->alloc, *scenario->evaluator);
    profile.min_functions = 3;
    profile.max_functions = 3;
  }
};

void BM_BcpCompose(benchmark::State& state) {
  ComposeFixture fx;
  for (auto _ : state) {
    auto gen = workload::sample_request(*fx.scenario, fx.profile);
    core::ComposeResult r = fx.bcp->compose(gen.request, fx.scenario->rng);
    for (core::HoldId h : r.best_holds) fx.scenario->alloc->release_hold(h);
    benchmark::DoNotOptimize(r.success);
  }
}
BENCHMARK(BM_BcpCompose);

// Probe-spawn cost vs request depth: every extra hop adds one more probe
// generation whose spawn must not get more expensive as the carried
// prefix grows. Reports per-spawn copy volume alongside wall time so the
// scaling (or its absence) is visible directly.
void BM_BcpComposeDepth(benchmark::State& state) {
  ComposeFixture fx;
  workload::RequestProfile profile;
  profile.min_functions = std::size_t(state.range(0));
  profile.max_functions = std::size_t(state.range(0));
  profile.dag_probability = 0.0;  // linear chains: depth == function count
  std::uint64_t spawned = 0;
  std::uint64_t bytes_copied = 0;
  for (auto _ : state) {
    auto gen = workload::sample_request(*fx.scenario, profile);
    core::ComposeResult r = fx.bcp->compose(gen.request, fx.scenario->rng);
    for (core::HoldId h : r.best_holds) fx.scenario->alloc->release_hold(h);
    spawned += r.stats.probes_spawned;
    bytes_copied += r.stats.probe_bytes_copied;
    benchmark::DoNotOptimize(r.success);
  }
  state.counters["probes_spawned"] =
      benchmark::Counter(double(spawned), benchmark::Counter::kAvgIterations);
  state.counters["copied_bytes_per_spawn"] = benchmark::Counter(
      spawned == 0 ? 0.0 : double(bytes_copied) / double(spawned));
}
BENCHMARK(BM_BcpComposeDepth)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_OptimalCompose(benchmark::State& state) {
  ComposeFixture fx;
  for (auto _ : state) {
    auto gen = workload::sample_request(*fx.scenario, fx.profile);
    core::BaselineResult r = fx.optimal->compose(gen.request);
    benchmark::DoNotOptimize(r.success);
  }
}
BENCHMARK(BM_OptimalCompose);

}  // namespace

BENCHMARK_MAIN();
