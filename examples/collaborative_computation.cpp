// Collaborative scientific computation (§1's second motivating example):
// geographically distributed labs share data-analysis services; a
// composite experiment maps a DAG of analysis stages onto the overlay.
//
// The function graph here is a diamond with a commutation link —
//   ingest -> {denoise, calibrate} -> correlate -> report
// where denoise and calibrate may run in either branch assignment — so
// this example exercises DAG branch probing, destination-side branch
// merging, and commutation-derived pattern exploration.
//
// Build: cmake --build build && ./build/examples/collaborative_computation
#include <cstdio>

#include "core/baselines.hpp"
#include "core/bcp.hpp"
#include "workload/scenario.hpp"

using namespace spider;

int main() {
  // Build a deployment whose catalog is the analysis toolbox.
  workload::SimScenarioConfig config;
  config.seed = 31;
  config.ip_nodes = 800;
  config.peers = 120;
  config.function_count = 30;  // a wider toolbox; stages are functions 0-4
  auto scenario = workload::build_sim_scenario(config);
  auto& deployment = *scenario->deployment;
  const char* stage_names[5] = {"ingest", "denoise", "calibrate", "correlate",
                                "report"};

  // Guarantee every stage has at least one replica (deploying one by hand
  // also demonstrates the deployment API).
  for (service::FunctionId f = 0; f < 5; ++f) {
    if (deployment.replicas_oracle(f).empty()) {
      service::ServiceComponent c;
      c.host = overlay::PeerId(10 + f);
      c.function = f;
      c.perf = service::Qos::delay_loss(15.0, 0.0);
      c.required = service::Resources::cpu_mem(6, 6);
      deployment.deploy_component(c);
    }
  }

  // DAG request: 0 -> {1, 2} -> 3 -> 4, commutation between 1 and 2.
  service::FunctionGraph graph;
  for (service::FunctionId f = 0; f < 5; ++f) graph.add_function(f);
  graph.add_dependency(0, 1);
  graph.add_dependency(0, 2);
  graph.add_dependency(1, 3);
  graph.add_dependency(2, 3);
  graph.add_dependency(3, 4);
  graph.add_commutation(1, 2);

  std::printf("function graph: %zu stages, %zu dependency links, "
              "%zu commutation link(s)\n", graph.node_count(),
              graph.dependencies().size(), graph.commutations().size());
  const auto patterns = graph.patterns();
  std::printf("composition patterns after commutation exchange: %zu\n",
              patterns.size());
  const auto branches = graph.branches();
  std::printf("branch paths per pattern: %zu\n\n", branches.size());

  service::CompositeRequest request;
  request.graph = graph;
  request.qos_req = service::Qos::delay_loss(5000.0, 1.0);
  request.bandwidth_kbps = 100.0;
  request.source = 2;
  request.dest = 99;

  core::BcpConfig bcp_config;
  bcp_config.probing_budget = 96;
  core::BcpEngine bcp(deployment, *scenario->alloc, *scenario->evaluator,
                      scenario->sim, bcp_config);
  core::ComposeResult composed = bcp.compose(request, scenario->rng);
  if (!composed.success) {
    std::printf("composition failed\n");
    return 1;
  }
  std::printf("BCP merged %llu candidate graphs, %llu qualified\n",
              (unsigned long long)composed.stats.candidates_merged,
              (unsigned long long)composed.stats.qualified_found);
  std::printf("selected experiment mapping (psi=%.3f, worst-branch delay "
              "%.0f ms):\n", composed.best.psi_cost,
              composed.best.qos.delay_ms());
  for (service::FnNode n = 0; n < composed.best.pattern.node_count(); ++n) {
    std::printf("  node %u (%s as %s) -> lab peer %u\n", n,
                stage_names[n],
                stage_names[composed.best.pattern.function(n)],
                composed.best.mapping[n].host);
  }

  // Sanity: how close is the bounded search to exhaustive flooding?
  core::OptimalComposer optimal(deployment, *scenario->alloc,
                                *scenario->evaluator);
  for (core::HoldId h : composed.best_holds) scenario->alloc->release_hold(h);
  core::BaselineResult exhaustive = optimal.compose(request);
  if (exhaustive.success) {
    std::printf("\nexhaustive flooding examined %zu graphs; best psi %.3f "
                "(BCP reached %.3f with %llu probes)\n",
                exhaustive.candidates_examined, exhaustive.best.psi_cost,
                composed.best.psi_cost,
                (unsigned long long)composed.stats.probes_spawned);
  }
  return 0;
}
