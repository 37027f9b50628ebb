// Quickstart: the smallest end-to-end SpiderNet program.
//
//  1. Build a P2P service overlay (power-law IP network, overlay mesh,
//     Pastry DHT) with components deployed across peers.
//  2. Submit a composite service request (linear function graph + QoS).
//  3. Run bounded composition probing (BCP) and inspect the chosen
//     service graph.
//  4. Establish the session (confirm the soft-allocated resources), then
//     tear it down.
//  5. Inspect the run through the observability layer: per-request probe
//     trace counts and the cumulative metrics registry, optionally dumped
//     as JSON with --metrics-out <file>.json.
//
// Build: cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <cstring>

#include "core/bcp.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/scenario.hpp"

using namespace spider;

int main(int argc, char** argv) {
  const char* metrics_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[i + 1];
      ++i;
    }
  }

  // 1. A small deployment: 400-node IP network, 60 peers, 12 functions.
  workload::SimScenarioConfig config;
  config.seed = 7;
  config.ip_nodes = 400;
  config.peers = 60;
  config.function_count = 12;
  auto scenario = workload::build_sim_scenario(config);
  auto& deployment = *scenario->deployment;
  std::printf("deployment: %zu peers, %zu components, %zu functions\n",
              deployment.peer_count(), deployment.component_count(),
              deployment.catalog().size());

  // 2. Compose "fn/0 -> fn/1 -> fn/2" from peer 3 to peer 42 with a
  //    1.5-second end-to-end delay bound and a 300 kbps stream.
  service::CompositeRequest request;
  request.graph = service::make_linear_graph({0, 1, 2});
  request.qos_req = service::Qos::delay_loss(1500.0, service::loss_to_additive(0.05));
  request.bandwidth_kbps = 300.0;
  request.max_failure_prob = 0.3;
  request.source = 3;
  request.dest = 42;

  // 3. Bounded composition probing, with the observability layer attached:
  //    the registry collects cumulative counters from every instrumented
  //    subsystem, the trace records this request's per-probe events.
  core::BcpConfig bcp_config;
  bcp_config.probing_budget = 32;
  core::BcpEngine bcp(deployment, *scenario->alloc, *scenario->evaluator,
                      scenario->sim, bcp_config);
  obs::MetricsRegistry metrics;
  obs::ProbeTrace trace;
  bcp.set_observability(&metrics, &trace);
  scenario->alloc->set_metrics(&metrics);
  deployment.registry().set_metrics(&metrics);
  deployment.dht().set_metrics(&metrics);
  core::ComposeResult composed = bcp.compose(request, scenario->rng);
  if (!composed.success) {
    std::printf("no qualified composition found\n");
    return 1;
  }
  std::printf("\ncomposed! probes=%llu messages=%llu candidates=%llu "
              "qualified=%llu setup=%.0f ms\n",
              (unsigned long long)composed.stats.probes_spawned,
              (unsigned long long)composed.stats.probe_messages,
              (unsigned long long)composed.stats.candidates_merged,
              (unsigned long long)composed.stats.qualified_found,
              composed.stats.setup_time_ms);
  std::printf("selected service graph (psi=%.3f, delay=%.0f ms, "
              "fail-prob=%.3f):\n", composed.best.psi_cost,
              composed.best.qos.delay_ms(), composed.best.failure_prob);
  for (service::FnNode n = 0; n < composed.best.pattern.node_count(); ++n) {
    const auto& m = composed.best.mapping[n];
    std::printf("  %s -> component %llu on peer %u (perf %.0f ms)\n",
                deployment.catalog().name(composed.best.pattern.function(n)).c_str(),
                (unsigned long long)m.id, m.host, m.perf.delay_ms());
  }
  std::printf("  %zu backup-capable qualified graphs available\n",
              composed.backups.size());

  // 4. Establish (confirms soft holds into a session) and tear down.
  core::RecoveryConfig recovery;
  recovery.backup_aggressiveness = 3.0;  // keep a few backups even with
                                         // comfortable QoS margins
  core::SessionManager sessions(deployment, *scenario->alloc,
                                *scenario->evaluator, bcp, scenario->sim,
                                recovery);
  sessions.set_metrics(&metrics);
  const core::SessionId id = sessions.establish(request, std::move(composed));
  if (id == core::kInvalidSession) {
    std::printf("admission lost (holds expired)\n");
    return 1;
  }
  std::printf("\nsession %llu established with %zu backup graphs\n",
              (unsigned long long)id, sessions.backup_count_of(id));
  sessions.teardown(id);
  std::printf("session torn down; all resources released\n");

  // 5. What the observability layer saw.
  std::printf("\nprobe trace: %zu events (%llu hops, %llu drops, "
              "%llu skips, %llu holds acquired, %llu reused)\n",
              trace.events().size(),
              (unsigned long long)trace.count(obs::TraceEvent::kHopTaken),
              (unsigned long long)trace.count(obs::TraceEvent::kProbeDropped),
              (unsigned long long)trace.count(obs::TraceEvent::kCandidateSkipped),
              (unsigned long long)trace.count(obs::TraceEvent::kHoldAcquired),
              (unsigned long long)trace.count(obs::TraceEvent::kHoldReused));
  std::printf("metrics registry: %zu instruments\n", metrics.size());
  if (metrics_out != nullptr) {
    if (metrics.write_json(metrics_out)) {
      std::printf("metrics written to %s\n", metrics_out);
    } else {
      std::fprintf(stderr, "failed to write %s\n", metrics_out);
      return 1;
    }
  }
  return 0;
}
