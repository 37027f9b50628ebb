// Proactive failure recovery in action (§5).
//
// Establishes a long-lived streaming session with backup service graphs,
// then repeatedly kills peers of the active graph and shows the session
// switching to backups (fast path) or falling back to reactive BCP (slow
// path) until the request can no longer be served.
//
// Build: cmake --build build && ./build/examples/failure_recovery_demo
#include <cstdio>

#include "core/bcp.hpp"
#include "core/session.hpp"
#include "workload/scenario.hpp"

using namespace spider;

namespace {

void print_graph(const core::Deployment& deployment,
                 const service::ServiceGraph& graph) {
  for (service::FnNode n = 0; n < graph.pattern.node_count(); ++n) {
    const auto& m = graph.mapping[n];
    std::printf("    %-12s -> peer %u\n",
                deployment.catalog().name(graph.pattern.function(n)).c_str(),
                m.host);
  }
}

}  // namespace

int main() {
  workload::SimScenarioConfig config;
  config.seed = 23;
  config.ip_nodes = 500;
  config.peers = 80;
  config.function_count = 10;
  auto scenario = workload::build_sim_scenario(config);
  auto& deployment = *scenario->deployment;

  core::BcpConfig bcp_config;
  bcp_config.probing_budget = 128;
  core::BcpEngine bcp(deployment, *scenario->alloc, *scenario->evaluator,
                      scenario->sim, bcp_config);
  core::RecoveryConfig rec;
  rec.backup_upper_bound = 4;
  rec.backup_aggressiveness = 3.0;
  core::SessionManager sessions(deployment, *scenario->alloc,
                                *scenario->evaluator, bcp, scenario->sim, rec);

  service::CompositeRequest request;
  request.graph = service::make_linear_graph({0, 1, 2});
  request.qos_req = service::Qos::delay_loss(3000.0, 1.0);
  request.bandwidth_kbps = 200.0;
  request.max_failure_prob = 0.10;
  request.source = 0;
  request.dest = 1;

  core::ComposeResult composed = bcp.compose(request, scenario->rng);
  if (!composed.success) {
    std::printf("initial composition failed\n");
    return 1;
  }
  std::printf("initial composition: %llu qualified graphs found\n",
              (unsigned long long)composed.stats.qualified_found);
  const core::SessionId id = sessions.establish(request, std::move(composed));
  if (id == core::kInvalidSession) {
    std::printf("establish failed\n");
    return 1;
  }
  std::printf("session up with %zu backup graphs:\n",
              sessions.backup_count_of(id));
  print_graph(deployment, *sessions.active_graph(id));

  for (int round = 1; round <= 12; ++round) {
    const service::ServiceGraph* active = sessions.active_graph(id);
    if (active == nullptr) {
      std::printf("\nround %d: session lost — reactive recovery could not "
                  "find a qualified replacement\n", round);
      break;
    }
    const overlay::PeerId victim = active->mapping[0].host;
    std::printf("\nround %d: killing peer %u (hosts the %s component)\n",
                round, victim,
                deployment.catalog()
                    .name(active->pattern.function(0))
                    .c_str());
    deployment.kill_peer(victim);
    const auto outcomes = sessions.on_peer_failed(victim, scenario->rng);
    const char* what = "?";
    switch (outcomes.at(0)) {
      case core::RecoveryOutcome::kNotAffected: what = "not affected"; break;
      case core::RecoveryOutcome::kSwitchedToBackup:
        what = "FAST: switched to a maintained backup graph";
        break;
      case core::RecoveryOutcome::kReactiveRecovered:
        what = "SLOW: re-composed via reactive BCP";
        break;
      case core::RecoveryOutcome::kLost: what = "LOST"; break;
      case core::RecoveryOutcome::kNotificationLost:
        what = "notification lost in transit (monitor will detect)";
        break;
    }
    std::printf("  -> %s\n", what);
    if (sessions.active_graph(id) != nullptr) {
      std::printf("  new active graph (%zu backups remain):\n",
                  sessions.backup_count_of(id));
      print_graph(deployment, *sessions.active_graph(id));
      sessions.run_maintenance();
    }
  }

  const auto& stats = sessions.stats();
  std::printf("\nsummary: breaks=%llu fast=%llu reactive=%llu lost=%llu "
              "(avg %.2f backups, %.2f components replaced per fast switch)\n",
              (unsigned long long)stats.breaks,
              (unsigned long long)stats.backup_switches,
              (unsigned long long)stats.reactive_recoveries,
              (unsigned long long)stats.losses, stats.avg_backups(),
              stats.avg_switch_disruption());
  return 0;
}
