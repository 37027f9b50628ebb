// Ablation A3 — backup service graph selection policy (§5.2).
//
// The paper's policy trades failure independence (avoid each component of
// the active graph) against fast switchover (maximize overlap), covering
// bottleneck components first. We compare it against two naive policies —
// uniformly random qualified graphs and maximally disjoint graphs — on a
// churn run, measuring how many active-graph breaks the backups absorb
// and the switchover disruption (components changed per switch).
#include <cstdio>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace spider;
using namespace spider::bench;

namespace {

struct PolicyResult {
  std::uint64_t breaks = 0;
  std::uint64_t switches = 0;
  std::uint64_t reactive = 0;
  std::uint64_t losses = 0;
  double avg_backups = 0.0;
  double avg_disruption = 0.0;  ///< components replaced per fast switch
};

PolicyResult run_policy(const workload::SimScenarioConfig& scenario,
                        core::BackupPolicy policy, std::size_t minutes,
                        std::size_t target_sessions) {
  auto s = workload::build_sim_scenario(scenario);
  auto& sim = s->sim;
  core::BcpConfig bcp_config;
  bcp_config.probing_budget = 128;
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, sim,
                      bcp_config);
  core::RecoveryConfig rec;
  rec.backup_policy = policy;
  rec.backup_aggressiveness = 3.0;  // as in the Fig 9 bench
  core::SessionManager manager(*s->deployment, *s->alloc, *s->evaluator, bcp,
                               sim, rec);

  workload::RequestProfile profile;
  profile.min_functions = 2;
  profile.max_functions = 3;
  profile.mean_session_duration = 1e9;

  auto top_up = [&] {
    std::size_t guard = 0;
    while (manager.active_sessions() < target_sessions &&
           guard++ < 4 * target_sessions) {
      auto gen = workload::sample_request(*s, profile);
      core::ComposeResult r = bcp.compose(gen.request, s->rng);
      if (r.success) manager.establish(gen.request, std::move(r));
    }
  };
  top_up();

  for (std::size_t unit = 0; unit < minutes; ++unit) {
    sim.schedule_at(double(unit + 1) * 1000.0, [&] {
      const auto live = s->deployment->live_peers();
      const auto kills = std::max<std::size_t>(1, live.size() / 100);
      for (std::size_t k = 0; k < kills; ++k) {
        const auto survivors = s->deployment->live_peers();
        if (survivors.size() <= 2) break;
        const overlay::PeerId victim =
            survivors[s->rng.next_below(survivors.size())];
        s->deployment->kill_peer(victim);
        manager.on_peer_failed(victim, s->rng);
        sim.schedule_after(s->rng.next_exponential(10.0) * 1000.0,
                           [&, victim] { s->deployment->revive_peer(victim); });
      }
      manager.run_maintenance();
      top_up();
    });
  }
  sim.run_until(double(minutes + 1) * 1000.0);

  const auto& st = manager.stats();
  return PolicyResult{st.breaks,       st.backup_switches,
                      st.reactive_recoveries, st.losses,
                      st.avg_backups(), st.avg_switch_disruption()};
}

const char* policy_name(core::BackupPolicy policy) {
  switch (policy) {
    case core::BackupPolicy::kSpiderNet: return "spidernet (5.2)";
    case core::BackupPolicy::kRandom: return "random";
    case core::BackupPolicy::kMostDisjoint: return "most-disjoint";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, kJobsFlag);

  workload::SimScenarioConfig scenario;
  scenario.seed = args.seed;
  scenario.ip_nodes = args.scale == 0 ? 600 : 2000;
  scenario.peers = args.scale == 0 ? 100 : 300;
  scenario.function_count = args.scale == 0 ? 30 : 80;
  const std::size_t minutes = args.scale == 0 ? 15 : 40;
  const std::size_t sessions = args.scale == 0 ? 20 : 40;

  std::printf("Ablation A3: backup selection policy under churn\n\n");

  // Each policy run builds its own scenario — isolated cells, so they
  // execute --jobs at a time with byte-identical output.
  const std::vector<core::BackupPolicy> policies = {
      core::BackupPolicy::kSpiderNet, core::BackupPolicy::kRandom,
      core::BackupPolicy::kMostDisjoint};
  std::vector<PolicyResult> results(policies.size());
  util::parallel_for_each(args.jobs, policies.size(), [&](std::size_t i) {
    results[i] = run_policy(scenario, policies[i], minutes, sessions);
  });

  Table table({"policy", "breaks", "fast switches", "reactive", "lost",
               "fast-recovery rate", "avg backups",
               "disruption/switch"});
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const PolicyResult& r = results[i];
    const double fast_rate =
        r.breaks ? double(r.switches) / double(r.breaks) : 0.0;
    table.add_row({policy_name(policies[i]), std::to_string(r.breaks),
                   std::to_string(r.switches), std::to_string(r.reactive),
                   std::to_string(r.losses), fmt(fast_rate, 3),
                   fmt(r.avg_backups, 2), fmt(r.avg_disruption, 2)});
  }
  table.print();
  std::printf(
      "\nexpected: all policies absorb most breaks (the pool is shared), "
      "but the 5.2 policy minimizes switchover disruption — its overlap "
      "preference replaces the fewest components per switch — while "
      "still covering each component of the active graph; most-disjoint "
      "maximizes disruption by construction.\n");
  return 0;
}
