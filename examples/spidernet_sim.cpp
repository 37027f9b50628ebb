// spidernet_sim — configurable command-line driver for the simulator.
//
// Runs a SpiderNet deployment under an open-loop composition workload with
// optional churn and prints a one-page report: success rate, message
// overhead, setup-time distribution, recovery statistics.
//
//   ./build/examples/spidernet_sim --peers 300 --workload 100 --budget 64
//       --units 30 --churn 0.01 --seed 7
//
// Flags (all optional):
//   --peers N         overlay size                    (default 200)
//   --ip N            IP network size                 (default peers*8)
//   --functions N     catalog size                    (default 80)
//   --workload R      requests per time unit          (default 50)
//   --units N         measured time units             (default 20)
//   --budget B        BCP probing budget              (default 64)
//   --churn F         peer failure fraction per unit  (default 0)
//   --backups N       backup upper bound (0=off)      (default 3)
//   --seed S          RNG seed                        (default 42)
//   --spec FILE       compose ONE request parsed from a spec file (see
//                     src/service/request_spec.hpp for the format) instead
//                     of running the workload
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/session.hpp"
#include "service/request_spec.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace spider;

namespace {

double flag(int argc, char** argv, const char* name, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

const char* string_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

/// Parses the spec, guarantees each named function has replicas, composes
/// once and prints the selected graph.
int run_spec(workload::Scenario& s, core::BcpEngine& bcp, const char* path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open spec file: %s\n", path);
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::string error;
  auto parsed = service::parse_request_spec(buffer.str(),
                                            s.deployment->catalog(), &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "spec error: %s\n", error.c_str());
    return 1;
  }

  // Named functions that nothing provides yet get three fresh replicas.
  for (service::FnNode n = 0; n < parsed->request.graph.node_count(); ++n) {
    const auto fn = parsed->request.graph.function(n);
    if (!s.deployment->replicas_oracle(fn).empty()) continue;
    for (int r = 0; r < 3; ++r) {
      service::ServiceComponent c;
      c.host = overlay::PeerId(s.rng.next_below(s.deployment->peer_count()));
      c.function = fn;
      c.perf = service::Qos::delay_loss(s.rng.next_double(5, 40), 0.0);
      c.required = service::Resources::cpu_mem(6, 6);
      c.output_level = parsed->request.min_dest_level;  // deliverable
      s.deployment->deploy_component(c);
    }
  }

  service::CompositeRequest req = parsed->request;
  req.source = 0;
  req.dest = overlay::PeerId(s.deployment->peer_count() - 1);
  core::ComposeResult r = bcp.compose(req, s.rng);
  if (!r.success) {
    std::printf("no qualified composition for the spec\n");
    return 1;
  }
  std::printf("composed '%s' spec: psi=%.3f delay=%.0f ms, %llu qualified\n",
              path, r.best.psi_cost, r.best.qos.delay_ms(),
              (unsigned long long)r.stats.qualified_found);
  for (service::FnNode n = 0; n < r.best.pattern.node_count(); ++n) {
    std::printf("  %-16s -> peer %u\n",
                parsed->function_names[n].c_str(), r.best.mapping[n].host);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto peers = std::size_t(flag(argc, argv, "--peers", 200));
  const auto ip_nodes =
      std::size_t(flag(argc, argv, "--ip", double(peers) * 8));
  const auto functions = std::size_t(flag(argc, argv, "--functions", 80));
  const double workload = flag(argc, argv, "--workload", 50);
  const auto units = std::size_t(flag(argc, argv, "--units", 20));
  const int budget = int(flag(argc, argv, "--budget", 64));
  const double churn = flag(argc, argv, "--churn", 0.0);
  const int backups = int(flag(argc, argv, "--backups", 3));
  const auto seed = std::uint64_t(flag(argc, argv, "--seed", 42));

  workload::SimScenarioConfig config;
  config.seed = seed;
  config.ip_nodes = ip_nodes;
  config.peers = peers;
  config.function_count = functions;
  auto s = workload::build_sim_scenario(config);
  auto& sim = s->sim;

  core::BcpConfig bcp_config;
  bcp_config.probing_budget = budget;
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, sim,
                      bcp_config);
  core::RecoveryConfig rec;
  rec.proactive = backups > 0;
  rec.backup_upper_bound = backups;
  rec.backup_aggressiveness = 3.0;
  core::SessionManager manager(*s->deployment, *s->alloc, *s->evaluator, bcp,
                               sim, rec);

  if (const char* spec = string_flag(argc, argv, "--spec")) {
    return run_spec(*s, bcp, spec);
  }

  workload::RequestProfile profile;
  profile.mean_session_duration = 5.0;

  RatioCounter success;
  SampleStats setup_ms, psi, probes;
  std::uint64_t messages = 0;

  // Arrivals.
  for (std::size_t unit = 0; unit < units; ++unit) {
    for (std::size_t k = 0; k < std::size_t(workload); ++k) {
      const double at =
          double(unit) * 1000.0 + s->rng.next_double() * 1000.0;
      sim.schedule_at(at, [&] {
        auto gen = workload::sample_request(*s, profile);
        core::ComposeResult r = bcp.compose(gen.request, s->rng);
        messages += r.stats.probe_messages + r.stats.discovery_messages;
        if (!r.success) {
          success.record(false);
          return;
        }
        setup_ms.add(r.stats.setup_time_ms);
        psi.add(r.best.psi_cost);
        probes.add(double(r.stats.probes_spawned));
        const core::SessionId id =
            manager.establish(gen.request, std::move(r));
        success.record(id != core::kInvalidSession);
        if (id != core::kInvalidSession) {
          sim.schedule_after(gen.duration * 1000.0,
                             [&, id] { manager.teardown(id); });
        }
      });
    }
  }
  // Churn.
  if (churn > 0.0) {
    for (std::size_t unit = 1; unit <= units; ++unit) {
      sim.schedule_at(double(unit) * 1000.0, [&] {
        const auto live = s->deployment->live_peers();
        const auto kills = std::max<std::size_t>(
            1, std::size_t(double(live.size()) * churn));
        for (std::size_t k = 0; k < kills; ++k) {
          const auto survivors = s->deployment->live_peers();
          if (survivors.size() <= 2) break;
          const auto victim = survivors[s->rng.next_below(survivors.size())];
          s->deployment->kill_peer(victim);
          manager.on_peer_failed(victim, s->rng);
          sim.schedule_after(s->rng.next_exponential(10.0) * 1000.0,
                             [&, victim] {
                               s->deployment->revive_peer(victim);
                             });
        }
        manager.run_maintenance();
      });
    }
  }
  sim.run_until(double(units + 1) * 1000.0);

  std::printf("SpiderNet simulation report\n");
  std::printf("---------------------------\n");
  std::printf("deployment : %zu peers / %zu IP nodes / %zu functions, "
              "seed %llu\n", peers, ip_nodes, functions,
              (unsigned long long)seed);
  std::printf("workload   : %.0f req/unit x %zu units, budget %d, "
              "churn %.1f%%/unit\n", workload, units, budget, churn * 100.0);
  std::printf("success    : %.3f (%llu/%llu requests)\n", success.ratio(),
              (unsigned long long)success.hits,
              (unsigned long long)success.total);
  if (!setup_ms.empty()) {
    std::printf("setup time : %s ms\n", setup_ms.summary().c_str());
    std::printf("psi        : mean %.3f\n", psi.mean());
    std::printf("probes/req : mean %.1f\n", probes.mean());
  }
  std::printf("messages   : %llu total (%.1f per request)\n",
              (unsigned long long)messages,
              success.total ? double(messages) / double(success.total) : 0.0);
  const auto& st = manager.stats();
  if (churn > 0.0) {
    std::printf("recovery   : breaks=%llu fast=%llu reactive=%llu lost=%llu "
                "(avg %.2f backups)\n",
                (unsigned long long)st.breaks,
                (unsigned long long)st.backup_switches,
                (unsigned long long)st.reactive_recoveries,
                (unsigned long long)st.losses, st.avg_backups());
  }
  std::printf("active sessions at end: %zu\n", manager.active_sessions());
  return 0;
}
