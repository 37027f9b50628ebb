// Ablation A5 — decentralized trust management (§8 future work,
// implemented in src/trust).
//
// A fifth of the peers are unreliable: they crash far more often than
// their advertised failure probability suggests (advertisements cannot be
// trusted — that is the point). Sessions are composed continuously; every
// break is reported as negative feedback on the crashed peer, every clean
// completion as positive feedback on the component hosts. With the trust
// hook wired into BCP's next-hop metric, later compositions learn to
// avoid unreliable hosts; we compare the break rate of the first vs the
// second half of the run, with and without trust.
#include <cstdio>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "trust/trust.hpp"
#include "util/parallel.hpp"
#include "workload/scenario.hpp"

using namespace spider;
using namespace spider::bench;

namespace {

struct TrustRunResult {
  std::uint64_t breaks_first_half = 0;
  std::uint64_t breaks_second_half = 0;
  std::uint64_t sessions_started = 0;
  double mean_unreliable_uses_late = 0.0;  ///< unreliable hosts per graph
};

TrustRunResult run(const workload::SimScenarioConfig& scenario_config,
                   bool with_trust, std::size_t units,
                   std::size_t target_sessions) {
  auto s = workload::build_sim_scenario(scenario_config);
  auto& sim = s->sim;
  trust::TrustManager trust_mgr(*s->deployment, sim);

  // Mark 20% of peers unreliable (deterministic by seed).
  std::vector<bool> unreliable(s->deployment->peer_count(), false);
  for (std::size_t idx :
       s->rng.sample_indices(s->deployment->peer_count(),
                             s->deployment->peer_count() / 5)) {
    unreliable[idx] = true;
  }

  core::BcpConfig config;
  config.probing_budget = 96;
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, sim, config);
  core::RecoveryConfig rec;
  rec.proactive = false;  // isolate the composition-choice effect
  core::SessionManager manager(*s->deployment, *s->alloc, *s->evaluator, bcp,
                               sim, rec);

  workload::RequestProfile profile;
  profile.min_functions = 2;
  profile.max_functions = 3;
  profile.mean_session_duration = 4.0;

  TrustRunResult result;
  std::unordered_map<core::SessionId,
                     std::pair<overlay::PeerId, std::vector<overlay::PeerId>>>
      session_info;  // source + component hosts
  std::uint64_t unreliable_uses_late = 0, graphs_late = 0;

  auto start_session = [&](double now_units) {
    auto gen = workload::sample_request(*s, profile);
    core::BcpConfig per = config;
    if (with_trust) per.trust_fn = trust_mgr.trust_fn(gen.request.source);
    bcp.set_config(per);
    core::ComposeResult r = bcp.compose(gen.request, s->rng);
    if (!r.success) return;
    std::vector<overlay::PeerId> hosts;
    for (const auto& m : r.best.mapping) hosts.push_back(m.host);
    const core::SessionId id = manager.establish(gen.request, std::move(r));
    if (id == core::kInvalidSession) return;
    ++result.sessions_started;
    if (now_units >= double(units) / 2.0) {
      ++graphs_late;
      for (overlay::PeerId h : hosts) {
        unreliable_uses_late += unreliable[h] ? 1 : 0;
      }
    }
    session_info[id] = {gen.request.source, hosts};
    // Clean completion: positive feedback for every component host.
    sim.schedule_after(
        s->rng.next_exponential(profile.mean_session_duration) * 1000.0,
        [&, id] {
          auto it = session_info.find(id);
          if (it == session_info.end()) return;
          for (overlay::PeerId h : it->second.second) {
            trust_mgr.report(it->second.first, h, true);
          }
          manager.teardown(id);
          session_info.erase(it);
        });
  };

  for (std::size_t unit = 0; unit < units; ++unit) {
    sim.schedule_at(double(unit) * 1000.0 + 1.0, [&, unit] {
      // Unreliable peers crash with 15% probability per unit; reliable
      // peers with 0.2%.
      const auto live = s->deployment->live_peers();
      for (overlay::PeerId p : live) {
        const double crash_p = unreliable[p] ? 0.15 : 0.002;
        if (!s->rng.next_bool(crash_p)) continue;
        s->deployment->kill_peer(p);
        // Sessions on p break: reactive recovery + negative feedback.
        std::vector<core::SessionId> affected;
        for (auto& [id, info] : session_info) {
          for (overlay::PeerId h : info.second) {
            if (h == p) affected.push_back(id);
          }
        }
        for (core::SessionId id : affected) {
          auto& info = session_info[id];
          trust_mgr.report(info.first, p, false);
          if (unit < units / 2) {
            ++result.breaks_first_half;
          } else {
            ++result.breaks_second_half;
          }
        }
        manager.on_peer_failed(p, s->rng);
        // Update host lists for sessions that recovered reactively, drop
        // lost ones.
        for (core::SessionId id : affected) {
          const service::ServiceGraph* g = manager.active_graph(id);
          if (g == nullptr) {
            session_info.erase(id);
          } else {
            auto& hosts = session_info[id].second;
            hosts.clear();
            for (const auto& m : g->mapping) hosts.push_back(m.host);
          }
        }
        // Crashed peers come back quickly (so they stay selectable and
        // only trust, not liveness, can exclude them).
        sim.schedule_after(1500.0, [&, p] { s->deployment->revive_peer(p); });
      }
      // Keep the session population topped up.
      std::size_t guard = 0;
      while (session_info.size() < target_sessions &&
             guard++ < 2 * target_sessions) {
        start_session(double(unit));
      }
    });
  }
  sim.run_until(double(units + 2) * 1000.0);
  result.mean_unreliable_uses_late =
      graphs_late == 0 ? 0.0
                       : double(unreliable_uses_late) / double(graphs_late);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, kJobsFlag);

  workload::SimScenarioConfig scenario;
  scenario.seed = args.seed;
  scenario.ip_nodes = args.scale == 0 ? 600 : 1500;
  scenario.peers = args.scale == 0 ? 80 : 200;
  scenario.function_count = args.scale == 0 ? 16 : 40;
  const std::size_t units = args.scale == 0 ? 30 : 60;
  const std::size_t sessions = args.scale == 0 ? 15 : 30;

  std::printf("Ablation A5: decentralized trust management (src/trust)\n");
  std::printf("20%% of peers crash ~75x more often than advertised\n\n");

  // run() builds a fresh world per variant — isolated cells, --jobs at a
  // time, byte-identical output.
  const std::vector<bool> variants = {false, true};
  std::vector<TrustRunResult> results(variants.size());
  util::parallel_for_each(args.jobs, variants.size(), [&](std::size_t i) {
    results[i] = run(scenario, variants[i], units, sessions);
  });

  Table table({"variant", "breaks (1st half)", "breaks (2nd half)",
               "unreliable hosts/graph (late)", "sessions"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const TrustRunResult& r = results[i];
    table.add_row({variants[i] ? "trust-aware BCP" : "trust off",
                   std::to_string(r.breaks_first_half),
                   std::to_string(r.breaks_second_half),
                   fmt(r.mean_unreliable_uses_late, 2),
                   std::to_string(r.sessions_started)});
  }
  table.print();
  std::printf(
      "\nexpected: without trust the break rate persists; with the trust "
      "hook, negative feedback accumulates in the DHT and later "
      "compositions route around unreliable hosts, cutting second-half "
      "breaks and late-run unreliable-host usage.\n");
  return 0;
}
