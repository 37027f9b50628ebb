// Ablation A4 — soft resource allocation during probing (§4.2 step 2.1).
//
// The paper's rationale: temporary per-probe allocation "avoids conflicted
// resource admission caused by concurrent probe processing," guaranteeing
// that probed resources are still available when the session is set up.
// We reproduce the race: a burst of requests is composed first (all
// decisions made), then admitted. With soft allocation the composes see
// each other's holds and the admission promise holds; without it, every
// compose sees a full system and admission breaks the promise.
#include <cstdio>

#include "bench_common.hpp"
#include "core/bcp.hpp"
#include "core/session.hpp"
#include "util/parallel.hpp"
#include "workload/scenario.hpp"

using namespace spider;
using namespace spider::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, kJobsFlag);

  workload::SimScenarioConfig scenario;
  scenario.seed = args.seed;
  scenario.ip_nodes = args.scale == 0 ? 600 : 1500;
  scenario.peers = args.scale == 0 ? 60 : 150;
  scenario.function_count = 20;
  // Tight capacity so a burst cannot all fit.
  scenario.peer_cpu_capacity = 40.0;
  scenario.peer_mem_capacity = 40.0;
  const std::size_t burst = args.scale == 0 ? 60 : 150;

  std::printf("Ablation A4: soft resource allocation vs check-only probing\n");
  std::printf("burst of %zu concurrent requests, tight capacity, seed=%llu\n\n",
              burst, (unsigned long long)args.seed);

  Table table({"variant", "compose ok", "admitted", "broken promises",
               "broken rate"});
  // Both variants build their own world — isolated cells run --jobs at a
  // time, rows collected by index so output is byte-identical at any
  // parallelism.
  const std::vector<bool> variants = {true, false};
  std::vector<std::vector<std::string>> rows(variants.size());
  util::parallel_for_each(args.jobs, variants.size(), [&](std::size_t cell) {
    const bool soft = variants[cell];
    auto s = workload::build_sim_scenario(scenario);
    core::BcpConfig config;
    config.probing_budget = 64;
    config.soft_allocation = soft;
    config.probe_timeout_ms = 1e9;  // holds must survive the whole burst
    core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                        config);
    core::RecoveryConfig rec;
    rec.proactive = false;
    core::SessionManager manager(*s->deployment, *s->alloc, *s->evaluator,
                                 bcp, s->sim, rec);

    workload::RequestProfile profile;
    profile.min_functions = 2;
    profile.max_functions = 3;

    // Phase 1: all composes (decisions) before any admission.
    struct Pending {
      service::CompositeRequest req;
      core::ComposeResult result;
    };
    std::vector<Pending> pending;
    std::size_t compose_ok = 0;
    for (std::size_t i = 0; i < burst; ++i) {
      auto gen = workload::sample_request(*s, profile);
      core::ComposeResult r = bcp.compose(gen.request, s->rng);
      if (r.success) {
        ++compose_ok;
        pending.push_back(Pending{gen.request, std::move(r)});
      }
    }
    // Phase 2: admissions.
    std::size_t admitted = 0, broken = 0;
    for (Pending& p : pending) {
      core::SessionId id;
      if (soft) {
        id = manager.establish(p.req, std::move(p.result));
      } else {
        id = manager.establish_direct(p.req, std::move(p.result.best));
      }
      if (id != core::kInvalidSession) {
        ++admitted;
      } else {
        ++broken;  // user was promised a composition that cannot be admitted
      }
    }
    rows[cell] = {soft ? "soft allocation (paper)" : "check-only",
                  std::to_string(compose_ok), std::to_string(admitted),
                  std::to_string(broken),
                  fmt(compose_ok ? double(broken) / double(compose_ok) : 0.0,
                      3)};
  });
  for (auto& row : rows) table.add_row(std::move(row));
  table.print();
  std::printf(
      "\nexpected: with soft allocation every successful compose is "
      "admissible (0 broken promises); check-only probing over-promises "
      "under concurrency and fails at setup.\n");
  return 0;
}
