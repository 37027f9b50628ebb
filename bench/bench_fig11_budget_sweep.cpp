// Figure 11 — "Performance comparison among random, SpiderNet, and optimal
// algorithms."
//
// Paper setup (§6.2): 102 PlanetLab hosts, six functions with ~17 replicas
// each, requests composing three different functions, objective = minimum
// end-to-end service delay. The optimal algorithm floods all 17^3 = 4913
// candidate graphs; SpiderNet sweeps the probing budget from 10 to 1000
// and its average delay falls toward the optimal, reaching near-optimal
// around budget ≈ 200 (4% of optimal's probes); very low budgets
// degenerate into the random algorithm.
//
// Campaign structure: one cell for the random/optimal baselines plus one
// cell per probing budget. Every cell is an isolated world that rebuilds
// the same scenario and regenerates the identical request set from a
// dedicated util::hash_values-derived stream (so all algorithms still see
// the same work), while probe tie-breaking uses a per-cell stream derived
// from (seed, budget). Cells run --jobs at a time with byte-identical
// output at any parallelism.
#include <cstdio>

#include "bench_common.hpp"
#include "core/baselines.hpp"
#include "core/bcp.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace spider;
using namespace spider::bench;

namespace {

struct Case {
  service::CompositeRequest req;
};

// Stream tags for util::hash_values(seed, tag, ...) derivations.
enum : std::uint64_t { kCasesStream = 1, kBaselineStream = 2, kBudgetStream = 3 };

/// The shared request set: every cell regenerates the identical list from
/// the same derived stream, so all algorithms see the same work.
std::vector<Case> make_cases(std::uint64_t seed, std::size_t requests,
                             std::size_t hosts) {
  Rng rng(util::hash_values(seed, kCasesStream));
  std::vector<Case> cases;
  for (std::size_t i = 0; i < requests; ++i) {
    std::vector<service::FunctionId> fns;
    for (std::size_t idx : rng.sample_indices(6, 3)) {
      fns.push_back(service::FunctionId(idx));
    }
    Case c;
    c.req.graph = service::make_linear_graph(fns);
    c.req.qos_req = service::Qos::delay_loss(60000.0, 1.0);
    c.req.bandwidth_kbps = 0.0;  // pure delay study, as in the paper
    c.req.source = overlay::PeerId(rng.next_below(hosts));
    do {
      c.req.dest = overlay::PeerId(rng.next_below(hosts));
    } while (c.req.dest == c.req.source);
    cases.push_back(std::move(c));
  }
  return cases;
}

core::BcpConfig make_bcp_config() {
  core::BcpConfig config;
  config.objective = core::SelectionObjective::kMinDelay;
  config.probe_timeout_ms = 60000.0;
  config.max_quota = 17;  // allow wide fanout at large budgets
  config.quota_base = 17;
  config.max_candidates = 8192;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, kJobsFlag);

  workload::PlanetLabScenarioConfig scenario;
  scenario.seed = args.seed;
  const std::size_t requests = args.scale == 0 ? 30
                               : args.scale == 2 ? 200
                                                 : 80;
  const std::vector<int> budgets = {1, 10, 100, 200, 300, 400, 500, 1000};

  // Cell 0: the random/optimal baselines; cells 1..n: one per budget.
  struct BaselineCell {
    SampleStats random_delay, optimal_delay, optimal_probes;
  } baseline;
  struct BudgetCell {
    SampleStats delay, probes;
  };
  std::vector<BudgetCell> budget_cells(budgets.size());

  util::parallel_for_each(args.jobs, budgets.size() + 1, [&](std::size_t idx) {
    auto s = workload::build_planetlab_scenario(scenario);
    const auto cases = make_cases(args.seed, requests, scenario.hosts);
    if (idx == 0) {
      s->rng.reseed(util::hash_values(args.seed, kBaselineStream));
      core::OptimalComposer optimal(*s->deployment, *s->alloc, *s->evaluator);
      core::RandomComposer random_composer(*s->deployment, *s->evaluator);
      for (const Case& c : cases) {
        core::BaselineResult rr = random_composer.compose(c.req, s->rng);
        if (rr.success) baseline.random_delay.add(rr.best.qos.delay_ms());
        core::BaselineResult ro =
            optimal.compose(c.req, core::Objective::kMinDelay);
        if (ro.success) {
          baseline.optimal_delay.add(ro.best.qos.delay_ms());
          baseline.optimal_probes.add(double(ro.messages));
        }
      }
      return;
    }
    const int budget = budgets[idx - 1];
    BudgetCell& cell = budget_cells[idx - 1];
    s->rng.reseed(
        util::hash_values(args.seed, kBudgetStream, std::uint64_t(budget)));
    core::BcpConfig config = make_bcp_config();
    config.probing_budget = budget;
    core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                        config);
    for (const Case& c : cases) {
      core::ComposeResult r = bcp.compose(c.req, s->rng);
      if (!r.success) continue;
      for (core::HoldId h : r.best_holds) s->alloc->release_hold(h);
      cell.delay.add(r.best.qos.delay_ms());
      cell.probes.add(double(r.stats.probes_spawned));
    }
  });

  std::printf("Figure 11: average end-to-end delay vs probing budget\n");
  std::printf("hosts=%zu, 3 functions/request, %zu requests, seed=%llu\n",
              scenario.hosts, requests, (unsigned long long)args.seed);
  std::printf("optimal explores on average %.0f candidate graphs "
              "(paper: 17^3 = 4913)\n\n", baseline.optimal_probes.mean());

  Table table({"probing budget", "SpiderNet delay (ms)", "random (ms)",
               "optimal (ms)", "probes used"});
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    table.add_row({std::to_string(budgets[i]), fmt(budget_cells[i].delay.mean(), 0),
                   fmt(baseline.random_delay.mean(), 0),
                   fmt(baseline.optimal_delay.mean(), 0),
                   fmt(budget_cells[i].probes.mean(), 0)});
  }
  table.print();
  std::printf(
      "\npaper shape: SpiderNet's delay falls steeply with budget and "
      "approaches the optimal near budget ~200 (~4%% of the flooding "
      "cost); tiny budgets degenerate toward the random algorithm.\n");
  return 0;
}
