// Ablation A6 — ψ weight customization (Eq. 1).
//
// "We can customize ψ_λ by assigning higher weights to more critical
// resource types." We run the same workload with three weightings —
// balanced, CPU-heavy and bandwidth-heavy — and report how the emphasis
// shifts the post-run utilization spread: the weighted resource ends up
// better balanced (lower utilization of its hottest peers/links) at the
// expense of the de-emphasized ones.
#include <cstdio>

#include "bench_common.hpp"
#include "core/bcp.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace spider;
using namespace spider::bench;

namespace {

struct WeightRun {
  double success = 0.0;
  double cpu_p95_util = 0.0;  ///< 95th-percentile peer CPU utilization
  double bw_p95_util = 0.0;   ///< 95th-percentile link bandwidth utilization
};

WeightRun run_weights(const workload::SimScenarioConfig& scenario_config,
                      const core::PsiWeights& weights, double workload,
                      std::size_t units) {
  auto s = workload::build_sim_scenario(scenario_config);
  s->evaluator->set_weights(weights);
  core::BcpConfig config;
  config.probing_budget = 64;
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                      config);

  workload::RequestProfile profile;
  profile.min_functions = 2;
  profile.max_functions = 3;
  profile.mean_session_duration = 1e9;  // sessions persist: load accumulates

  RatioCounter success;
  for (std::size_t unit = 0; unit < units; ++unit) {
    for (std::size_t k = 0; k < std::size_t(workload); ++k) {
      const double at = double(unit) * 1000.0 + s->rng.next_double() * 1000.0;
      s->sim.schedule_at(at, [&] {
        auto gen = workload::sample_request(*s, profile);
        core::ComposeResult r = bcp.compose(gen.request, s->rng);
        if (!r.success) {
          success.record(false);
          return;
        }
        success.record(
            s->alloc->confirm_all(r.best_holds, s->alloc->new_session_id()));
      });
    }
  }
  s->sim.run();

  WeightRun out;
  out.success = success.ratio();
  SampleStats cpu_util, bw_util;
  for (overlay::PeerId p = 0; p < s->deployment->peer_count(); ++p) {
    const auto cap = s->deployment->capacity(p);
    const auto avail = s->alloc->peer_available(p);
    cpu_util.add(1.0 - avail.cpu() / cap.cpu());
  }
  auto& ov = s->deployment->overlay();
  for (overlay::OverlayLinkId l = 0; l < ov.link_count(); ++l) {
    const double cap = ov.link(l).capacity_kbps;
    if (cap <= 0.0) continue;
    bw_util.add(1.0 - s->alloc->link_available_kbps(l) / cap);
  }
  out.cpu_p95_util = cpu_util.percentile(95);
  out.bw_p95_util = bw_util.percentile(95);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, kJobsFlag);

  workload::SimScenarioConfig scenario;
  scenario.seed = args.seed;
  scenario.ip_nodes = args.scale == 0 ? 600 : 1500;
  scenario.peers = args.scale == 0 ? 80 : 200;
  scenario.function_count = args.scale == 0 ? 20 : 50;
  const double workload = args.scale == 0 ? 10 : 20;
  const std::size_t units = args.scale == 0 ? 6 : 12;

  std::printf("Ablation A6: psi weight customization (Eq. 1)\n");
  std::printf("persistent sessions accumulate load; p95 utilization of the "
              "hottest peers/links shows where each weighting balances\n\n");

  struct Variant {
    const char* name;
    core::PsiWeights weights;
  };
  std::vector<Variant> variants;
  variants.push_back({"balanced (0.4/0.3/0.3)", core::PsiWeights{}});
  variants.push_back({"cpu-heavy (0.8/0.1/0.1)",
                      core::PsiWeights{{0.8, 0.1}, 0.1}});
  variants.push_back({"bandwidth-heavy (0.1/0.1/0.8)",
                      core::PsiWeights{{0.1, 0.1}, 0.8}});

  // run_weights builds a fresh world per weighting — isolated cells,
  // --jobs at a time, byte-identical output.
  std::vector<WeightRun> results(variants.size());
  util::parallel_for_each(args.jobs, variants.size(), [&](std::size_t i) {
    results[i] = run_weights(scenario, variants[i].weights, workload, units);
  });

  Table table({"weighting", "success", "p95 peer CPU util",
               "p95 link bw util"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const WeightRun& r = results[i];
    table.add_row({variants[i].name, fmt(r.success, 3), fmt(r.cpu_p95_util, 3),
                   fmt(r.bw_p95_util, 3)});
  }
  table.print();
  std::printf(
      "\nexpected: emphasizing a resource in psi steers selection away "
      "from its hot spots, lowering that resource's p95 utilization "
      "relative to the other weightings.\n");
  return 0;
}
