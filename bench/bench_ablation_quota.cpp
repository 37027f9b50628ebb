// Ablation A2 — probing quota policy (§4.1).
//
// The paper suggests assigning higher probing quotas to functions with
// more duplicated components. We skew function popularity (Zipf) so that
// replica counts vary widely, then compare uniform quotas against
// replica-proportional quotas at the same total probing budget.
#include <cstdio>

#include "bench_common.hpp"
#include "fig_driver.hpp"

using namespace spider;
using namespace spider::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, kJobsFlag);

  CampaignConfig config;
  config.scenario.seed = args.seed;
  config.scenario.ip_nodes = args.scale == 0 ? 600 : 2000;
  config.scenario.peers = args.scale == 0 ? 100 : 300;
  config.scenario.function_count = args.scale == 0 ? 40 : 80;
  config.scenario.function_zipf_s = 0.9;  // skewed replica counts
  config.warmup_units = 3;
  config.measure_units = args.scale == 0 ? 8 : 15;
  config.budget_fraction = 0.15;
  config.profile.min_functions = 3;
  config.profile.max_functions = 4;

  std::printf("Ablation A2: probing quota policy under skewed replication\n\n");

  const std::vector<double> workloads = {50.0, 100.0, 150.0};
  const std::vector<core::QuotaPolicy> policies = {
      core::QuotaPolicy::kReplicaProportional, core::QuotaPolicy::kUniform};
  std::vector<CampaignCell> cells;
  for (double workload : workloads) {
    for (auto policy : policies) {
      CampaignCell cell;
      cell.config = config;
      cell.config.quota_policy = policy;
      cell.workload = workload;
      cells.push_back(cell);
    }
  }
  const auto outputs = run_campaign_cells(cells, args.jobs);

  Table table({"workload", "quota policy", "success", "mean psi",
               "candidates/req"});
  std::size_t cell_index = 0;
  for (double workload : workloads) {
    for (auto policy : policies) {
      const CampaignResult& r = outputs[cell_index++].result;
      table.add_row({fmt(workload, 0),
                     policy == core::QuotaPolicy::kUniform
                         ? "uniform"
                         : "replica-proportional",
                     fmt(r.success.ratio(), 3),
                     r.selected_psi.empty() ? "-" : fmt(r.selected_psi.mean(), 3),
                     fmt(r.candidates.mean(), 1)});
    }
  }
  table.print();
  std::printf(
      "\nexpected: replica-proportional quotas spend the budget where the "
      "candidate space is, improving success/quality over uniform quotas "
      "when replication is skewed.\n");
  return 0;
}
