// Ablation A1 — exchangeable composition orders (§2.4, §4.2 step 2.2).
//
// The paper argues commutation links enlarge the candidate space and
// enhance composed service quality. The mechanism is easiest to see with
// the §2.2 quality-level dimension (the paper's own example — color
// filter vs image scaling — is about data compatibility): with leveled
// components, one composition order may dead-end on an incompatible
// Q_out→Q_in link while the exchanged order remains feasible. We run the
// same workload (every request carrying commutation links, components
// with random I/O levels) with pattern exploration on vs off.
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
  config.warmup_units = 3;
  config.measure_units = args.scale == 0 ? 8 : 15;
  config.budget_fraction = 0.2;
  // Leveled components: order feasibility depends on Q_out -> Q_in chains.
  config.scenario.max_quality_level = 2;
  config.profile.source_level = 2;
  config.profile.min_dest_level = 0;
  config.profile.min_functions = 3;
  config.profile.max_functions = 4;
  config.profile.commutation_probability = 1.0;  // every request commutable
  config.profile.delay_slack_min = 1.2;
  config.profile.delay_slack_max = 2.0;

  std::printf("Ablation A1: commutation-derived composition patterns\n\n");

  const std::vector<double> workloads = {50.0, 100.0, 150.0};
  const std::vector<bool> variants = {true, false};
  std::vector<CampaignCell> cells;
  for (double workload : workloads) {
    for (bool commutation : variants) {
      CampaignCell cell;
      cell.config = config;
      cell.config.use_commutation = commutation;
      cell.workload = workload;
      cells.push_back(cell);
    }
  }
  const auto outputs = run_campaign_cells(cells, args.jobs);

  Table table({"workload", "variant", "success", "mean psi", "mean delay (ms)",
               "candidates/req"});
  std::size_t cell_index = 0;
  for (double workload : workloads) {
    for (bool commutation : variants) {
      const CampaignResult& r = outputs[cell_index++].result;
      table.add_row({fmt(workload, 0),
                     commutation ? "with commutation" : "without",
                     fmt(r.success.ratio(), 3),
                     r.selected_psi.empty() ? "-" : fmt(r.selected_psi.mean(), 3),
                     r.selected_delay.empty() ? "-" : fmt(r.selected_delay.mean(), 0),
                     fmt(r.candidates.mean(), 1)});
    }
  }
  table.print();
  std::printf(
      "\nexpected: exploring exchanged orders examines more candidates and "
      "admits more (or better-quality) compositions under tight QoS.\n");
  return 0;
}
