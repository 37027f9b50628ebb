// Figure 8 — "Performance comparison among different approaches."
//
// Paper setup (§6.1): 10,000-node Inet IP network, 1,000 overlay peers,
// 1–3 components per peer drawn from 200 functions; composition success
// rate vs workload (requests per time unit) for optimal (unbounded
// flooding), probing-0.2, probing-0.1, random and static.
//
// Expected shape: optimal ≳ probing-0.2 ≳ probing-0.1 ≫ random > static,
// all decaying as the workload saturates peer resources. Default scale is
// reduced (see DESIGN.md) so the whole sweep runs in minutes; --full
// approaches the paper's dimensions.
#include <cstdio>

#include "bench_common.hpp"
#include "fig_driver.hpp"

using namespace spider;
using namespace spider::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, kJobsFlag | kMetricsOutFlag);

  CampaignConfig config;
  config.scenario.seed = args.seed;
  switch (args.scale) {
    case 0:  // quick smoke
      config.scenario.ip_nodes = 600;
      config.scenario.peers = 100;
      config.scenario.function_count = 40;
      config.warmup_units = 2;
      config.measure_units = 6;
      break;
    case 2:  // paper scale
      config.scenario.ip_nodes = 10000;
      config.scenario.peers = 1000;
      config.scenario.function_count = 200;
      config.warmup_units = 10;
      config.measure_units = 60;
      break;
    default:
      config.scenario.ip_nodes = 2000;
      config.scenario.peers = 300;
      config.scenario.function_count = 100;
      config.warmup_units = 5;
      config.measure_units = 20;
      break;
  }
  config.profile.min_functions = 2;
  config.profile.max_functions = 4;
  config.profile.mean_session_duration = 5.0;

  const std::vector<double> workloads = {50, 100, 150, 200, 250};

  std::printf("Figure 8: composition success ratio vs workload\n");
  std::printf("scenario: ip=%zu peers=%zu functions=%zu seed=%llu scale=%d\n\n",
              config.scenario.ip_nodes, config.scenario.peers,
              config.scenario.function_count,
              (unsigned long long)args.seed, args.scale);

  struct Series {
    Algo algo;
    double fraction;
    const char* label;
  };
  const std::vector<Series> series = {
      {Algo::kOptimal, 0.0, "optimal"},
      {Algo::kProbing, 0.2, "probing-0.2"},
      {Algo::kProbing, 0.1, "probing-0.1"},
      {Algo::kRandom, 0.0, "random"},
      {Algo::kStatic, 0.0, "static"},
  };

  // Every (workload, series) coordinate is an isolated cell; the runner
  // executes them --jobs at a time with byte-identical output at any
  // parallelism. Per-cell registries merged in cell order reproduce the
  // old shared-registry accumulation exactly.
  std::vector<CampaignCell> cells;
  for (double workload : workloads) {
    for (const Series& sr : series) {
      CampaignCell cell;
      cell.config = config;
      cell.config.budget_fraction = sr.fraction;
      cell.algo = sr.algo;
      cell.workload = workload;
      cells.push_back(cell);
    }
  }
  const bool with_metrics = !args.metrics_out.empty();
  const auto outputs = run_campaign_cells(cells, args.jobs, with_metrics);

  obs::MetricsRegistry metrics;
  Table table({"workload (req/unit)", "optimal", "probing-0.2", "probing-0.1",
               "random", "static"});
  std::size_t cell_index = 0;
  for (double workload : workloads) {
    std::vector<std::string> row{fmt(workload, 0)};
    for (const Series& sr : series) {
      const CampaignCellOutput& out = outputs[cell_index++];
      const CampaignResult& r = out.result;
      if (with_metrics) metrics.merge(out.metrics);
      row.push_back(fmt(r.success.ratio(), 3));
      std::fprintf(stderr, "  [fig8] %-12s workload=%3.0f success=%.3f (%llu req)\n",
                   sr.label, workload, r.success.ratio(),
                   (unsigned long long)r.requests);
    }
    table.add_row(row);
  }
  table.print();
  std::printf(
      "\npaper shape: optimal >= probing-0.2 >= probing-0.1 >> random > "
      "static, all decreasing with workload.\n");
  maybe_write_metrics(args, metrics);
  return 0;
}
