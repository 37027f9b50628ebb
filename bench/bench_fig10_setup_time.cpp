// Figure 10 — "Service session setup time in wide-area networks."
//
// Paper setup (§6.2): 102 PlanetLab hosts across the US and Europe, >500
// requests, composite requests of 2–6 functions; the bar chart stacks
// decentralized service discovery time on top of composition time
// (probing + session initialization), totalling a few seconds per session.
//
// We drive the same flow over the synthetic PlanetLab delay model: per
// request, BCP reports the critical-path discovery share, probing time
// and the ack/confirm leg. Each function count k is an isolated campaign
// cell — its own scenario, BCP engine, metrics registry and a request
// stream derived from util::hash_values(seed, k) — so the cells run
// --jobs at a time with byte-identical output at any parallelism.
#include <cstdio>

#include "bench_common.hpp"
#include "core/bcp.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace spider;
using namespace spider::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, kJobsFlag | kMetricsOutFlag);

  workload::PlanetLabScenarioConfig scenario;
  scenario.seed = args.seed;
  const std::size_t requests_per_k = args.scale == 0 ? 40
                                     : args.scale == 2 ? 200
                                                       : 100;

  std::printf("Figure 10: service session setup time (synthetic PlanetLab, "
              "%zu hosts)\n", scenario.hosts);
  std::printf("%zu requests per function count, seed=%llu\n\n", requests_per_k,
              (unsigned long long)args.seed);

  struct KCell {
    SampleStats discovery, composition, total;
    RatioCounter success;
    obs::MetricsRegistry metrics;
  };
  const std::size_t k_min = 2, k_max = 6;
  std::vector<KCell> cells(k_max - k_min + 1);
  const bool with_metrics = !args.metrics_out.empty();

  util::parallel_for_each(args.jobs, cells.size(), [&](std::size_t idx) {
    const std::size_t k = k_min + idx;
    KCell& cell = cells[idx];
    auto s = workload::build_planetlab_scenario(scenario);
    // Independent per-cell request stream (the serial version threaded
    // one mutable RNG through the whole k-loop, which would serialize
    // the cells); the world itself is identical across cells.
    s->rng.reseed(util::hash_values(args.seed, k));
    core::BcpConfig bcp_config;
    bcp_config.probing_budget = 60;
    bcp_config.probe_timeout_ms = 60000.0;
    core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                        bcp_config);
    if (with_metrics) {
      bcp.set_observability(&cell.metrics, nullptr);
      s->alloc->set_metrics(&cell.metrics);
      s->deployment->registry().set_metrics(&cell.metrics);
      s->deployment->dht().set_metrics(&cell.metrics);
    }

    for (std::size_t i = 0; i < requests_per_k; ++i) {
      // k distinct functions out of the six multimedia ones.
      std::vector<service::FunctionId> fns;
      for (std::size_t idx2 : s->rng.sample_indices(6, k)) {
        fns.push_back(service::FunctionId(idx2));
      }
      service::CompositeRequest req;
      req.graph = service::make_linear_graph(fns);
      req.qos_req = service::Qos::delay_loss(60000.0, 1.0);
      req.bandwidth_kbps = 100.0;
      req.source = overlay::PeerId(s->rng.next_below(scenario.hosts));
      do {
        req.dest = overlay::PeerId(s->rng.next_below(scenario.hosts));
      } while (req.dest == req.source);

      core::ComposeResult r = bcp.compose(req, s->rng);
      cell.success.record(r.success);
      if (!r.success) continue;
      for (core::HoldId h : r.best_holds) s->alloc->release_hold(h);
      cell.discovery.add(r.stats.discovery_time_ms);
      cell.composition.add(r.stats.setup_time_ms - r.stats.discovery_time_ms);
      cell.total.add(r.stats.setup_time_ms);
    }
  });

  obs::MetricsRegistry metrics;
  Table table({"functions", "discovery (ms)", "composition (ms)",
               "total setup (ms)", "success"});
  for (std::size_t idx = 0; idx < cells.size(); ++idx) {
    KCell& cell = cells[idx];
    if (with_metrics) metrics.merge(cell.metrics);
    table.add_row({std::to_string(k_min + idx), fmt(cell.discovery.mean(), 0),
                   fmt(cell.composition.mean(), 0), fmt(cell.total.mean(), 0),
                   fmt(cell.success.ratio(), 2)});
  }
  table.print();
  std::printf(
      "\npaper shape: setup time grows with the function number and stays "
      "within a few seconds; discovery contributes a significant, roughly "
      "constant-per-function share.\n");
  maybe_write_metrics(args, metrics);
  return 0;
}
