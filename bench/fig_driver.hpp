// Simulation campaign driver shared by the Fig 8-style benches (success
// ratio vs workload), the overhead comparison, and the probing ablations.
//
// One "cell" = one algorithm at one workload level: a fresh deterministic
// scenario, a DES-driven open-loop arrival process (`workload` requests
// per time unit), per-request composition + admission, and session
// departures after exponential holding times. The success-rate definition
// follows §6.1: a composition succeeds iff the produced graph satisfies
// the function graph, the user's resource requirements (admission
// succeeds), and the user's QoS requirements.
#pragma once

#include <memory>

#include "core/baselines.hpp"
#include "core/bcp.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

namespace spider::bench {

enum class Algo {
  kOptimal,      ///< unbounded flooding (exhaustive, global view)
  kProbing,      ///< SpiderNet BCP with a budget fraction of optimal's cost
  kRandom,       ///< random replica per function
  kStatic,       ///< pre-defined replica per function
  kCentralized,  ///< global view refreshed periodically (stale snapshots)
};

inline const char* algo_name(Algo algo) {
  switch (algo) {
    case Algo::kOptimal: return "optimal";
    case Algo::kProbing: return "probing";
    case Algo::kRandom: return "random";
    case Algo::kStatic: return "static";
    case Algo::kCentralized: return "centralized";
  }
  return "?";
}

struct CampaignConfig {
  workload::SimScenarioConfig scenario;
  workload::RequestProfile profile;
  double time_unit_ms = 1000.0;
  std::size_t warmup_units = 5;
  std::size_t measure_units = 30;
  /// Budget for Algo::kProbing as a fraction of the optimal probe count
  /// (the paper's "probing-0.2" = 20% of optimal's probes).
  double budget_fraction = 0.2;
  /// Centralized snapshot refresh period, in time units.
  double centralized_refresh_units = 1.0;
  bool use_commutation = true;
  core::QuotaPolicy quota_policy = core::QuotaPolicy::kReplicaProportional;
};

struct CampaignResult {
  RatioCounter success;        ///< measured-window QoS success rate
  std::uint64_t messages = 0;  ///< protocol messages in the window
  std::uint64_t requests = 0;
  SampleStats selected_psi;    ///< ψ of admitted compositions
  SampleStats selected_delay;  ///< end-to-end delay of admitted graphs
  SampleStats candidates;      ///< candidates examined/merged per request
  // Probing diagnostics (Algo::kProbing only), summed over the window.
  std::uint64_t probes_spawned = 0;
  std::uint64_t dropped_qos = 0;
  std::uint64_t dropped_resources = 0;
  std::uint64_t dropped_timeout = 0;
  std::uint64_t compose_failures = 0;   ///< no qualified graph found
  std::uint64_t confirm_failures = 0;   ///< qualified but hold expired
};

/// Number of candidate graphs the optimal flooding scheme would probe for
/// `request` — the budget reference for probing-x variants.
inline std::uint64_t optimal_probe_count(const core::Deployment& deployment,
                                         const service::CompositeRequest& req) {
  std::uint64_t product = 1;
  for (service::FnNode n = 0; n < req.graph.node_count(); ++n) {
    std::uint64_t live = 0;
    for (auto id : deployment.replicas_oracle(req.graph.function(n))) {
      live += deployment.component_alive(id) ? 1 : 0;
    }
    product *= std::max<std::uint64_t>(live, 1);
  }
  return product;
}

/// Runs one campaign cell. Deterministic for a fixed (config, algo, seed).
/// When `metrics`/`trace` are given, the cell's BCP engine, allocator,
/// service registry and DHT publish into them for the whole run (cells
/// sharing one registry accumulate across cells).
inline CampaignResult run_campaign(const CampaignConfig& config, Algo algo,
                                   double workload_per_unit,
                                   obs::MetricsRegistry* metrics = nullptr,
                                   obs::ProbeTrace* trace = nullptr) {
  auto s = workload::build_sim_scenario(config.scenario);
  auto& sim = s->sim;
  CampaignResult result;

  core::BcpConfig bcp_config;
  bcp_config.use_commutation = config.use_commutation;
  bcp_config.quota_policy = config.quota_policy;
  bcp_config.probe_timeout_ms = config.time_unit_ms;
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                      bcp_config);
  bcp.set_observability(metrics, trace);
  s->alloc->set_metrics(metrics);
  s->deployment->registry().set_metrics(metrics);
  s->deployment->dht().set_metrics(metrics);
  core::OptimalComposer optimal(*s->deployment, *s->alloc, *s->evaluator,
                                config.use_commutation);
  core::RandomComposer random_composer(*s->deployment, *s->evaluator);
  core::StaticComposer static_composer(*s->deployment, *s->evaluator);
  core::CentralizedComposer centralized(*s->deployment, *s->alloc,
                                        *s->evaluator);

  const double total_ms =
      double(config.warmup_units + config.measure_units) * config.time_unit_ms;
  const double measure_start_ms =
      double(config.warmup_units) * config.time_unit_ms;

  // Periodic snapshot refresh for the centralized scheme.
  std::unique_ptr<sim::PeriodicTimer> refresh_timer;
  if (algo == Algo::kCentralized) {
    centralized.refresh();
    refresh_timer = std::make_unique<sim::PeriodicTimer>(
        sim, config.centralized_refresh_units * config.time_unit_ms,
        [&] { centralized.refresh(); });
    refresh_timer->start();
  }

  auto handle_request = [&](double now_ms) {
    auto gen = workload::sample_request(*s, config.profile);
    const auto& req = gen.request;
    const bool measuring = now_ms >= measure_start_ms;
    bool success = false;
    std::uint64_t msgs = 0;
    core::SessionId session = core::kInvalidSession;

    auto admit_direct = [&](core::BaselineResult& r) {
      if (!r.success) return;
      if (!r.best.qos.within(req.qos_req)) return;
      if (!s->evaluator->levels_compatible(r.best, req)) return;
      session = s->alloc->new_session_id();
      if (s->alloc->grant_direct(
              session, service::GraphDemand(r.best, req.bandwidth_kbps))) {
        success = true;
        if (measuring) {
          result.selected_psi.add(r.best.psi_cost);
          result.selected_delay.add(r.best.qos.delay_ms());
        }
      } else {
        session = core::kInvalidSession;
      }
    };

    switch (algo) {
      case Algo::kProbing: {
        core::BcpConfig per_request = bcp_config;
        per_request.probing_budget = std::max<int>(
            1, int(config.budget_fraction *
                   double(optimal_probe_count(*s->deployment, req))));
        bcp.set_config(per_request);
        core::ComposeResult r = bcp.compose(req, s->rng);
        msgs = r.stats.probe_messages + r.stats.discovery_messages;
        if (measuring) {
          result.candidates.add(double(r.stats.candidates_merged));
          result.probes_spawned += r.stats.probes_spawned;
          result.dropped_qos += r.stats.probes_dropped_qos;
          result.dropped_resources += r.stats.probes_dropped_resources;
          result.dropped_timeout += r.stats.probes_dropped_timeout;
          if (!r.success) ++result.compose_failures;
        }
        if (r.success) {
          session = s->alloc->new_session_id();
          if (s->alloc->confirm_all(r.best_holds, session)) {
            success = true;
            if (measuring) {
              result.selected_psi.add(r.best.psi_cost);
              result.selected_delay.add(r.best.qos.delay_ms());
            }
          } else {
            session = core::kInvalidSession;
            if (measuring) ++result.confirm_failures;
          }
        }
        break;
      }
      case Algo::kOptimal: {
        core::BaselineResult r = optimal.compose(req, core::Objective::kMinPsi);
        msgs = r.messages;
        if (measuring) result.candidates.add(double(r.candidates_examined));
        admit_direct(r);
        break;
      }
      case Algo::kRandom: {
        core::BaselineResult r = random_composer.compose(req, s->rng);
        msgs = r.messages;
        admit_direct(r);
        break;
      }
      case Algo::kStatic: {
        core::BaselineResult r = static_composer.compose(req);
        msgs = r.messages;
        admit_direct(r);
        break;
      }
      case Algo::kCentralized: {
        core::BaselineResult r = centralized.compose(req, core::Objective::kMinPsi);
        msgs = 1;  // request to the directory; maintenance counted separately
        admit_direct(r);
        break;
      }
    }

    if (measuring) {
      result.success.record(success);
      ++result.requests;
      result.messages += msgs;
    }
    if (session != core::kInvalidSession) {
      // gen.duration is in time units.
      sim.schedule_after(gen.duration * config.time_unit_ms,
                         [&, session] { s->alloc->release_session(session); });
    }
  };

  // Open-loop arrivals: `workload_per_unit` uniform arrivals per unit.
  for (std::size_t unit = 0; unit < config.warmup_units + config.measure_units;
       ++unit) {
    const double base = double(unit) * config.time_unit_ms;
    const auto count = std::size_t(workload_per_unit);
    for (std::size_t k = 0; k < count; ++k) {
      const double at = base + s->rng.next_double() * config.time_unit_ms;
      sim.schedule_at(at, [&, at] { handle_request(at); });
    }
  }
  sim.run_until(total_ms);
  if (refresh_timer) refresh_timer->stop();
  sim.run();  // drain departures

  if (algo == Algo::kCentralized) {
    // Charge the maintenance traffic of the measurement window.
    const double window_fraction =
        double(config.measure_units) /
        double(config.warmup_units + config.measure_units);
    result.messages += std::uint64_t(
        double(centralized.maintenance_messages()) * window_fraction);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Parallel campaign execution (DESIGN.md §5f).
//
// A campaign is a list of cells; every cell is a fully isolated world —
// run_campaign builds a fresh scenario, simulator and RNG from the cell's
// own config, and with run_campaign_cells each cell also publishes into
// its own MetricsRegistry. Nothing mutable is shared across cells, so
// they can execute on any number of worker threads in any order: results
// land in a pre-sized vector indexed by cell, and aggregates come from
// merging the per-cell registries in cell order. Output is therefore
// byte-identical at every `--jobs` value, including the serial baseline
// (jobs = 1 runs the exact pre-pool loop on the calling thread).
//
// Benches whose cells previously shared one mutable RNG (fig10/fig11)
// derive an independent per-cell stream via util::hash_values(seed, cell
// coordinates) instead — see their sources.

/// One (config, algorithm, workload) coordinate of a campaign sweep.
struct CampaignCell {
  CampaignConfig config;
  Algo algo = Algo::kProbing;
  double workload = 0.0;
};

/// Cell result plus the cell-local metrics registry (empty unless the
/// campaign ran with_metrics). Merge registries in cell order for an
/// aggregate snapshot identical to a serially shared registry's.
struct CampaignCellOutput {
  CampaignResult result;
  obs::MetricsRegistry metrics;
};

/// Runs every cell, `jobs` at a time. Deterministic for fixed cells and
/// seed at any `jobs`; jobs <= 1 is the exact serial loop.
inline std::vector<CampaignCellOutput> run_campaign_cells(
    const std::vector<CampaignCell>& cells, std::size_t jobs,
    bool with_metrics = false) {
  std::vector<CampaignCellOutput> outputs(cells.size());
  util::parallel_for_each(jobs, cells.size(), [&](std::size_t i) {
    outputs[i].result =
        run_campaign(cells[i].config, cells[i].algo, cells[i].workload,
                     with_metrics ? &outputs[i].metrics : nullptr);
  });
  return outputs;
}

}  // namespace spider::bench
