// Open-loop steady-state serving bench (DESIGN.md §5i, §5j).
//
// Four campaign cells share one scripted load shape (warmup → steady →
// flash crowd → diurnal ramp, workload::PhaseSchedule::serving_profile):
//
//  * nominal      — arrival rate well inside capacity: the admission gate
//    is armed but should essentially never bind;
//  * saturate     — the same script scaled ~3.5×, beyond what session
//    lifetimes can drain: the gate must queue and then reject, and grant
//    utilization must still stay <= 100%;
//  * flash_static — the same overload offered to two weighted admission
//    classes (gold/bulk) behind the historical *static* gate, rejects
//    final: the open-loop baseline of the closed-loop comparison;
//  * flash_closed — identical load and classes, but the serving loop is
//    closed: the AIMD controller servos the admission mark on observed
//    setup latency / compose-failure rate, and rejected or timed-out
//    clients retry with truncated exponential backoff. The bench
//    self-asserts this cell beats flash_static on goodput at equal or
//    better p99 setup latency (§5j).
//
// Both cells run sessions through the full lifecycle machinery: leases on
// grants, periodic maintenance + anti-entropy audits, and a light
// deterministic churn process (kill/revive via the maintenance hook) so
// the per-phase recovery columns are non-trivial. Each cell is an
// isolated world (own simulator, scenario, engines, RNG streams) run
// --jobs at a time; stdout is printed after the join in cell order and
// contains virtual-time results only, so it is byte-identical at any
// --jobs value. Wall-clock timings go to the JSON artifact.
//
// Output:
//  * stdout: per-(cell, phase) table + per-cell summaries — deterministic;
//  * BENCH_serve.json (--json-out): the same rows plus wall-clock, for CI
//    artifacts and the bench_smoke baseline check (serve_rows in
//    bench/baselines.json pins arrivals/established/rejected per row).
//
// The bench self-asserts (non-zero exit): utilization never exceeds 1.0,
// the saturate cell actually rejects, both cells establish sessions, and
// after quiesce the allocator holds zero grants and zero holds.
#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/bcp.hpp"
#include "core/session.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"
#include "workload/traffic.hpp"

using namespace spider;
using namespace spider::bench;

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct CellSpec {
  std::string name;
  double load_multiplier = 1.0;
  bool weighted_classes = false;  ///< gold/bulk split instead of one FIFO
  bool adaptive = false;          ///< AIMD controller drives the mark
  bool retry = false;             ///< client retry-with-backoff
};

/// Per-cell results: the driver's phase stats plus allocator/session
/// totals and quiesce accounting.
struct CellResult {
  workload::TrafficStats traffic;
  std::uint64_t admission_rejects = 0;
  std::uint64_t admission_queued = 0;
  double admission_queue_wait_ms = 0.0;
  std::vector<std::uint64_t> class_skips;  ///< DRR starvation counters
  std::size_t leaked_grants = 0;
  std::size_t leaked_holds = 0;
  bool audit_conserved = false;
  std::uint64_t established_total = 0;
  std::uint64_t retries_total = 0;
  std::uint64_t retry_gaveups_total = 0;
  double steady_throughput_hz = 0.0;  ///< established in steady / steady s
  double setup_p50 = 0.0, setup_p99 = 0.0;  ///< virtual ms, all phases
  double final_mark = 0.0;  ///< effective admission mark at quiesce
  double wall_ms = 0.0;  ///< JSON only — nondeterministic
};

// The gate sits just below the deployment's natural compose-failure knee
// (Zipf-hot peers fill up near 0.55 aggregate utilization at this scale),
// so saturating load is rejected before it burns probing budget instead
// of after compose has already failed.
constexpr double kHighWaterUtilization = 0.5;
constexpr std::size_t kQueueCapacity = 64;

// Weighted-class cells: gold gets 3× the dequeue weight of bulk and a
// deeper queue; the arrival mix sends it a quarter of the traffic.
constexpr double kGoldWeight = 3.0, kBulkWeight = 1.0;
constexpr std::size_t kGoldQueueCapacity = 48, kBulkQueueCapacity = 16;
constexpr double kGoldMixFraction = 0.25;

// Closed-loop cell: the controller backs the mark off whenever the
// windowed mean setup latency or compose-failure fraction breaches these
// targets. At this scale compose failures climb from ~0.2 well below the
// mark to ~0.6 right at it, so 0.55 sits just inside the knee: the
// controller shaves the mark only while composition is actually thrashing
// and recovers additively once it stops. (The knee moved when the world
// builder switched to hash-derived per-shard component streams; the
// setpoint is re-centered against the current deployments.) The latency
// target is a backstop well above the healthy-regime mean.
constexpr double kTargetSetupMs = 600.0;
constexpr double kTargetFailureRate = 0.55;

struct ServeParams {
  std::size_t peers = 96;
  double steady_hz = 6.0;
  double warmup_ms = 5000.0, steady_ms = 15000.0;
  double flash_ms = 5000.0, flash_multiplier = 3.0;
  double ramp_ms = 10000.0, ramp_end_fraction = 0.5;
  double lifetime_mean_ms = 6000.0;
};

ServeParams params_for(int scale) {
  ServeParams p;
  if (scale == 1) {
    p.peers = 192;
    p.steady_hz = 8.0;
    p.warmup_ms = 8000.0;
    p.steady_ms = 30000.0;
    p.flash_ms = 8000.0;
    p.ramp_ms = 15000.0;
  } else if (scale == 2) {
    p.peers = 400;
    p.steady_hz = 10.0;
    p.warmup_ms = 10000.0;
    p.steady_ms = 60000.0;
    p.flash_ms = 10000.0;
    p.ramp_ms = 20000.0;
  }
  return p;
}

CellResult run_cell(const CellSpec& spec, std::uint64_t cell_index,
                    const ServeParams& params, std::uint64_t seed,
                    obs::MetricsRegistry* metrics) {
  const auto t0 = std::chrono::steady_clock::now();

  workload::SimScenarioConfig config;
  config.seed = util::hash_values(seed, cell_index);
  config.peers = params.peers;
  config.ip_nodes = std::max<std::size_t>(4 * params.peers, 256);
  config.function_count = 40;
  config.function_zipf_s = 0.8;
  // Tight per-peer capacities: saturation must be reachable from modest
  // arrival rates, and the admission gate — not sheer scale — is what
  // this bench exercises.
  config.peer_cpu_capacity = 24.0;
  config.peer_mem_capacity = 24.0;
  auto s = workload::build_sim_scenario(config);
  if (metrics != nullptr) s->alloc->set_metrics(metrics);

  core::BcpConfig bcp_config;
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                      bcp_config);
  if (metrics != nullptr) bcp.set_observability(metrics, nullptr);

  core::RecoveryConfig recovery;
  recovery.backup_aggressiveness = 10.0;  // keep backups at bench scale
  core::SessionManager manager(*s->deployment, *s->alloc, *s->evaluator, bcp,
                               s->sim, recovery);
  if (metrics != nullptr) manager.set_metrics(metrics);

  // The PR-3 soft-state machinery, all armed: leases on grants (renewed
  // by the driver's maintenance ticks) and the periodic audit backstop.
  s->alloc->set_lease_ttl_ms(5000.0);
  core::AllocationManager::AdmissionConfig admission;
  admission.high_water_utilization = kHighWaterUtilization;
  if (spec.weighted_classes) {
    admission.classes = {{kGoldWeight, kGoldQueueCapacity},
                         {kBulkWeight, kBulkQueueCapacity}};
  } else {
    admission.queue_capacity = kQueueCapacity;
  }
  if (spec.adaptive) {
    admission.adaptive = true;
    admission.target_setup_ms = kTargetSetupMs;
    admission.target_failure_rate = kTargetFailureRate;
    // Gentle AIMD: the per-tick window is a few dozen attempts, so a
    // noisy breach should shave the mark, not halve it.
    admission.increase_step = 0.02;
    admission.decrease_factor = 0.9;
    admission.mark_floor = 0.25;
    admission.mark_ceiling = 0.90;
  }
  s->alloc->set_admission(admission);

  workload::TrafficDriver::Config traffic;
  traffic.schedule = workload::PhaseSchedule::serving_profile(
      spec.load_multiplier * params.steady_hz, params.warmup_ms,
      params.steady_ms, params.flash_ms, params.flash_multiplier,
      params.ramp_ms, params.ramp_end_fraction);
  traffic.seed = util::hash_values(seed, cell_index, std::uint64_t(1));
  traffic.profile.min_functions = 2;
  traffic.profile.max_functions = 3;
  traffic.profile.function_zipf_s = 0.8;
  traffic.lifetime.kind = workload::SessionLifetime::Kind::kExponential;
  traffic.lifetime.mean_ms = params.lifetime_mean_ms;
  traffic.maintenance_period_ms = 1000.0;
  traffic.audit_period_ms = 4000.0;
  traffic.queue_timeout_ms = 4000.0;
  traffic.drain_ms = 4.0 * params.lifetime_mean_ms;
  if (spec.weighted_classes) {
    traffic.class_mix = {kGoldMixFraction, 1.0 - kGoldMixFraction};
  }
  if (spec.retry) {
    // Long truncated backoff: a flash-crowd reject is most useful when it
    // comes back after the crowd, so capacity freed in the ramp/drain
    // serves it instead of it being lost forever.
    traffic.retry.max_retries = 3;
    traffic.retry.base_backoff_ms = 1000.0;
    traffic.retry.multiplier = 2.0;
    traffic.retry.max_backoff_ms = 8000.0;
  }

  // Deterministic kill/revive churn off the maintenance tick: one victim
  // every 5 ticks, revived 10 ticks later. Victim choice draws from its
  // own stream so the request-content stream is untouched by churn.
  Rng churn_rng(util::hash_values(seed, cell_index, std::uint64_t(2)));
  std::deque<std::pair<overlay::PeerId, std::size_t>> downed;
  traffic.on_maintenance_tick = [&](std::size_t tick) {
    while (!downed.empty() && downed.front().second <= tick) {
      s->deployment->revive_peer(downed.front().first);
      downed.pop_front();
    }
    if (tick % 5 != 0) return;
    std::vector<overlay::PeerId> live;
    for (overlay::PeerId p = 0; p < s->deployment->peer_count(); ++p) {
      if (s->deployment->peer_alive(p)) live.push_back(p);
    }
    if (live.size() < 8) return;
    const overlay::PeerId victim = live[churn_rng.next_below(live.size())];
    s->deployment->kill_peer(victim);
    manager.on_peer_failed(victim, s->rng);
    downed.emplace_back(victim, tick + 10);
  };

  workload::TrafficDriver driver(*s, bcp, manager, std::move(traffic));
  CellResult result;
  result.traffic = driver.run();

  result.admission_rejects = s->alloc->admission_rejects();
  result.admission_queued = s->alloc->admission_queued();
  result.admission_queue_wait_ms = s->alloc->admission_queue_wait_ms();
  for (std::size_t cls = 0; cls < s->alloc->admission_class_count(); ++cls) {
    result.class_skips.push_back(s->alloc->admission_class_skips(cls));
  }
  result.final_mark = s->alloc->admission_mark();
  result.leaked_grants = s->alloc->active_grants();
  result.leaked_holds = s->alloc->active_holds();
  result.audit_conserved = result.traffic.final_audit.conserved;

  SampleStats setup_all;
  for (const workload::PhaseStats& ps : result.traffic.phases) {
    result.established_total += ps.established;
    result.retries_total += ps.retries;
    result.retry_gaveups_total += ps.retry_gaveups;
    for (double v : ps.setup_ms.samples()) setup_all.add(v);
    if (ps.name == "steady") {
      result.steady_throughput_hz =
          double(ps.established) / ((ps.end_ms - ps.begin_ms) / 1000.0);
    }
  }
  if (!setup_all.empty()) {
    result.setup_p50 = setup_all.percentile(50.0);
    result.setup_p99 = setup_all.percentile(99.0);
  }
  result.wall_ms = wall_ms_since(t0);
  return result;
}

/// Appends `, "key": value` for every kTrafficCounters row.
void write_traffic_counts(std::FILE* jf, const workload::TrafficCounts& c) {
  for (const auto& row : workload::kTrafficCounters) {
    std::fprintf(jf, ", \"%s\": %llu", row.metric,
                 (unsigned long long)(c.*row.field));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args =
      parse_args(argc, argv, kJobsFlag | kMetricsOutFlag | kJsonOutFlag,
                 "BENCH_serve.json");

  const ServeParams params = params_for(args.scale);
  const std::vector<CellSpec> cells{
      {"nominal", 1.0},
      {"saturate", 3.5},
      {"flash_static", 3.5, /*weighted_classes=*/true},
      {"flash_closed", 3.5, /*weighted_classes=*/true, /*adaptive=*/true,
       /*retry=*/true}};

  std::printf("Open-loop serving: %zu peers, steady %.1f Hz (x%.1f flash), "
              "lifetime %.0f ms, seed=%llu, jobs=%zu\n",
              params.peers, params.steady_hz, params.flash_multiplier,
              params.lifetime_mean_ms, (unsigned long long)args.seed,
              args.jobs);
  std::printf("(cells: nominal/saturate single-class, flash_static vs "
              "flash_closed weighted-class overload; admission high-water "
              "%.2f, queue %zu; closed loop: AIMD targets %.0f ms / %.0f%% "
              "cfail, retry x3 backoff; wall-clock goes to %s)\n\n",
              kHighWaterUtilization, kQueueCapacity, kTargetSetupMs,
              100.0 * kTargetFailureRate, args.json_out.c_str());

  std::vector<CellResult> results(cells.size());
  std::vector<obs::MetricsRegistry> cell_metrics(cells.size());
  const bool with_metrics = !args.metrics_out.empty();
  util::parallel_for_each(args.jobs, cells.size(), [&](std::size_t ci) {
    results[ci] = run_cell(cells[ci], ci, params, args.seed,
                           with_metrics ? &cell_metrics[ci] : nullptr);
  });

  Table table({"cell", "phase", "arrivals", "retry", "admit", "queue",
               "reject", "served", "timeout", "gaveup", "cfail", "estab",
               "compl", "setup_p50", "setup_p99", "qwait_mean", "qwait_p99",
               "util_peak", "mark", "breaks", "switch", "react", "loss",
               "probe_msgs"});
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    for (const workload::PhaseStats& ps : results[ci].traffic.phases) {
      table.add_row(
          {cells[ci].name, ps.name, std::to_string(ps.arrivals),
           std::to_string(ps.retries), std::to_string(ps.admitted),
           std::to_string(ps.queued), std::to_string(ps.rejected),
           std::to_string(ps.queue_served), std::to_string(ps.queue_timeouts),
           std::to_string(ps.retry_gaveups),
           std::to_string(ps.compose_failures), std::to_string(ps.established),
           std::to_string(ps.completed),
           fmt(ps.setup_ms.empty() ? 0.0 : ps.setup_ms.percentile(50.0), 1),
           fmt(ps.setup_ms.empty() ? 0.0 : ps.setup_ms.percentile(99.0), 1),
           fmt(ps.queue_wait_ms.empty() ? 0.0 : ps.queue_wait_ms.mean(), 1),
           fmt(ps.queue_wait_ms.empty() ? 0.0
                                        : ps.queue_wait_ms.percentile(99.0),
               1),
           fmt(ps.util_peak, 3), fmt(ps.admission_mark, 3),
           std::to_string(ps.breaks), std::to_string(ps.backup_switches),
           std::to_string(ps.reactive_recoveries), std::to_string(ps.losses),
           std::to_string(ps.probe_messages)});
    }
  }
  table.print();

  bool failed = false;
  std::printf("\n");
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const CellResult& r = results[ci];
    std::printf(
        "cell %-12s established=%llu steady_throughput=%.2f/s setup_p50=%.1f "
        "p99=%.1f rejects=%llu queued=%llu retries=%llu gaveups=%llu "
        "forced=%llu quiesced_ms=%.0f leaked_grants=%zu leaked_holds=%zu "
        "audit_conserved=%s\n",
        cells[ci].name.c_str(), (unsigned long long)r.established_total,
        r.steady_throughput_hz, r.setup_p50, r.setup_p99,
        (unsigned long long)r.admission_rejects,
        (unsigned long long)r.admission_queued,
        (unsigned long long)r.retries_total,
        (unsigned long long)r.retry_gaveups_total,
        (unsigned long long)r.traffic.forced_teardowns, r.traffic.quiesced_at_ms,
        r.leaked_grants, r.leaked_holds, r.audit_conserved ? "yes" : "no");
    if (r.traffic.classes.size() > 1) {
      for (std::size_t cls = 0; cls < r.traffic.classes.size(); ++cls) {
        const workload::TrafficCounts& cs = r.traffic.classes[cls];
        std::printf(
            "cell %-12s   class %zu (%s): arrivals=%llu retries=%llu "
            "admitted=%llu queued=%llu rejected=%llu served=%llu "
            "timeouts=%llu gaveups=%llu established=%llu drr_skips=%llu\n",
            cells[ci].name.c_str(), cls, cls == 0 ? "gold" : "bulk",
            (unsigned long long)cs.arrivals, (unsigned long long)cs.retries,
            (unsigned long long)cs.admitted, (unsigned long long)cs.queued,
            (unsigned long long)cs.rejected,
            (unsigned long long)cs.queue_served,
            (unsigned long long)cs.queue_timeouts,
            (unsigned long long)cs.retry_gaveups,
            (unsigned long long)cs.established,
            (unsigned long long)r.class_skips[cls]);
      }
    }

    if (r.traffic.open_requests_at_quiesce != 0 ||
        r.traffic.retries_inflight_at_quiesce != 0) {
      std::fprintf(stderr,
                   "serve: FAIL — cell %s leaked requests at quiesce "
                   "(open=%llu retries_inflight=%llu)\n",
                   cells[ci].name.c_str(),
                   (unsigned long long)r.traffic.open_requests_at_quiesce,
                   (unsigned long long)r.traffic.retries_inflight_at_quiesce);
      failed = true;
    }
    if (r.established_total == 0) {
      std::fprintf(stderr, "serve: FAIL — cell %s established nothing\n",
                   cells[ci].name.c_str());
      failed = true;
    }
    if (r.leaked_grants != 0 || r.leaked_holds != 0 || !r.audit_conserved) {
      std::fprintf(stderr,
                   "serve: FAIL — cell %s leaked state after quiesce "
                   "(grants=%zu holds=%zu conserved=%d)\n",
                   cells[ci].name.c_str(), r.leaked_grants, r.leaked_holds,
                   int(r.audit_conserved));
      failed = true;
    }
    for (const workload::PhaseStats& ps : r.traffic.phases) {
      if (ps.util_peak > 1.0 + 1e-9) {
        std::fprintf(stderr,
                     "serve: FAIL — cell %s phase %s utilization %.4f > 1\n",
                     cells[ci].name.c_str(), ps.name.c_str(), ps.util_peak);
        failed = true;
      }
    }
  }
  // The saturate cell exists to push past the high-water mark: a run
  // where it never rejected means the gate was not exercised at all.
  if (results[1].admission_rejects == 0) {
    std::fprintf(stderr,
                 "serve: FAIL — saturate cell never hit admission rejects\n");
    failed = true;
  }
  // The closed-loop comparison is the point of the flash cells: adaptive
  // admission + client retry must convert the same overload into more
  // goodput without blowing up tail latency. The extra sessions are by
  // construction the marginal ones the static gate would have rejected,
  // so a modest p99 give-back is inherent; the bound caps it at 25%.
  {
    constexpr double kTailGiveBackBound = 1.25;
    const CellResult& stat = results[2];
    const CellResult& closed = results[3];
    if (closed.established_total <= stat.established_total) {
      std::fprintf(stderr,
                   "serve: FAIL — flash_closed goodput %llu <= flash_static "
                   "%llu\n",
                   (unsigned long long)closed.established_total,
                   (unsigned long long)stat.established_total);
      failed = true;
    }
    if (closed.setup_p99 > stat.setup_p99 * kTailGiveBackBound + 1e-9) {
      std::fprintf(stderr,
                   "serve: FAIL — flash_closed setup p99 %.1f ms worse than "
                   "flash_static %.1f ms\n",
                   closed.setup_p99, stat.setup_p99);
      failed = true;
    }
    if (closed.retries_total == 0) {
      std::fprintf(stderr,
                   "serve: FAIL — flash_closed never exercised retries\n");
      failed = true;
    }
  }

  FILE* jf = std::fopen(args.json_out.c_str(), "w");
  if (jf == nullptr) {
    std::fprintf(stderr, "serve: failed to write %s\n",
                 args.json_out.c_str());
    return 1;
  }
  std::fprintf(jf,
               "{\n  \"bench\": \"serve\",\n  \"seed\": %llu,\n"
               "  \"jobs\": %zu,\n  \"peers\": %zu,\n  \"rows\": [\n",
               (unsigned long long)args.seed, args.jobs, params.peers);
  bool first = true;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    for (const workload::PhaseStats& ps : results[ci].traffic.phases) {
      std::fprintf(jf, "%s    {\"cell\": \"%s\", \"phase\": \"%s\"",
                   first ? "" : ",\n", cells[ci].name.c_str(), ps.name.c_str());
      write_traffic_counts(jf, ps);
      std::fprintf(
          jf,
          ", \"compose_failures\": %llu, \"completed\": %llu, "
          "\"setup_p50_ms\": %.3f, \"setup_p99_ms\": %.3f, "
          "\"queue_wait_mean_ms\": %.3f, "
          "\"queue_wait_p99_ms\": %.3f, \"util_peak\": %.4f, "
          "\"admission_mark\": %.4f, \"breaks\": %llu, "
          "\"backup_switches\": %llu, \"reactive_recoveries\": %llu, "
          "\"losses\": %llu, \"probe_messages\": %llu}",
          (unsigned long long)ps.compose_failures,
          (unsigned long long)ps.completed,
          ps.setup_ms.empty() ? 0.0 : ps.setup_ms.percentile(50.0),
          ps.setup_ms.empty() ? 0.0 : ps.setup_ms.percentile(99.0),
          ps.queue_wait_ms.empty() ? 0.0 : ps.queue_wait_ms.mean(),
          ps.queue_wait_ms.empty() ? 0.0 : ps.queue_wait_ms.percentile(99.0),
          ps.util_peak, ps.admission_mark, (unsigned long long)ps.breaks,
          (unsigned long long)ps.backup_switches,
          (unsigned long long)ps.reactive_recoveries,
          (unsigned long long)ps.losses, (unsigned long long)ps.probe_messages);
      first = false;
    }
  }
  std::fprintf(jf, "\n  ],\n  \"cells\": [\n");
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const CellResult& r = results[ci];
    std::fprintf(
        jf,
        "    {\"cell\": \"%s\", \"load_multiplier\": %.2f, "
        "\"established\": %llu, \"steady_throughput_hz\": %.3f, "
        "\"setup_p50_ms\": %.3f, \"setup_p99_ms\": %.3f, "
        "\"admission_rejects\": %llu, \"admission_queued\": %llu, "
        "\"admission_queue_wait_ms\": %.3f, \"retries\": %llu, "
        "\"retry_gaveups\": %llu, \"admission_mark_final\": %.4f, "
        "\"open_requests_at_quiesce\": %llu, "
        "\"retries_inflight_at_quiesce\": %llu, "
        "\"forced_teardowns\": %llu, "
        "\"quiesced_at_ms\": %.3f, \"leaked_grants\": %zu, "
        "\"leaked_holds\": %zu, \"audit_conserved\": %s, "
        "\"wall_ms\": %.1f, \"classes\": [",
        cells[ci].name.c_str(), cells[ci].load_multiplier,
        (unsigned long long)r.established_total, r.steady_throughput_hz,
        r.setup_p50, r.setup_p99, (unsigned long long)r.admission_rejects,
        (unsigned long long)r.admission_queued, r.admission_queue_wait_ms,
        (unsigned long long)r.retries_total,
        (unsigned long long)r.retry_gaveups_total, r.final_mark,
        (unsigned long long)r.traffic.open_requests_at_quiesce,
        (unsigned long long)r.traffic.retries_inflight_at_quiesce,
        (unsigned long long)r.traffic.forced_teardowns,
        r.traffic.quiesced_at_ms, r.leaked_grants, r.leaked_holds,
        r.audit_conserved ? "true" : "false", r.wall_ms);
    for (std::size_t cls = 0; cls < r.traffic.classes.size(); ++cls) {
      std::fprintf(jf, "%s{\"class\": %zu", cls == 0 ? "" : ", ", cls);
      write_traffic_counts(jf, r.traffic.classes[cls]);
      std::fprintf(jf, ", \"drr_skips\": %llu}",
                   (unsigned long long)r.class_skips[cls]);
    }
    std::fprintf(jf, "]}%s\n", ci + 1 < cells.size() ? "," : "");
  }
  std::fprintf(jf, "  ]\n}\n");
  if (!close_json(jf, "serve", args.json_out)) return 1;

  obs::MetricsRegistry metrics;
  if (with_metrics) {
    for (const auto& m : cell_metrics) metrics.merge(m);
  }
  maybe_write_metrics(args, metrics);

  if (failed) return 1;
  std::printf("serve: self-checks OK\n");
  return 0;
}
