// Open-loop steady-state workload (DESIGN.md §5i).
//
// Every bench before this subsystem was a *closed* request sweep: fire a
// fixed batch of setups, measure, exit. Production serving is open-loop —
// arrivals keep coming whether or not the system kept up — and that is
// the regime where the lease/renewal/reclaim machinery (§5e) and the
// admission gate (allocator) actually earn their keep. Three pieces:
//
//  * PhaseSchedule — a scripted load shape (warmup → steady →
//    flash-crowd → diurnal ramp) as piecewise-linear arrival rates over
//    virtual time, with exact phase boundaries and a closed-form
//    cumulative intensity Λ(t) and its inverse.
//  * ArrivalProcess — deterministic arrival streams: a non-homogeneous
//    Poisson process (unit-rate exponential increments mapped through
//    Λ⁻¹, so any rate shape — including ramps — stays exactly
//    reproducible per seed), or a trace of explicit arrival times.
//  * TrafficDriver — runs the open loop on a Scenario over the existing
//    DES clock: per arrival it consults the allocator's admission gate
//    (admit / queue / reject), composes via BCP, establishes through the
//    SessionManager, and schedules the session's natural completion from
//    a configurable lifetime distribution. Queued setups drain FIFO as
//    completions free capacity; maintenance/audit timers renew leases
//    and reclaim what the control plane loses. Everything is driven off
//    the simulator, so results are byte-identical at any --jobs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

namespace spider::workload {

/// One scripted load phase. The arrival rate is linear from
/// rate_begin_hz at the phase's start to rate_end_hz at its end
/// (rate_end_hz < 0 means constant); rates are arrivals per virtual
/// second.
struct LoadPhase {
  std::string name;
  double duration_ms = 0.0;
  double rate_begin_hz = 0.0;
  double rate_end_hz = -1.0;
  double rate_end() const {
    return rate_end_hz < 0.0 ? rate_begin_hz : rate_end_hz;
  }
};

/// Piecewise-linear arrival-rate script over virtual time.
///
/// Phase boundaries are half-open: time t belongs to phase i iff
/// begin_i <= t < begin_{i+1}; phase_at() clamps times at or beyond the
/// total duration to the last phase (the drain window after the script
/// ends is accounted there).
class PhaseSchedule {
 public:
  PhaseSchedule() = default;
  explicit PhaseSchedule(std::vector<LoadPhase> phases);

  /// The canonical serving script: warmup ramping 0.25×→1× of
  /// `steady_hz`, a constant steady phase, a flash crowd at
  /// `flash_multiplier`×, and a diurnal ramp back down to
  /// `ramp_end_fraction`×.
  static PhaseSchedule serving_profile(double steady_hz, double warmup_ms,
                                       double steady_ms, double flash_ms,
                                       double flash_multiplier, double ramp_ms,
                                       double ramp_end_fraction);

  const std::vector<LoadPhase>& phases() const { return phases_; }
  std::size_t phase_count() const { return phases_.size(); }
  double total_duration_ms() const { return begin_ms_.back(); }
  double phase_begin_ms(std::size_t i) const { return begin_ms_.at(i); }
  double phase_end_ms(std::size_t i) const { return begin_ms_.at(i + 1); }

  /// Phase owning virtual time t (clamped to the last phase).
  std::size_t phase_at(sim::Time t) const;
  /// Instantaneous arrival rate at t, in arrivals per second (0 outside
  /// the script).
  double rate_hz_at(sim::Time t) const;
  /// Cumulative intensity Λ(t): expected arrivals in [0, t] (t clamped
  /// to the script). Piecewise quadratic, exact.
  double cumulative_arrivals(sim::Time t) const;
  /// Smallest t with Λ(t) >= lambda, or nullopt once lambda exceeds
  /// Λ(total): the time-rescaling inverse the Poisson process samples
  /// through.
  std::optional<sim::Time> inverse_cumulative(double lambda) const;

 private:
  std::vector<LoadPhase> phases_;
  std::vector<double> begin_ms_;  ///< begin per phase + total at the back
  std::vector<double> cum_;       ///< Λ at each begin + Λ(total) at the back
};

/// A deterministic stream of arrival times (virtual ms, strictly
/// increasing). Exhaustion is permanent.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  /// Next arrival time, or nullopt when the stream is exhausted.
  virtual std::optional<sim::Time> next_arrival() = 0;
};

/// Non-homogeneous Poisson arrivals over a PhaseSchedule, by time
/// rescaling: unit-rate exponential increments accumulated in Λ-space
/// and mapped back through Λ⁻¹. Deterministic per seed for any rate
/// shape; a zero-rate stretch simply produces no arrivals inside it.
class PoissonProcess : public ArrivalProcess {
 public:
  PoissonProcess(PhaseSchedule schedule, std::uint64_t seed)
      : schedule_(std::move(schedule)), rng_(seed) {}
  std::optional<sim::Time> next_arrival() override;

 private:
  PhaseSchedule schedule_;
  Rng rng_;
  double cum_ = 0.0;  ///< position in Λ-space
};

/// Trace-driven arrivals: an explicit, sorted list of times.
class TraceProcess : public ArrivalProcess {
 public:
  explicit TraceProcess(std::vector<sim::Time> arrivals);
  std::optional<sim::Time> next_arrival() override;

 private:
  std::vector<sim::Time> arrivals_;
  std::size_t next_ = 0;
};

/// Session-lifetime distribution: how long an admitted session streams
/// before tearing down gracefully.
struct SessionLifetime {
  enum class Kind { kFixed, kExponential, kLogNormal };
  Kind kind = Kind::kExponential;
  double mean_ms = 10000.0;
  /// kLogNormal only: sigma of the underlying normal (the mean stays
  /// mean_ms; larger sigma = heavier tail of long-lived sessions).
  double sigma = 1.0;

  double sample(Rng& rng) const;
};

/// The admission-path counters of an open-loop run, kept once per phase
/// and once per admission class. Every event moves one phase slice and
/// one class slice together, so phase totals equal class totals. Retries
/// count as fresh submissions (they are new load on the gate), but never
/// as arrivals — `arrivals` stays the offered first-contact load.
struct TrafficCounts {
  std::uint64_t arrivals = 0;
  std::uint64_t retries = 0;          ///< backoff re-submissions fired
  std::uint64_t admitted = 0;         ///< setups attempted immediately
  std::uint64_t queued = 0;           ///< held back by the admission gate
  std::uint64_t rejected = 0;         ///< admission rejects (never probed)
  std::uint64_t queue_served = 0;     ///< queued setups later attempted
  std::uint64_t queue_timeouts = 0;   ///< queued setups that waited too long
  std::uint64_t retry_gaveups = 0;    ///< requests whose retry budget ran out
  std::uint64_t established = 0;
};

/// Every TrafficCounts counter and its key in bench JSON rows.
inline constexpr obs::CounterField<TrafficCounts> kTrafficCounters[] = {
    {"arrivals", &TrafficCounts::arrivals},
    {"retries", &TrafficCounts::retries},
    {"admitted", &TrafficCounts::admitted},
    {"queued", &TrafficCounts::queued},
    {"rejected", &TrafficCounts::rejected},
    {"queue_served", &TrafficCounts::queue_served},
    {"queue_timeouts", &TrafficCounts::queue_timeouts},
    {"retry_gaveups", &TrafficCounts::retry_gaveups},
    {"established", &TrafficCounts::established},
};

/// Per-phase accounting of one open-loop run. Arrival-side fields are
/// attributed to the phase the arrival happened in (a retry to the phase
/// its backoff timer fired in); completion-side fields to the phase of
/// the completion (drain-window events land in the last phase).
struct PhaseStats : TrafficCounts {
  std::string name;
  double begin_ms = 0.0, end_ms = 0.0;
  /// BCP found no qualified graph, or a hold expired before confirm.
  std::uint64_t compose_failures = 0;
  std::uint64_t completed = 0;        ///< natural lifetime teardowns
  SampleStats setup_ms;               ///< virtual setup latency (successes)
  SampleStats queue_wait_ms;          ///< virtual wait of served queue entries
  double util_peak = 0.0;             ///< peak grant utilization observed
  /// Effective admission mark when the phase was snapshotted (the static
  /// high-water constant, or the AIMD controller's value; -1 when
  /// admission is disabled).
  double admission_mark = -1.0;
  // SessionManager recovery deltas over the phase window.
  std::uint64_t breaks = 0, backup_switches = 0, reactive_recoveries = 0,
                losses = 0;
  std::uint64_t probe_messages = 0;   ///< BCP messages spent in this phase
};

/// Whole-run accounting (see PhaseStats for the per-phase slices).
struct TrafficStats {
  std::vector<PhaseStats> phases;
  /// Whole-run totals per admission class (a single entry when no classes
  /// were configured).
  std::vector<TrafficCounts> classes;
  std::uint64_t forced_teardowns = 0;  ///< alive past the drain window
  double quiesced_at_ms = 0.0;         ///< virtual time the world went quiet
  core::SessionManager::AuditReport final_audit;
  /// Conservation audit at quiesce: both must be zero. Every first-contact
  /// arrival reaches exactly one terminal outcome (established, compose
  /// failure, final reject/timeout, or retry give-up), and no backoff
  /// timer is still pending.
  std::uint64_t open_requests_at_quiesce = 0;
  std::uint64_t retries_inflight_at_quiesce = 0;
};

/// Client retry behaviour for rejected and queue-timed-out setups:
/// truncated exponential backoff with a bounded budget. Disabled by
/// default (max_retries == 0), in which case rejects and timeouts are
/// final — bit-for-bit the historical behaviour.
struct RetryPolicy {
  /// Re-submissions allowed per request beyond its first attempt; once
  /// exhausted the request is counted as a retry_gaveup.
  std::size_t max_retries = 0;
  /// Backoff before retry k (1-based) is drawn uniformly from
  /// [0.5, 1.0) · min(base_backoff_ms · multiplier^(k-1), max_backoff_ms):
  /// exponential growth, truncated, with deterministic half-jitter from a
  /// dedicated RNG stream so synchronized retry waves decorrelate without
  /// perturbing any other draw.
  double base_backoff_ms = 500.0;
  double multiplier = 2.0;
  double max_backoff_ms = 8000.0;
  bool enabled() const { return max_retries > 0; }
};

/// Drives one open-loop serving run on a fully wired Scenario.
class TrafficDriver {
 public:
  struct Config {
    PhaseSchedule schedule;
    std::uint64_t seed = 1;
    RequestProfile profile;
    SessionLifetime lifetime;
    /// Maintenance cadence: backup upkeep + lease renewal + queue-wait
    /// expiry, via SessionManager::run_maintenance and
    /// monitor_active_sessions.
    double maintenance_period_ms = 1000.0;
    /// Periodic anti-entropy audit cadence; 0 disables (the final audit
    /// still runs).
    double audit_period_ms = 0.0;
    /// Max virtual time a setup may sit in the admission queue before it
    /// is abandoned (counted as a queue timeout).
    double queue_timeout_ms = 8000.0;
    /// Post-schedule drain window: sessions still streaming when the
    /// script ends get this long to finish naturally before being torn
    /// down forcibly.
    double drain_ms = 30000.0;
    /// Optional per-maintenance-tick hook (e.g. bench-side churn). Runs
    /// before the tick's maintenance pass.
    std::function<void(std::size_t tick)> on_maintenance_tick;
    /// Client retry-with-backoff for rejected / queue-timed-out setups.
    RetryPolicy retry;
    /// Relative probability weights assigning each arrival an admission
    /// class (index = class id). Size must match the allocator's
    /// configured class count; empty (the default) sends everything to
    /// class 0 without consuming any randomness.
    std::vector<double> class_mix;
  };

  /// `arrivals` defaults to a PoissonProcess over config.schedule seeded
  /// from config.seed.
  TrafficDriver(Scenario& scenario, core::BcpEngine& bcp,
                core::SessionManager& sessions, Config config,
                std::unique_ptr<ArrivalProcess> arrivals = nullptr);

  /// Runs the full script plus the drain window, force-tears-down any
  /// stragglers, sweeps expired holds and runs a final audit. Returns
  /// when the allocator should hold nothing (the caller asserts that).
  const TrafficStats& run();

  const TrafficStats& stats() const { return stats_; }
  std::size_t live_sessions() const { return live_.size(); }

 private:
  /// One request making its way through the gate, possibly across
  /// several submissions (admission retries). The request content is
  /// sampled lazily at the first kAdmit/kQueue decision, so a request
  /// that only ever got rejected consumes no scenario randomness —
  /// exactly as before retries existed.
  struct PendingSetup {
    std::optional<GeneratedRequest> gen;
    std::size_t cls = 0;
    std::size_t submissions = 0;  ///< completed admit_setup() calls
  };
  struct QueuedSetup {
    PendingSetup pending;
    sim::Time enqueued_at = 0.0;
    std::size_t phase = 0;
  };

  void schedule_next_arrival();
  void on_arrival();
  std::size_t draw_class();
  /// Runs one submission (first or retry) of `p` through the admission
  /// gate and dispatches on the decision.
  void submit(PendingSetup p, bool is_retry);
  /// Handles a terminal-for-this-submission reject/timeout: schedules a
  /// backoff retry while budget remains, otherwise closes the request
  /// (counting a retry_gaveup when retries are enabled).
  void finish_or_retry(PendingSetup p);
  void give_up(const PendingSetup& p, std::size_t phase);
  /// Counts one event in phase `phase` and class `cls` — the only place a
  /// TrafficCounts counter moves.
  void count(std::uint64_t TrafficCounts::*field, std::size_t phase,
             std::size_t cls);
  /// Composes + establishes one setup, attributing results to phase
  /// `phase` (queue accounting is the dequeuer's job, not this one's).
  void attempt_setup(PendingSetup p, std::size_t phase);
  void complete_session(core::SessionId id);
  /// Admits queued setups while the gate is open, in the allocator's
  /// deficit-weighted class order (plain FIFO with one class).
  void drain_queue();
  /// Abandons queue entries older than queue_timeout_ms.
  void expire_queue_waits();
  void maintenance_tick();
  void observe_utilization();
  /// Records the recovery/probe-message deltas accumulated since the
  /// previous snapshot into phase `i` (scheduled at each phase end and
  /// once after the drain).
  void snapshot_phase_deltas(std::size_t i);

  Scenario* scenario_;
  core::BcpEngine* bcp_;
  core::SessionManager* sessions_;
  Config config_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  Rng rng_;  ///< lifetimes (request content draws from scenario_->rng)
  /// Class assignment and backoff jitter each get a dedicated stream:
  /// neither is touched in single-class / no-retry runs, so legacy
  /// replays stay byte-identical.
  Rng class_rng_;
  Rng retry_rng_;
  std::vector<std::deque<QueuedSetup>> queues_;  ///< one per admission class
  std::set<core::SessionId> live_;  ///< ordered: deterministic force-teardown
  TrafficStats stats_;
  std::uint64_t open_requests_ = 0;     ///< arrivals without a terminal outcome
  std::uint64_t retries_inflight_ = 0;  ///< backoff timers pending
  std::unique_ptr<sim::PeriodicTimer> maintenance_;
  std::size_t maintenance_ticks_ = 0;
  bool accepting_ = false;  ///< arrivals/queue still being served
  // Previous snapshot values for per-phase deltas.
  std::uint64_t prev_breaks_ = 0, prev_switches_ = 0, prev_reactive_ = 0,
                prev_losses_ = 0;
  std::uint64_t probe_messages_total_ = 0, prev_probe_messages_ = 0;
};

}  // namespace spider::workload
