#include "workload/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/hash.hpp"
#include "util/require.hpp"

namespace spider::workload {

// ---------------------------------------------------------------------------
// PhaseSchedule
// ---------------------------------------------------------------------------

PhaseSchedule::PhaseSchedule(std::vector<LoadPhase> phases)
    : phases_(std::move(phases)) {
  SPIDER_REQUIRE(!phases_.empty());
  begin_ms_.reserve(phases_.size() + 1);
  cum_.reserve(phases_.size() + 1);
  double t = 0.0, lambda = 0.0;
  for (const LoadPhase& p : phases_) {
    SPIDER_REQUIRE(p.duration_ms > 0.0);
    SPIDER_REQUIRE(p.rate_begin_hz >= 0.0 && p.rate_end() >= 0.0);
    begin_ms_.push_back(t);
    cum_.push_back(lambda);
    t += p.duration_ms;
    // Rates are per second, time in ms: expected arrivals over the phase
    // are the trapezoid mean rate times duration / 1000.
    lambda += 0.5 * (p.rate_begin_hz + p.rate_end()) * p.duration_ms / 1000.0;
  }
  begin_ms_.push_back(t);
  cum_.push_back(lambda);
}

PhaseSchedule PhaseSchedule::serving_profile(double steady_hz, double warmup_ms,
                                             double steady_ms, double flash_ms,
                                             double flash_multiplier,
                                             double ramp_ms,
                                             double ramp_end_fraction) {
  SPIDER_REQUIRE(steady_hz > 0.0 && flash_multiplier >= 1.0);
  std::vector<LoadPhase> phases;
  phases.push_back({"warmup", warmup_ms, 0.25 * steady_hz, steady_hz});
  phases.push_back({"steady", steady_ms, steady_hz});
  phases.push_back({"flash", flash_ms, flash_multiplier * steady_hz});
  phases.push_back({"ramp", ramp_ms, steady_hz, ramp_end_fraction * steady_hz});
  return PhaseSchedule(std::move(phases));
}

std::size_t PhaseSchedule::phase_at(sim::Time t) const {
  SPIDER_REQUIRE(!phases_.empty());
  // Largest i with begin_ms_[i] <= t (half-open phases), clamped into
  // [0, N-1]: times at or past the total land in the last phase.
  const auto first = begin_ms_.begin();
  const auto last = begin_ms_.end() - 1;  // exclude the total sentinel
  auto it = std::upper_bound(first, last, t);
  if (it == first) return 0;
  return std::min(std::size_t(it - first - 1), phases_.size() - 1);
}

double PhaseSchedule::rate_hz_at(sim::Time t) const {
  if (t < 0.0 || t >= total_duration_ms()) return 0.0;
  const std::size_t i = phase_at(t);
  const LoadPhase& p = phases_[i];
  const double frac = (t - begin_ms_[i]) / p.duration_ms;
  return p.rate_begin_hz + (p.rate_end() - p.rate_begin_hz) * frac;
}

double PhaseSchedule::cumulative_arrivals(sim::Time t) const {
  if (t <= 0.0) return 0.0;
  if (t >= total_duration_ms()) return cum_.back();
  const std::size_t i = phase_at(t);
  const LoadPhase& p = phases_[i];
  const double dt = t - begin_ms_[i];
  const double r0 = p.rate_begin_hz / 1000.0;  // per ms
  const double slope = (p.rate_end() - p.rate_begin_hz) / 1000.0 / p.duration_ms;
  return cum_[i] + r0 * dt + 0.5 * slope * dt * dt;
}

std::optional<sim::Time> PhaseSchedule::inverse_cumulative(
    double lambda) const {
  SPIDER_REQUIRE(lambda >= 0.0);
  if (lambda > cum_.back()) return std::nullopt;
  // Largest i with cum_[i] <= lambda; ties across zero-rate phases
  // resolve to the latest such phase, whose begin is the correct time.
  const auto first = cum_.begin();
  const auto last = cum_.end() - 1;  // exclude the Λ(total) sentinel
  auto it = std::upper_bound(first, last, lambda);
  std::size_t i = it == first ? 0 : std::size_t(it - first - 1);
  i = std::min(i, phases_.size() - 1);
  const LoadPhase& p = phases_[i];
  const double x = lambda - cum_[i];  // Λ still to accumulate inside phase i
  const double r0 = p.rate_begin_hz / 1000.0;
  const double slope = (p.rate_end() - p.rate_begin_hz) / 1000.0 / p.duration_ms;
  double dt;
  if (std::abs(slope) < 1e-15) {
    if (r0 <= 0.0) return begin_ms_[i];  // zero-rate phase: x must be ~0
    dt = x / r0;
  } else {
    // Solve 0.5·slope·dt² + r0·dt = x for the smallest non-negative root.
    const double disc = r0 * r0 + 2.0 * slope * x;
    dt = (-r0 + std::sqrt(std::max(disc, 0.0))) / slope;
  }
  dt = std::clamp(dt, 0.0, p.duration_ms);
  return begin_ms_[i] + dt;
}

// ---------------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------------

std::optional<sim::Time> PoissonProcess::next_arrival() {
  cum_ += rng_.next_exponential(1.0);
  return schedule_.inverse_cumulative(cum_);
}

TraceProcess::TraceProcess(std::vector<sim::Time> arrivals)
    : arrivals_(std::move(arrivals)) {
  SPIDER_REQUIRE(std::is_sorted(arrivals_.begin(), arrivals_.end()));
}

std::optional<sim::Time> TraceProcess::next_arrival() {
  if (next_ >= arrivals_.size()) return std::nullopt;
  return arrivals_[next_++];
}

// ---------------------------------------------------------------------------
// SessionLifetime
// ---------------------------------------------------------------------------

double SessionLifetime::sample(Rng& rng) const {
  SPIDER_REQUIRE(mean_ms > 0.0);
  switch (kind) {
    case Kind::kFixed:
      return mean_ms;
    case Kind::kExponential:
      return rng.next_exponential(mean_ms);
    case Kind::kLogNormal: {
      // mu chosen so the distribution's mean is mean_ms for any sigma.
      const double mu = std::log(mean_ms) - 0.5 * sigma * sigma;
      return rng.next_lognormal(mu, sigma);
    }
  }
  SPIDER_REQUIRE(false);
  return mean_ms;
}

// ---------------------------------------------------------------------------
// TrafficDriver
// ---------------------------------------------------------------------------

TrafficDriver::TrafficDriver(Scenario& scenario, core::BcpEngine& bcp,
                             core::SessionManager& sessions, Config config,
                             std::unique_ptr<ArrivalProcess> arrivals)
    : scenario_(&scenario),
      bcp_(&bcp),
      sessions_(&sessions),
      config_(std::move(config)),
      arrivals_(std::move(arrivals)),
      // Lifetime draws get their own stream: arrival counts must not
      // perturb request sampling (scenario rng) or vice versa.
      rng_(util::hash_values(config_.seed, std::uint64_t(0x11f37a))),
      class_rng_(util::hash_values(config_.seed, std::uint64_t(0xc1a55))),
      retry_rng_(util::hash_values(config_.seed, std::uint64_t(0x4e712))) {
  SPIDER_REQUIRE(config_.schedule.phase_count() > 0);
  SPIDER_REQUIRE(config_.maintenance_period_ms > 0.0);
  if (config_.retry.enabled()) {
    SPIDER_REQUIRE(config_.retry.base_backoff_ms > 0.0);
    SPIDER_REQUIRE(config_.retry.multiplier >= 1.0);
    SPIDER_REQUIRE(config_.retry.max_backoff_ms >= config_.retry.base_backoff_ms);
  }
  if (arrivals_ == nullptr) {
    arrivals_ =
        std::make_unique<PoissonProcess>(config_.schedule, config_.seed);
  }
  stats_.phases.resize(config_.schedule.phase_count());
  for (std::size_t i = 0; i < stats_.phases.size(); ++i) {
    PhaseStats& ps = stats_.phases[i];
    ps.name = config_.schedule.phases()[i].name;
    ps.begin_ms = config_.schedule.phase_begin_ms(i);
    ps.end_ms = config_.schedule.phase_end_ms(i);
  }
}

const TrafficStats& TrafficDriver::run() {
  SPIDER_REQUIRE_MSG(maintenance_ == nullptr, "run() is one-shot");
  auto& sim = scenario_->sim;
  auto& alloc = *scenario_->alloc;
  // Refresh the allocator's capacity snapshot so grant_utilization() is
  // meaningful even when the caller never armed the admission gate.
  alloc.set_admission(alloc.admission());
  const std::size_t n_classes = alloc.admission_class_count();
  if (!config_.class_mix.empty()) {
    SPIDER_REQUIRE_MSG(config_.class_mix.size() == n_classes,
                       "class_mix size must match the allocator's classes");
    for (double w : config_.class_mix) SPIDER_REQUIRE(w >= 0.0);
  }
  queues_.resize(n_classes);
  stats_.classes.resize(n_classes);

  accepting_ = true;
  maintenance_ = std::make_unique<sim::PeriodicTimer>(
      sim, config_.maintenance_period_ms, [this] { maintenance_tick(); });
  maintenance_->start();
  if (config_.audit_period_ms > 0.0) {
    sessions_->enable_periodic_audit(config_.audit_period_ms);
  }
  // Phase-boundary snapshots. Scheduled before any arrival event exists,
  // so at a shared timestamp the snapshot fires first — and an arrival at
  // exactly the boundary belongs to the *next* phase (half-open), so the
  // ordering is the correct one.
  for (std::size_t i = 0; i < config_.schedule.phase_count(); ++i) {
    sim.schedule_at(config_.schedule.phase_end_ms(i),
                    [this, i] { snapshot_phase_deltas(i); });
  }
  schedule_next_arrival();

  const double total = config_.schedule.total_duration_ms();
  sim.run_until(total);
  // Drain window: no new arrivals (the Poisson stream is exhausted past
  // Λ(total); trace arrivals are gated off below), but queued setups may
  // still be served as completions free capacity.
  sim.run_until(total + config_.drain_ms);
  accepting_ = false;
  maintenance_->stop();
  sessions_->enable_periodic_audit(0.0);

  // Whatever still waits in the admission queues was never served.
  for (std::size_t cls = 0; cls < queues_.size(); ++cls) {
    auto& q = queues_[cls];
    while (!q.empty()) {
      QueuedSetup entry = std::move(q.front());
      q.pop_front();
      alloc.admission_dequeued(sim.now() - entry.enqueued_at, cls);
      count(&TrafficCounts::queue_timeouts, entry.phase, cls);
      // accepting_ is already false, so this is a give-up (retries on) or
      // a plain close (retries off) — never a new backoff timer.
      finish_or_retry(std::move(entry.pending));
    }
  }
  // Sessions that outlived the drain window are torn down forcibly, in
  // session-id order (live_ is an ordered set) for determinism.
  const std::vector<core::SessionId> stragglers(live_.begin(), live_.end());
  live_.clear();
  for (core::SessionId id : stragglers) {
    if (sessions_->session_state(id) == core::SessionState::kTornDown) {
      continue;  // already lost to an unrecovered failure
    }
    ++stats_.forced_teardowns;
    sessions_->teardown(id);
  }
  // Flush residual completion events (now no-ops: their sessions are gone
  // from live_); this may advance virtual time well past the drain.
  sim.run();
  alloc.sweep_expired();
  stats_.final_audit = sessions_->audit();
  stats_.quiesced_at_ms = sim.now();
  // Conservation: every arrival must have reached a terminal outcome and
  // every backoff timer must have fired (pending ones give up above once
  // accepting_ went false). The caller asserts both are zero.
  stats_.open_requests_at_quiesce = open_requests_;
  stats_.retries_inflight_at_quiesce = retries_inflight_;
  // Recovery activity during the drain window lands in the last phase.
  snapshot_phase_deltas(stats_.phases.size() - 1);
  return stats_;
}

void TrafficDriver::schedule_next_arrival() {
  const std::optional<sim::Time> t = arrivals_->next_arrival();
  if (!t.has_value()) return;
  scenario_->sim.schedule_at(std::max(*t, scenario_->sim.now()),
                             [this] { on_arrival(); });
}

void TrafficDriver::on_arrival() {
  schedule_next_arrival();
  if (!accepting_) return;
  PendingSetup p;
  p.cls = draw_class();
  ++open_requests_;
  submit(std::move(p), /*is_retry=*/false);
  observe_utilization();
}

std::size_t TrafficDriver::draw_class() {
  if (config_.class_mix.size() < 2) return 0;
  double total = 0.0;
  for (double w : config_.class_mix) total += w;
  SPIDER_REQUIRE(total > 0.0);
  double x = class_rng_.next_double() * total;
  for (std::size_t i = 0; i + 1 < config_.class_mix.size(); ++i) {
    x -= config_.class_mix[i];
    if (x < 0.0) return i;
  }
  return config_.class_mix.size() - 1;
}

void TrafficDriver::submit(PendingSetup p, bool is_retry) {
  const sim::Time now = scenario_->sim.now();
  const std::size_t phase = config_.schedule.phase_at(now);
  count(is_retry ? &TrafficCounts::retries : &TrafficCounts::arrivals, phase,
        p.cls);
  ++p.submissions;
  switch (scenario_->alloc->admit_setup(p.cls)) {
    case core::AllocationManager::AdmissionDecision::kAdmit:
      count(&TrafficCounts::admitted, phase, p.cls);
      if (!p.gen.has_value()) {
        p.gen = sample_request(*scenario_, config_.profile);
      }
      attempt_setup(std::move(p), phase);
      break;
    case core::AllocationManager::AdmissionDecision::kQueue:
      count(&TrafficCounts::queued, phase, p.cls);
      // Sample at enqueue time: the request's content draws stay in
      // decision order no matter when the queue drains.
      if (!p.gen.has_value()) {
        p.gen = sample_request(*scenario_, config_.profile);
      }
      queues_[p.cls].push_back({std::move(p), now, phase});
      break;
    case core::AllocationManager::AdmissionDecision::kReject:
      // Never sampled, never probed — the cheapest possible outcome,
      // which is the whole point of gating before composition.
      count(&TrafficCounts::rejected, phase, p.cls);
      finish_or_retry(std::move(p));
      break;
  }
}

void TrafficDriver::finish_or_retry(PendingSetup p) {
  const bool budget_left =
      config_.retry.enabled() && p.submissions <= config_.retry.max_retries;
  if (budget_left && accepting_) {
    const double cap = config_.retry.max_backoff_ms;
    double backoff = config_.retry.base_backoff_ms;
    for (std::size_t i = 1; i < p.submissions && backoff < cap; ++i) {
      backoff *= config_.retry.multiplier;
    }
    backoff = std::min(backoff, cap);
    const double delay = backoff * retry_rng_.next_double(0.5, 1.0);
    ++retries_inflight_;
    scenario_->sim.schedule_after(delay, [this, p]() mutable {
      --retries_inflight_;
      if (!accepting_) {
        // The world quiesced while this timer was pending: the retry
        // never happens, and the request closes as a give-up.
        give_up(p, config_.schedule.phase_at(scenario_->sim.now()));
        return;
      }
      submit(std::move(p), /*is_retry=*/true);
      observe_utilization();
    });
  } else if (config_.retry.enabled()) {
    give_up(p, config_.schedule.phase_at(scenario_->sim.now()));
  } else {
    --open_requests_;  // final reject/timeout: the seed-era terminal outcome
  }
}

void TrafficDriver::give_up(const PendingSetup& p, std::size_t phase) {
  count(&TrafficCounts::retry_gaveups, phase, p.cls);
  --open_requests_;
}

void TrafficDriver::count(std::uint64_t TrafficCounts::*field,
                          std::size_t phase, std::size_t cls) {
  ++(stats_.phases[phase].*field);
  ++(stats_.classes[cls].*field);
}

void TrafficDriver::attempt_setup(PendingSetup p, std::size_t phase) {
  SPIDER_REQUIRE(p.gen.has_value());
  PhaseStats& ps = stats_.phases[phase];
  auto& alloc = *scenario_->alloc;
  core::ComposeResult result = bcp_->compose(p.gen->request, scenario_->rng);
  probe_messages_total_ +=
      result.stats.probe_messages + result.stats.discovery_messages;
  if (!result.success) {
    ++ps.compose_failures;
    alloc.admission_observe_setup(false, 0.0);
    --open_requests_;  // compose failures are terminal (no retry)
    return;
  }
  const double setup_ms = result.stats.setup_time_ms;
  const core::SessionId id =
      sessions_->establish(p.gen->request, std::move(result));
  if (id == core::kInvalidSession) {
    ++ps.compose_failures;  // hold expired before confirm: admission lost
    alloc.admission_observe_setup(false, 0.0);
    --open_requests_;
    return;
  }
  count(&TrafficCounts::established, phase, p.cls);
  ps.setup_ms.add(setup_ms);
  alloc.admission_observe_setup(true, setup_ms);
  --open_requests_;
  live_.insert(id);
  const double lifetime = std::max(config_.lifetime.sample(rng_), 0.0);
  scenario_->sim.schedule_after(lifetime, [this, id] { complete_session(id); });
  observe_utilization();
}

void TrafficDriver::complete_session(core::SessionId id) {
  if (live_.erase(id) == 0) return;  // already force-torn-down
  const std::size_t phase =
      config_.schedule.phase_at(scenario_->sim.now());
  if (sessions_->session_state(id) == core::SessionState::kTornDown) {
    // Lost to an unrecovered failure before its natural end; the loss is
    // already in the recovery deltas, so it is not a completion.
    return;
  }
  ++stats_.phases[phase].completed;
  sessions_->teardown(id);
  drain_queue();
  observe_utilization();
}

void TrafficDriver::drain_queue() {
  if (!accepting_) return;
  auto& alloc = *scenario_->alloc;
  const sim::Time now = scenario_->sim.now();
  // The allocator picks the class to serve next (deficit-weighted round
  // robin; plain FIFO with one class) and stops when the gate closes.
  while (std::optional<std::size_t> cls = alloc.admission_next_class()) {
    auto& q = queues_[*cls];
    SPIDER_REQUIRE_MSG(!q.empty(), "allocator/driver queue depth mismatch");
    QueuedSetup entry = std::move(q.front());
    q.pop_front();
    const double wait = now - entry.enqueued_at;
    alloc.admission_dequeued(wait, *cls);
    const std::size_t phase = config_.schedule.phase_at(now);
    count(&TrafficCounts::queue_served, phase, *cls);
    stats_.phases[phase].queue_wait_ms.add(wait);
    attempt_setup(std::move(entry.pending), phase);
  }
}

void TrafficDriver::expire_queue_waits() {
  auto& alloc = *scenario_->alloc;
  const sim::Time now = scenario_->sim.now();
  for (std::size_t cls = 0; cls < queues_.size(); ++cls) {
    auto& q = queues_[cls];
    while (!q.empty() &&
           now - q.front().enqueued_at >= config_.queue_timeout_ms) {
      QueuedSetup entry = std::move(q.front());
      q.pop_front();
      alloc.admission_dequeued(now - entry.enqueued_at, cls);
      // Attributed to the phase that enqueued it: that arrival is the one
      // that experienced the abandonment.
      count(&TrafficCounts::queue_timeouts, entry.phase, cls);
      finish_or_retry(std::move(entry.pending));
    }
  }
}

void TrafficDriver::maintenance_tick() {
  ++maintenance_ticks_;
  if (config_.on_maintenance_tick) config_.on_maintenance_tick(maintenance_ticks_);
  sessions_->monitor_active_sessions(scenario_->rng);
  sessions_->run_maintenance();
  // One deterministic controller step per tick, before the queue drains
  // against the (possibly moved) mark. A no-op for static gates.
  scenario_->alloc->admission_controller_tick();
  expire_queue_waits();
  drain_queue();  // recovery losses may have freed capacity
  observe_utilization();
}

void TrafficDriver::observe_utilization() {
  const double util = scenario_->alloc->grant_utilization();
  PhaseStats& ps =
      stats_.phases[config_.schedule.phase_at(scenario_->sim.now())];
  ps.util_peak = std::max(ps.util_peak, util);
}

void TrafficDriver::snapshot_phase_deltas(std::size_t i) {
  const core::SessionStats& st = sessions_->stats();
  PhaseStats& ps = stats_.phases.at(i);
  ps.admission_mark = scenario_->alloc->admission_mark();
  ps.breaks += st.breaks - prev_breaks_;
  ps.backup_switches += st.backup_switches - prev_switches_;
  ps.reactive_recoveries += st.reactive_recoveries - prev_reactive_;
  ps.losses += st.losses - prev_losses_;
  ps.probe_messages += probe_messages_total_ - prev_probe_messages_;
  prev_breaks_ = st.breaks;
  prev_switches_ = st.backup_switches;
  prev_reactive_ = st.reactive_recoveries;
  prev_losses_ = st.losses;
  prev_probe_messages_ = probe_messages_total_;
}

}  // namespace spider::workload
