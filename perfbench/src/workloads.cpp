#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <optional>

#include "core/bcp.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "tracer.hpp"
#include "util/hash.hpp"
#include "workload/traffic.hpp"

namespace perfbench {
namespace {

using namespace spider;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

/// The world plus one BCP engine and one session manager, with the
/// per-compose gates and the counters every workload reports.
class Base : public Workload {
 public:
  const workload::Scenario& scenario() const override { return *s_; }

  Counters counters() const override {
    const core::SessionStats& st = sessions_->stats();
    const core::AllocationManager& alloc = *s_->alloc;
    return {
        {"requests", double(requests_)},
        {"bcp.composes", double(composes_)},
        {"bcp.successes", double(compose_ok_)},
        {"bcp.probes_spawned", double(spawned_)},
        {"bcp.probes_arrived", double(arrived_)},
        {"bcp.probe_messages", double(probe_messages_)},
        {"bcp.discovery_messages", double(discovery_messages_)},
        {"bcp.holds_acquired", double(holds_acquired_)},
        {"bcp.holds_reused", double(holds_reused_)},
        {"bcp.virtual_setup_ms_sum", virtual_setup_sum_},
        {"overlay.route_trees",
         double(s_->deployment->overlay().route_trees_computed())},
        {"overlay.paths_materialized",
         double(s_->deployment->overlay().route_paths_materialized())},
        {"net.router_trees", double(s_->router->recomputes())},
        {"dht.messages", double(s_->deployment->dht().messages_sent())},
        {"sim.events", double(s_->sim.events_executed())},
        {"sim.now_ms", s_->sim.now()},
        {"session.established", double(established_)},
        {"session.breaks", double(st.breaks)},
        {"session.backup_switches", double(st.backup_switches)},
        {"session.reactive_recoveries", double(st.reactive_recoveries)},
        {"session.losses", double(st.losses)},
        {"session.maintenance_messages", double(st.maintenance_messages)},
        {"alloc.admission_rejects", double(alloc.admission_rejects())},
        {"alloc.lease_renewals", double(alloc.lease_renewals())},
        {"alloc.lease_expirations", double(alloc.lease_expirations())},
    };
  }

 protected:
  void wire(const workload::SimScenarioConfig& config,
            const core::BcpConfig& bcp_config,
            const core::RecoveryConfig& recovery) {
    s_ = workload::build_sim_scenario(config);
    bcp_ = std::make_unique<core::BcpEngine>(*s_->deployment, *s_->alloc,
                                             *s_->evaluator, s_->sim,
                                             bcp_config);
    sessions_ = std::make_unique<core::SessionManager>(
        *s_->deployment, *s_->alloc, *s_->evaluator, *bcp_, s_->sim,
        recovery);
  }

  workload::GeneratedRequest sample(const workload::RequestProfile& profile) {
    return timed("workload.sample_request",
                 [&] { return workload::sample_request(*s_, profile); });
  }

  /// Composes one request, times it and checks the probe gates: every
  /// spawned probe ends exactly once, and at most β probes arrive.
  core::ComposeResult compose(const service::CompositeRequest& request) {
    const auto t0 = Clock::now();
    core::ComposeResult r =
        timed("bcp.compose", [&] { return bcp_->compose(request, s_->rng); });
    const double wall_ms = ms_since(t0);
    const core::ComposeStats& st = r.stats;
    gate(st.probes_spawned == st.probes_arrived + st.probes_dropped_total() +
                                  st.probes_forwarded,
         "probe accounting: spawned != arrived + dropped + forwarded");
    gate(st.probes_arrived <= std::uint64_t(bcp_->config().probing_budget),
         "probe budget: more probes arrived than beta");
    ++composes_;
    compose_ok_ += r.success ? 1 : 0;
    spawned_ += st.probes_spawned;
    arrived_ += st.probes_arrived;
    probe_messages_ += st.probe_messages;
    discovery_messages_ += st.discovery_messages;
    holds_acquired_ += st.holds_acquired;
    holds_reused_ += st.holds_reused;
    record_.compose_ms.push_back(wall_ms);
    if (r.success) {
      virtual_setup_sum_ += st.setup_time_ms;
      record_.virtual_setup_ms.push_back(st.setup_time_ms);
    }
    return r;
  }

  /// Offers one request: compose, then establish on success. Returns the
  /// session, or kInvalidSession when the request was not served.
  core::SessionId serve(const service::CompositeRequest& request) {
    count_request();
    return compose_and_establish(request);
  }

  core::SessionId compose_and_establish(
      const service::CompositeRequest& request) {
    core::ComposeResult r = compose(request);
    if (!r.success) return core::kInvalidSession;
    return establish(request, std::move(r));
  }

  core::SessionId establish(const service::CompositeRequest& request,
                            core::ComposeResult&& composed) {
    const core::SessionId id = timed("session.establish", [&] {
      return sessions_->establish(request, std::move(composed));
    });
    if (id != core::kInvalidSession) ++established_;
    return id;
  }

  void count_request() { ++requests_; }

  void teardown(core::SessionId id) {
    timed("session.teardown", [&] { sessions_->teardown(id); });
  }

  void audit() {
    const core::SessionManager::AuditReport report =
        timed("session.audit", [&] { return sessions_->audit(); });
    gate(report.conserved, "audit: grants not conserved");
  }

  /// Releases everything and checks the allocator holds nothing.
  void check_quiesced() {
    timed("alloc.sweep_expired", [&] { s_->alloc->sweep_expired(); });
    audit();
    gate(s_->alloc->active_grants() == 0, "quiesce: grants left");
    gate(s_->alloc->active_holds() == 0, "quiesce: holds left");
  }

  std::uint64_t next_request_id() { return ++request_ids_; }

  std::unique_ptr<workload::Scenario> s_;
  // Declared before the engines that report into it, so it outlives them.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<core::BcpEngine> bcp_;
  std::unique_ptr<core::SessionManager> sessions_;

 private:
  std::uint64_t request_ids_ = 0;
  std::uint64_t requests_ = 0, established_ = 0;
  std::uint64_t composes_ = 0, compose_ok_ = 0;
  std::uint64_t spawned_ = 0, arrived_ = 0;
  std::uint64_t probe_messages_ = 0, discovery_messages_ = 0;
  std::uint64_t holds_acquired_ = 0, holds_reused_ = 0;
  double virtual_setup_sum_ = 0.0;
};

// ---------------------------------------------------------------------------
// compose_scale: one closed-loop client composing linear chains on an
// exact 2k-peer world. A unit is one round of five requests, one per chain
// depth 2..6; each served request is established and torn down at once.
// ---------------------------------------------------------------------------

class ComposeScale final : public Base {
 public:
  static constexpr std::size_t kPeers = 2000;

  void build(std::uint64_t seed, std::size_t build_jobs) override {
    workload::SimScenarioConfig config;
    config.seed = util::hash_values(seed, std::uint64_t(1));
    config.peers = kPeers;
    config.ip_nodes = 2 * kPeers;
    // bench_scale's caps on the only O(N^2) state.
    config.router_cache_limit = 8;
    config.route_cache_limit = 64;
    config.build_jobs = build_jobs;
    core::BcpConfig bcp;
    bcp.probe_timeout_ms = 60000.0;
    wire(config, bcp, core::RecoveryConfig{});
  }

  std::size_t prefix_units() const override { return 4; }

  void step() override {
    for (std::size_t depth = 2; depth <= 6; ++depth) {
      RequestScope scope(next_request_id());
      workload::RequestProfile profile;
      profile.min_functions = depth;
      profile.max_functions = depth;
      profile.dag_probability = 0.0;
      const workload::GeneratedRequest gen = sample(profile);
      const core::SessionId id = serve(gen.request);
      if (id != core::kInvalidSession) teardown(id);
    }
  }

  void finish() override { check_quiesced(); }
};

// ---------------------------------------------------------------------------
// serve_steady: open-loop Poisson arrivals in virtual time on bench_serve's
// 300-peer world, with leases, the admission gate, maintenance, audits and
// a metrics registry. Peer capacities are large enough that every request
// is served: the load concurrency, not a failure rate. A unit is one
// virtual second. The loop is driven event by event from public Simulator
// calls so every layer call can be timed.
// ---------------------------------------------------------------------------

class ServeSteady final : public Base {
 public:
  static constexpr std::size_t kPeers = 300;
  static constexpr double kArrivalHz = 30.0;
  static constexpr double kLifetimeMeanMs = 6000.0;
  static constexpr double kUnitMs = 1000.0;
  static constexpr double kMaintenanceMs = 1000.0;
  static constexpr double kAuditMs = 4000.0;
  static constexpr double kQueueTimeoutMs = 4000.0;
  static constexpr double kLeaseTtlMs = 5000.0;
  static constexpr double kHighWater = 0.5;
  static constexpr std::size_t kQueueCapacity = 64;
  static constexpr double kPeerCapacity = 1000.0;

  void build(std::uint64_t seed, std::size_t build_jobs) override {
    workload::SimScenarioConfig config;
    config.seed = util::hash_values(seed, std::uint64_t(2));
    config.peers = kPeers;
    config.ip_nodes = 4 * kPeers;
    config.function_count = 40;
    config.function_zipf_s = 0.8;
    // bench_serve's 24-unit capacities fail about 15% of composes at this
    // rate; at 1000 units no hold or grant is ever refused.
    config.peer_cpu_capacity = kPeerCapacity;
    config.peer_mem_capacity = kPeerCapacity;
    config.build_jobs = build_jobs;
    core::RecoveryConfig recovery;
    recovery.backup_aggressiveness = 10.0;
    wire(config, core::BcpConfig{}, recovery);

    metrics_ = std::make_unique<obs::MetricsRegistry>();
    s_->alloc->set_metrics(metrics_.get());
    bcp_->set_observability(metrics_.get(), nullptr);
    sessions_->set_metrics(metrics_.get());
    s_->alloc->set_lease_ttl_ms(kLeaseTtlMs);
    core::AllocationManager::AdmissionConfig admission;
    admission.high_water_utilization = kHighWater;
    admission.queue_capacity = kQueueCapacity;
    s_->alloc->set_admission(admission);

    arrivals_ = std::make_unique<workload::PoissonProcess>(
        workload::PhaseSchedule({{"steady", 1e12, kArrivalHz}}),
        util::hash_values(seed, std::uint64_t(21)));
    lifetime_rng_.reseed(util::hash_values(seed, std::uint64_t(22)));
    profile_.min_functions = 2;
    profile_.max_functions = 3;
    profile_.function_zipf_s = 0.8;
  }

  // Long enough for the session population to reach steady state.
  std::size_t prefix_units() const override { return 30; }

  void prepare() override {
    accepting_ = true;
    maintenance_ = std::make_unique<sim::PeriodicTimer>(
        s_->sim, kMaintenanceMs, [this] { maintenance_tick(); });
    maintenance_->start();
    audits_ = std::make_unique<sim::PeriodicTimer>(s_->sim, kAuditMs, [this] {
      timed("bench.audit_tick", [&] { audit(); });
    });
    audits_->start(kAuditMs / 2.0);
    schedule_next_arrival();
  }

  void step() override { run_until(s_->sim.now() + kUnitMs); }

  void finish() override {
    accepting_ = false;
    run_until(s_->sim.now() + 4.0 * kLifetimeMeanMs);
    maintenance_->stop();
    audits_->stop();
    auto& alloc = *s_->alloc;
    while (!queue_.empty()) {
      alloc.admission_dequeued(s_->sim.now() - queue_.front().enqueued_at);
      queue_.pop_front();
    }
    for (const auto& [id, request] : live_) {
      if (sessions_->session_state(id) != core::SessionState::kTornDown) {
        teardown(id);
      }
    }
    live_.clear();
    s_->sim.run();
    check_quiesced();
    gate(sessions_->active_sessions() == 0, "quiesce: sessions left");
  }

 private:
  struct Queued {
    std::uint64_t request = 0;
    workload::GeneratedRequest gen;
    sim::Time enqueued_at = 0.0;
  };

  void run_until(sim::Time t) {
    timed("sim.run_until", [&] { s_->sim.run_until(t); });
  }

  void schedule_next_arrival() {
    const std::optional<sim::Time> t = timed(
        "workload.next_arrival", [&] { return arrivals_->next_arrival(); });
    if (!t.has_value()) return;
    s_->sim.schedule_at(std::max(*t, s_->sim.now()), [this] {
      timed("bench.on_arrival", [&] { on_arrival(); });
    });
  }

  void on_arrival() {
    if (!accepting_) return;
    schedule_next_arrival();
    const std::uint64_t request = next_request_id();
    RequestScope scope(request);
    count_request();
    auto& alloc = *s_->alloc;
    using Decision = core::AllocationManager::AdmissionDecision;
    const Decision decision =
        timed("alloc.admit_setup", [&] { return alloc.admit_setup(); });
    if (decision == Decision::kReject) return;
    workload::GeneratedRequest gen = sample(profile_);
    if (decision == Decision::kQueue) {
      queue_.push_back({request, std::move(gen), s_->sim.now()});
      return;
    }
    attempt(request, gen);
  }

  /// Composes and establishes one admitted request; a session lives for
  /// an exponential lifetime, then completes.
  void attempt(std::uint64_t request, const workload::GeneratedRequest& gen) {
    auto& alloc = *s_->alloc;
    core::ComposeResult r = compose(gen.request);
    const double setup_ms = r.stats.setup_time_ms;
    const core::SessionId id = r.success ? establish(gen.request, std::move(r))
                                         : core::kInvalidSession;
    const bool ok = id != core::kInvalidSession;
    timed("alloc.observe_setup",
          [&] { alloc.admission_observe_setup(ok, ok ? setup_ms : 0.0); });
    if (!ok) return;
    live_.emplace(id, request);
    const double lifetime = lifetime_rng_.next_exponential(kLifetimeMeanMs);
    s_->sim.schedule_after(lifetime, [this, id] {
      timed("bench.on_complete", [&] { complete(id); });
    });
  }

  void complete(core::SessionId id) {
    const auto it = live_.find(id);
    if (it == live_.end()) return;
    RequestScope scope(it->second);
    live_.erase(it);
    if (sessions_->session_state(id) != core::SessionState::kTornDown) {
      teardown(id);
    }
    drain_queue();
  }

  /// Serves queued requests, oldest first, while the gate is open.
  void drain_queue() {
    if (!accepting_) return;
    auto& alloc = *s_->alloc;
    while (timed("alloc.next_class",
                 [&] { return alloc.admission_next_class(); })
               .has_value()) {
      Queued entry = std::move(queue_.front());
      queue_.pop_front();
      RequestScope scope(entry.request);
      timed("alloc.dequeued", [&] {
        alloc.admission_dequeued(s_->sim.now() - entry.enqueued_at);
      });
      attempt(entry.request, entry.gen);
    }
  }

  void maintenance_tick() {
    timed("bench.maintenance_tick", [&] {
      timed("session.monitor",
            [&] { sessions_->monitor_active_sessions(s_->rng); });
      timed("session.maintenance", [&] { sessions_->run_maintenance(); });
      timed("alloc.controller_tick",
            [&] { s_->alloc->admission_controller_tick(); });
      auto& alloc = *s_->alloc;
      while (!queue_.empty() &&
             s_->sim.now() - queue_.front().enqueued_at >= kQueueTimeoutMs) {
        alloc.admission_dequeued(s_->sim.now() - queue_.front().enqueued_at);
        queue_.pop_front();
      }
      drain_queue();
    });
  }

  workload::RequestProfile profile_;
  std::unique_ptr<workload::PoissonProcess> arrivals_;
  Rng lifetime_rng_;
  std::deque<Queued> queue_;
  std::map<core::SessionId, std::uint64_t> live_;  ///< session -> request
  bool accepting_ = false;
  std::unique_ptr<sim::PeriodicTimer> maintenance_;
  std::unique_ptr<sim::PeriodicTimer> audits_;
};

// ---------------------------------------------------------------------------
// churn_recovery: a standing population of sessions with backups on an
// exact 1.2k-peer world. A unit is one tick: revive the peers that are due,
// kill twenty, monitor and maintain, retire 10% of sessions and top the
// population up, retrying a failed compose with a fresh request. The audit
// must pass after every tick. Twenty kills a tick give a few hundred breaks
// per run, enough for recovery_ratio to repeat across seeds. Maintenance
// costs about the same for ten kills as for twenty, since any kill flushes
// the route caches. The overlay tree cache is left uncapped so maintenance
// computes each cold source's tree once per tick.
// ---------------------------------------------------------------------------

class ChurnRecovery final : public Base {
 public:
  static constexpr std::size_t kPeers = 1200;
  static constexpr std::size_t kPopulation = 200;
  static constexpr std::size_t kKillsPerTick = 20;
  static constexpr std::size_t kReviveAfterTicks = 4;
  static constexpr double kTickMs = 1000.0;
  static constexpr std::size_t kAttemptsPerRequest = 4;

  void build(std::uint64_t seed, std::size_t build_jobs) override {
    workload::SimScenarioConfig config;
    config.seed = util::hash_values(seed, std::uint64_t(3));
    config.peers = kPeers;
    config.ip_nodes = 4000;
    config.router_cache_limit = 8;
    config.build_jobs = build_jobs;
    core::RecoveryConfig recovery;
    recovery.backup_aggressiveness = 10.0;
    wire(config, core::BcpConfig{}, recovery);
    churn_rng_.reseed(util::hash_values(seed, std::uint64_t(31)));
  }

  std::size_t prefix_units() const override { return 2; }

  void prepare() override { top_up(); }

  void step() override {
    ++tick_;
    while (!downed_.empty() && downed_.front().second <= tick_) {
      const overlay::PeerId peer = downed_.front().first;
      timed("deploy.revive_peer", [&] { s_->deployment->revive_peer(peer); });
      downed_.pop_front();
    }
    for (std::size_t k = 0; k < kKillsPerTick; ++k) {
      std::vector<overlay::PeerId> live;
      for (overlay::PeerId p = 0; p < s_->deployment->peer_count(); ++p) {
        if (s_->deployment->peer_alive(p)) live.push_back(p);
      }
      const overlay::PeerId victim = live[churn_rng_.next_below(live.size())];
      timed("deploy.kill_peer", [&] { s_->deployment->kill_peer(victim); });
      timed("session.on_peer_failed",
            [&] { sessions_->on_peer_failed(victim, s_->rng); });
      downed_.emplace_back(victim, tick_ + kReviveAfterTicks);
    }
    timed("sim.run_until",
          [&] { s_->sim.run_until(s_->sim.now() + kTickMs); });
    timed("session.monitor",
          [&] { sessions_->monitor_active_sessions(s_->rng); });
    timed("session.maintenance", [&] { sessions_->run_maintenance(); });
    forget_lost();
    const std::size_t retire = sessions_->active_sessions() / 10;
    for (std::size_t k = 0; k < retire && !population_.empty(); ++k) {
      teardown(population_.front());
      population_.pop_front();
    }
    top_up();
    audit();
  }

  void finish() override {
    for (core::SessionId id : population_) {
      if (sessions_->session_state(id) != core::SessionState::kTornDown) {
        teardown(id);
      }
    }
    population_.clear();
    check_quiesced();
  }

 private:
  /// Drops sessions the manager lost to unrecovered failures.
  void forget_lost() {
    std::erase_if(population_, [&](core::SessionId id) {
      return sessions_->session_state(id) == core::SessionState::kTornDown;
    });
  }

  /// One request per missing session. Churn can leave a sampled service
  /// without a usable replica, so the client asks again with a fresh
  /// sample, up to kAttemptsPerRequest composes; the request fails only if
  /// every attempt does.
  void top_up() {
    const std::size_t missing =
        kPopulation - std::min(kPopulation, sessions_->active_sessions());
    for (std::size_t k = 0; k < missing; ++k) {
      RequestScope scope(next_request_id());
      count_request();
      for (std::size_t attempt = 0; attempt < kAttemptsPerRequest;
           ++attempt) {
        const workload::GeneratedRequest gen = sample(profile_);
        const core::SessionId id = compose_and_establish(gen.request);
        if (id != core::kInvalidSession) {
          population_.push_back(id);
          break;
        }
      }
    }
  }

  workload::RequestProfile profile_;
  Rng churn_rng_;
  std::size_t tick_ = 0;
  std::deque<std::pair<overlay::PeerId, std::size_t>> downed_;
  std::deque<core::SessionId> population_;  ///< oldest first
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "compose_scale") return std::make_unique<ComposeScale>();
  if (name == "serve_steady") return std::make_unique<ServeSteady>();
  if (name == "churn_recovery") return std::make_unique<ChurnRecovery>();
  return nullptr;
}

}  // namespace perfbench
