// Resource allocation with soft (probe-time) and confirmed (session-time)
// reservations.
//
// BCP step 2.1 requires each probed peer to *temporarily* allocate the
// resources a probe asks for, so that concurrent probes cannot jointly
// admit sessions beyond capacity; the allocation is cancelled after a
// timeout unless a confirmation message arrives (§4.2).  This manager
// implements that protocol state for both end-system resources (per peer)
// and bandwidth (per overlay link):
//
//   soft_reserve_*()  -> HoldId      (expires at `expire_at` unless...)
//   confirm(hold, session)           (...converted to a session grant;
//   confirm_all(holds, session)       a whole graph's holds, or none)
//   release_hold(hold)               (explicit early cancel)
//   release_session(session)         (teardown / failure)
//
// Expiry is lazy: expired holds are purged whenever availability for the
// same peer/link is inspected, so no simulator events are needed. A purge
// is complete — detecting an expired hold on one link removes it from
// every structure it touches — and sweep_expired() purges everything at
// once, so the outstanding-hold gauge never lags availability. One scan
// serves all three (a peer's soft map, a link's, the hold table), and
// expiry, release and confirmation drop a hold through one removal body.
//
// Session grants are optionally *leased* (set_lease_ttl_ms > 0): each
// granted session carries a renew_by deadline that renew_session() pushes
// forward, and reclaim_expired_leases() returns un-renewed grants to
// availability — the session-time half of the paper's soft-state story,
// protecting capacity from sources that crashed or whose teardown was
// lost. The default ttl of 0 means grants never expire (seed behaviour,
// bit-for-bit).
//
// Admission control (set_admission, off by default): under sustained
// open-loop load, letting every arrival probe-and-reserve once granted
// capacity is nearly exhausted just thrashes soft holds — probes reserve,
// fail to find a full graph, and time out while starving each other.
// With a high-water mark configured, admit_setup(cls) gates *new* setups
// before any probing happens: admit while aggregate grant utilization is
// below the mark and nothing is queued, queue (per-class bounded queues)
// while saturated, reject beyond that. Queued work drains in deficit-
// weighted round-robin order across the configured admission classes
// (admission_next_class; one class = plain FIFO, the seed behaviour),
// and the effective mark may be driven by a deterministic AIMD
// controller servoing on observed setup latency / compose-failure rate
// (DESIGN.md §5j). The caller owns the queued work (the allocator has no
// notion of a request); this class owns the decision and the accounting:
// alloc.admission_rejects / admission_queued / admission_queue_wait_ms
// counters, a queue-wait histogram, the queue-depth and admission_mark
// gauges, and per-class queued/reject/starvation counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/deployment.hpp"
#include "service/qos.hpp"
#include "service/service_graph.hpp"
#include "sim/simulator.hpp"

namespace spider::obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace spider::obs

namespace spider::core {

using HoldId = std::uint64_t;
using SessionId = std::uint64_t;
constexpr HoldId kInvalidHold = 0;
constexpr SessionId kInvalidSession = 0;

/// Read interface over resource availability. The live implementation is
/// AllocationManager; the centralized baseline evaluates against a stale
/// snapshot implementing the same interface (that staleness is exactly the
/// imprecision the paper's §1 critique of global-state schemes describes).
class AvailabilityView {
 public:
  virtual ~AvailabilityView() = default;
  virtual service::Resources peer_available(PeerId peer) = 0;
  virtual double link_available_kbps(overlay::OverlayLinkId link) = 0;

  /// Min available bandwidth along a path's links (infinity for empty).
  double path_available_kbps(const overlay::OverlayPath& path) {
    double avail = std::numeric_limits<double>::infinity();
    for (overlay::OverlayLinkId link : path.links) {
      avail = std::min(avail, link_available_kbps(link));
    }
    return avail;
  }

  /// True when every peer and link of `demand` has the room it asks for.
  /// Checks peers, then links, in the demand's iteration order and stops
  /// at the first shortfall.
  bool fits(const service::GraphDemand& demand) {
    for (const auto& [peer, need] : demand.peers) {
      if (!need.fits_within(peer_available(peer))) return false;
    }
    for (const auto& [link, kbps] : demand.links) {
      if (link_available_kbps(link) < kbps) return false;
    }
    return true;
  }
};

class AllocationManager : public AvailabilityView {
 public:
  AllocationManager(Deployment& deployment, sim::Simulator& simulator)
      : deployment_(&deployment),
        sim_(&simulator),
        peer_state_(deployment.peer_count()),
        link_state_(deployment.overlay().link_count()) {}

  // ----- availability -----

  /// Peer resources not held or granted (soft holds that expired are
  /// purged first).
  service::Resources peer_available(PeerId peer) override;
  /// Overlay link bandwidth not held or granted.
  double link_available_kbps(overlay::OverlayLinkId link) override;

  // ----- soft holds (probe-time) -----

  /// Reserves `amount` on `peer` until `expire_at`; fails (nullopt) if it
  /// does not fit the current availability.
  std::optional<HoldId> soft_reserve_peer(PeerId peer,
                                          const service::Resources& amount,
                                          sim::Time expire_at);
  /// Reserves `kbps` on every link of `path` until `expire_at`; all-or-
  /// nothing.
  std::optional<HoldId> soft_reserve_path(const overlay::OverlayPath& path,
                                          double kbps, sim::Time expire_at);

  /// Converts a pending hold into a grant owned by `session`. Returns
  /// false if the hold already expired or was released.
  bool confirm(HoldId hold, SessionId session);
  /// Confirms `holds` for `session`, in order, all or nothing: at the
  /// first hold that cannot be confirmed it releases the session's grants
  /// and every hold not yet confirmed, and returns false.
  bool confirm_all(const std::vector<HoldId>& holds, SessionId session);
  /// Cancels a pending hold early (no-op if gone).
  void release_hold(HoldId hold);

  // ----- sessions -----

  SessionId new_session_id() { return next_session_id_++; }
  /// Frees everything granted to `session`.
  void release_session(SessionId session);

  // ----- session leases (soft session-time state) -----

  /// Lease time-to-live for session grants. 0 (the default) disables
  /// leasing entirely: grants are permanent until released, the seed
  /// behaviour. With a positive ttl, confirm()/grant_direct() stamp the
  /// session's `renew_by = now + ttl`, renew_session() refreshes it, and
  /// reclaim_expired_leases() frees sessions that missed their deadline.
  void set_lease_ttl_ms(double ttl_ms) { lease_ttl_ms_ = ttl_ms; }
  double lease_ttl_ms() const { return lease_ttl_ms_; }

  /// Pushes `session`'s lease deadline to now + ttl. No-op (and uncounted)
  /// when leasing is off or the session holds no grants.
  void renew_session(SessionId session);

  /// Reclaims every session whose lease deadline has passed, returning
  /// its grants to availability. Returns the number of sessions freed.
  std::size_t reclaim_expired_leases();

  /// The session's lease deadline, if it is granted and leasing is on.
  std::optional<sim::Time> lease_renew_by(SessionId session) const;

  // Cumulative lease accounting (valid with or without a metrics
  // registry; mirrored into alloc.lease_* counters when one is attached).
  std::uint64_t lease_renewals() const { return lease_renewals_; }
  std::uint64_t lease_expirations() const { return lease_expirations_; }
  double lease_reclaimed_kbps() const { return lease_reclaimed_kbps_; }

  // ----- admission control (steady-state serving) -----

  /// What admit_setup() told the caller to do with a new setup attempt.
  enum class AdmissionDecision { kAdmit, kQueue, kReject };

  /// One weighted admission class. Weights are relative deficit-round-
  /// robin shares: while several classes are backlogged, class i drains
  /// roughly weight_i / Σ weights of the served slots, and any positive
  /// weight guarantees eventual service (no starvation). A near-zero
  /// weight against a huge one degenerates to strict priority.
  struct AdmissionClassConfig {
    double weight = 1.0;
    std::size_t queue_capacity = 0;
  };

  struct AdmissionConfig {
    /// Fraction of aggregate peer grant capacity (max over resource
    /// types) at or above which new setups stop being admitted directly.
    /// Negative (the default) disables admission control entirely:
    /// admit_setup() always says kAdmit and counts nothing.
    double high_water_utilization = -1.0;
    /// How many setups the caller may hold back for retry while
    /// saturated; 0 means saturated arrivals are rejected outright.
    /// Only consulted when `classes` is empty.
    std::size_t queue_capacity = 0;
    /// Weighted admission classes. Empty (the default) configures one
    /// implicit class bounded by `queue_capacity` whose dequeue order is
    /// plain FIFO — bit-for-bit the historical single-queue behaviour.
    std::vector<AdmissionClassConfig> classes;

    // --- adaptive controller (AIMD; inert unless `adaptive`) ---

    /// When true, the effective high-water mark starts at
    /// high_water_utilization and is adjusted by every
    /// admission_controller_tick(): additive increase while the observed
    /// window stays inside both targets, multiplicative decrease when
    /// either is breached. When false the mark is the configured
    /// constant, exactly as before.
    bool adaptive = false;
    /// Mean virtual setup latency (successful setups, per window) above
    /// which the controller backs off; <= 0 disables the latency signal.
    double target_setup_ms = -1.0;
    /// Compose-failure fraction (failed / attempted setups, per window)
    /// above which the controller backs off; < 0 disables that signal.
    double target_failure_rate = -1.0;
    /// Additive increase per calm tick (utilization fraction).
    double increase_step = 0.02;
    /// Multiplicative decrease applied on a breached tick.
    double decrease_factor = 0.7;
    /// The adaptive mark is clamped to [mark_floor, mark_ceiling].
    double mark_floor = 0.05;
    double mark_ceiling = 0.95;
  };

  /// Installs (or, with the default config, removes) the admission gate.
  /// Also re-snapshots aggregate peer capacity, so call it after the
  /// deployment's capacities are final. Per-class queue depths survive a
  /// re-arm with the same class count (re-arming while queued is how the
  /// tests move the mark); changing the class count requires an empty
  /// queue. Class weights must be positive.
  void set_admission(const AdmissionConfig& config);
  const AdmissionConfig& admission() const { return admission_; }

  /// Fraction of aggregate *live* peer capacity currently granted to
  /// sessions, maximized over resource types (cpu, memory). Soft holds
  /// are deliberately excluded: they self-expire, and counting them
  /// would make the gate oscillate with probe traffic. The capacity
  /// denominator tracks peer liveness lazily: kill/revive bumps the
  /// deployment's liveness epoch and the next query recomputes the
  /// snapshot, so churn cannot leave the gate judging against capacity
  /// that no longer exists. 0 when no live peer has capacity.
  double grant_utilization();

  /// Gate for one new setup in admission class `cls`. Counts kReject
  /// into admission_rejects and kQueue into admission_queued (and the
  /// queue-depth gauge); the caller must pair every kQueue with exactly
  /// one admission_dequeued() once the setup is served or abandoned.
  /// FIFO across the gate is preserved: while anything is queued (any
  /// class), new arrivals queue behind it even if capacity recovered.
  AdmissionDecision admit_setup(std::size_t cls = 0);

  /// The caller removed one queued setup of class `cls` (served or
  /// timed out) after waiting `wait_ms` of virtual time.
  void admission_dequeued(double wait_ms, std::size_t cls = 0);

  /// Which class's queue head should be served next, consuming that
  /// class's deficit: nullopt when nothing is queued or the gate is
  /// closed (so a closed gate can never dequeue-for-service; timeouts go
  /// through admission_dequeued directly). With one class this is plain
  /// FIFO; with several it is deficit-weighted round robin over the
  /// backlogged classes, counting admission_class_skips for every pass
  /// a backlogged class had to wait for credit.
  std::optional<std::size_t> admission_next_class();

  /// True when the gate would admit a *queued* setup right now (below
  /// the effective high-water mark). Used by callers to drain queues.
  bool admission_open();

  // --- adaptive-controller feed (harmless no-ops while static) ---

  /// The caller attempted one admitted setup: `success` says whether it
  /// established, `setup_ms` its virtual setup latency (successes only).
  /// Accumulates the controller's current observation window.
  void admission_observe_setup(bool success, double setup_ms);

  /// One deterministic controller step over the window accumulated since
  /// the previous tick (drive it from a virtual-time timer, never from
  /// wall clock). Applies AIMD to the effective mark when `adaptive`,
  /// publishes the alloc.admission_mark gauge, and resets the window. A
  /// window with no attempted setups holds the mark (no information).
  void admission_controller_tick();

  /// The effective high-water mark admission_open() gates against (the
  /// configured constant when static, the controller's current value
  /// when adaptive; meaningless while admission is disabled).
  double admission_mark() const { return admission_mark_; }

  std::uint64_t admission_rejects() const { return admission_rejects_; }
  std::uint64_t admission_queued() const { return admission_queued_count_; }
  double admission_queue_wait_ms() const { return admission_queue_wait_ms_; }
  std::size_t admission_queue_depth() const { return admission_queue_depth_; }

  // --- per-class accounting (class 0 aliases the implicit class) ---

  std::size_t admission_class_count() const {
    return admission_.classes.empty() ? 1 : admission_.classes.size();
  }
  std::size_t admission_queue_depth(std::size_t cls) const {
    return class_state_.at(cls).depth;
  }
  std::uint64_t admission_class_queued(std::size_t cls) const {
    return class_state_.at(cls).queued;
  }
  std::uint64_t admission_class_rejects(std::size_t cls) const {
    return class_state_.at(cls).rejects;
  }
  /// Starvation counter: passes where the class was backlogged but had
  /// to wait another round for deficit credit.
  std::uint64_t admission_class_skips(std::size_t cls) const {
    return class_state_.at(cls).skips;
  }

  /// Direct session grant without a prior hold (used by the baselines,
  /// which have no probing phase, and by the §5 backup switch).
  /// All-or-nothing across the demand's peers and links; one grant per
  /// peer and per link. Returns false and changes nothing on failure.
  bool grant_direct(SessionId session, const service::GraphDemand& demand);

  // ----- introspection -----

  std::size_t active_holds() const { return holds_.size(); }
  std::size_t active_grants() const { return grants_.size(); }

  /// Purges every expired soft hold right now, across all peers and
  /// links, so availability and the outstanding-hold gauge agree without
  /// waiting for a query to touch each peer.
  void sweep_expired();

  /// Session ids that currently own at least one grant (sorted). The
  /// anti-entropy audit cross-checks this against live sessions.
  std::vector<SessionId> granted_sessions() const;

  /// Aggregate of everything granted to one session.
  struct SessionGrantTotals {
    service::Resources peer_total;     ///< summed component demands
    double link_kbps_total = 0.0;      ///< Σ kbps · links over link grants
    std::size_t grant_count = 0;
  };
  SessionGrantTotals session_grant_totals(SessionId session) const;

  /// Soft-map entries whose hold record no longer exists. Always 0 now
  /// that purges are complete; kept as a cheap consistency probe for
  /// tests (a partial purge regression would make it positive).
  std::size_t dangling_soft_entries() const;

  /// Attaches a metrics registry (null detaches). Registers every "alloc.*"
  /// instrument up front: hold reserve/confirm/release/expire outcomes,
  /// lease and admission counters, the queue-wait histogram, and the
  /// outstanding-hold/grant, queue-depth and admission-mark gauges. Costs
  /// one null check per event when detached.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  struct PeerHold {
    service::Resources amount;
    sim::Time expire_at;
  };
  struct LinkHold {
    double kbps;
    sim::Time expire_at;
  };
  struct Hold {
    PeerId peer = overlay::kInvalidPeer;  // valid if peer hold
    service::Resources peer_amount;
    std::vector<overlay::OverlayLinkId> links;  // valid if path hold
    double kbps = 0.0;
    sim::Time expire_at = 0.0;
  };
  struct Grant {
    SessionId session;
    PeerId peer = overlay::kInvalidPeer;
    service::Resources peer_amount;
    std::vector<overlay::OverlayLinkId> links;
    double kbps = 0.0;
  };
  struct PeerState {
    service::Resources confirmed;  // sum of grants
    std::unordered_map<HoldId, PeerHold> soft;
  };
  struct LinkState {
    double confirmed_kbps = 0.0;
    std::unordered_map<HoldId, LinkHold> soft;
  };

  /// Purges every expired entry of `holds` (a peer's or a link's soft
  /// map, or the hold table itself), then refreshes the gauges once.
  template <class HoldMap>
  void purge_expired(const HoldMap& holds);
  /// Removes one hold from every structure it touches (its peer's soft
  /// map, every link's soft map, the hold table) and counts it in
  /// `outcome` (released or expired; null counts nothing). Returns the
  /// removed hold, or nullopt if it was already gone.
  std::optional<Hold> remove_hold(HoldId hold, obs::Counter* outcome);
  /// Records `grant` for its session and charges it to its peer or links.
  void add_grant(Grant grant);
  void update_outstanding_gauges();
  void stamp_lease(SessionId session);
  void count_lease_reclaim(const std::vector<Grant>& grants);

  Deployment* deployment_;
  sim::Simulator* sim_;
  std::vector<PeerState> peer_state_;
  std::vector<LinkState> link_state_;
  std::unordered_map<HoldId, Hold> holds_;
  std::unordered_map<SessionId, std::vector<Grant>> grants_;
  HoldId next_hold_id_ = 1;
  SessionId next_session_id_ = 1;

  // Admission control (inert while high_water_utilization < 0).
  struct AdmissionClassState {
    std::size_t depth = 0;      ///< entries currently queued
    std::uint64_t queued = 0;   ///< cumulative kQueue decisions
    std::uint64_t rejects = 0;  ///< cumulative kReject decisions
    std::uint64_t skips = 0;    ///< backlogged passes without credit
    double deficit = 0.0;       ///< DRR credit (requests; cost 1 each)
  };
  std::size_t class_queue_capacity(std::size_t cls) const {
    return admission_.classes.empty() ? admission_.queue_capacity
                                      : admission_.classes[cls].queue_capacity;
  }
  void refresh_capacity_snapshot();

  AdmissionConfig admission_;
  /// Running totals of everything granted / capacity of the live peers;
  /// the capacity side is recomputed by set_admission() and lazily
  /// whenever the deployment's liveness epoch moved (churn).
  service::Resources granted_total_;
  service::Resources capacity_total_;
  std::uint64_t capacity_epoch_ = std::uint64_t(-1);
  std::vector<AdmissionClassState> class_state_{AdmissionClassState{}};
  std::size_t drr_cursor_ = 0;
  double admission_mark_ = -1.0;
  std::size_t admission_queue_depth_ = 0;
  std::uint64_t admission_rejects_ = 0;
  std::uint64_t admission_queued_count_ = 0;
  double admission_queue_wait_ms_ = 0.0;
  // Adaptive-controller observation window (since the previous tick).
  std::uint64_t window_attempts_ = 0;
  std::uint64_t window_failures_ = 0;
  std::uint64_t window_setup_count_ = 0;
  double window_setup_sum_ms_ = 0.0;

  // Session leases (empty map while lease_ttl_ms_ == 0).
  double lease_ttl_ms_ = 0.0;
  std::unordered_map<SessionId, sim::Time> lease_renew_by_;
  std::uint64_t lease_renewals_ = 0;
  std::uint64_t lease_expirations_ = 0;
  double lease_reclaimed_kbps_ = 0.0;

  // Observability (all null when no registry is attached; every handle
  // is registered by set_metrics).
  obs::Counter* m_reserved_ = nullptr;
  obs::Counter* m_reserve_failures_ = nullptr;
  obs::Counter* m_confirmed_ = nullptr;
  obs::Counter* m_confirm_failures_ = nullptr;
  obs::Counter* m_released_ = nullptr;
  obs::Counter* m_expired_ = nullptr;
  obs::Counter* m_direct_grants_ = nullptr;
  obs::Counter* m_direct_grant_failures_ = nullptr;
  obs::Gauge* m_holds_outstanding_ = nullptr;
  obs::Gauge* m_grants_outstanding_ = nullptr;
  obs::Counter* m_lease_renewals_ = nullptr;
  obs::Counter* m_lease_expirations_ = nullptr;
  obs::Counter* m_lease_reclaimed_kbps_ = nullptr;
  obs::Counter* m_admission_rejects_ = nullptr;
  obs::Counter* m_admission_queued_ = nullptr;
  obs::Counter* m_admission_queue_wait_ms_ = nullptr;
  obs::Histogram* m_admission_queue_wait_hist_ = nullptr;
  obs::Gauge* m_admission_queue_depth_ = nullptr;
  obs::Gauge* m_admission_mark_ = nullptr;
};

}  // namespace spider::core
