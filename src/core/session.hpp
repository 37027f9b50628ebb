// Session management and proactive failure recovery (§5).
//
// After BCP succeeds, the source establishes a session: the best graph's
// soft holds are confirmed into grants, the backup count γ is computed per
// Eq. 2, and backups are selected from the qualified pool per §5.2's
// policy (avoid a target component, maximize overlap with the current
// graph, cover bottleneck components first, then pairs).
//
// At runtime the manager
//  * periodically probes backup graphs (low-rate liveness/QoS checks —
//    the maintenance overhead the paper measures),
//  * reacts to peer failures: a broken active graph is switched to the
//    first backup that is alive, QoS-qualified and admissible — the fast
//    path; if none survives, reactive recovery re-runs BCP (the slow
//    path); if that also fails the session is lost,
//  * prunes/replenishes backups that churn invalidates.
//
// Lifecycle robustness (soft-state story, completing §4.2/§5): every
// session moves through an explicit state machine (kEstablishing →
// kActive → kSwitching/kRecovering → kTornDown) whose control exchanges
// — the establish confirm leg, teardown, backup switch-activation — are
// real messages under the fault model: retried with exponential backoff,
// deduplicated by (session, epoch, seq) so duplicate deliveries are
// idempotent, and bounded so a lossy network degrades to abort-and-
// release instead of hanging. State the control plane fails to release
// (lost teardown, crashed source, confirm whose ack vanished) is
// reclaimed by session-grant leases (allocator) and the anti-entropy
// audit() pass. With no fault model and lease_ttl_ms = 0 all of this is
// inert and behaviour is bit-identical to the seed.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/allocator.hpp"
#include "core/bcp.hpp"
#include "core/deployment.hpp"
#include "core/evaluator.hpp"
#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace spider::fault {
class LinkFaultModel;
}  // namespace spider::fault

namespace spider::core {

/// How backups are chosen from the qualified pool (ablation A3 compares
/// the paper's policy against naive alternatives).
enum class BackupPolicy {
  kSpiderNet,    ///< §5.2: avoid target components, maximize overlap
  kRandom,       ///< uniform random qualified graphs
  kMostDisjoint  ///< minimize overlap with the current graph
};

/// Retransmissions per lifecycle control leg (confirm / teardown /
/// switch-activation) before the sender gives up — each leg gets
/// 1 + kCtrlRetryLimit attempts. Only consulted under an active fault
/// model.
inline constexpr int kCtrlRetryLimit = 4;
/// Base retransmission timeout for control legs; doubles per retry
/// (exponential backoff). Only affects latency accounting — lifecycle
/// exchanges are synchronous in the simulation.
inline constexpr double kCtrlMinRtoMs = 50.0;

struct RecoveryConfig {
  bool proactive = true;  ///< maintain backups (off = the Fig 9 baseline)
  /// U — upper bound on the number of backups per session (Eq. 2).
  int backup_upper_bound = 5;
  /// Scales Eq. 2's quality/failure margin term; 1.0 is the paper's form.
  double backup_aggressiveness = 1.0;
  /// Period of backup liveness probing, in virtual ms.
  double maintenance_period_ms = 1000.0;
  BackupPolicy backup_policy = BackupPolicy::kSpiderNet;
  /// Consecutive liveness-probe misses before a monitored peer is
  /// declared dead. 1 reacts to the first miss (the reliable-network
  /// behavior); under a lossy fault model raise it so a single lost
  /// probe round-trip does not trigger spurious recovery (the false-
  /// positive rate per monitor pass is ~loss^threshold).
  int liveness_miss_threshold = 1;
};

/// Lifecycle state of one session (see the file comment's diagram; the
/// transitional states are only observable *during* a manager call —
/// every public call returns with each live session back in kActive or
/// gone, so "stuck" transitional states indicate a bug).
enum class SessionState {
  kEstablishing,  ///< holds confirmed, confirm leg in flight
  kActive,        ///< steady state: grants held, backups maintained
  kSwitching,     ///< fast path: activating a backup graph
  kRecovering,    ///< slow path: reactive BCP re-composition
  kTornDown       ///< terminal; the session is erased on return
};

/// What happened when a peer failure hit a session's active graph.
enum class RecoveryOutcome {
  kNotAffected,        ///< active graph did not use the failed peer
  kSwitchedToBackup,   ///< fast path: proactive switch succeeded
  kReactiveRecovered,  ///< slow path: BCP re-composition succeeded
  kLost,               ///< no backup and reactive BCP failed
  /// The failure notification never reached the session source (fault
  /// model): the session stays broken until the periodic liveness
  /// monitor's timeout-driven detection catches it.
  kNotificationLost
};

struct SessionStats {
  std::uint64_t established = 0;         ///< sessions set up (both paths)
  std::uint64_t teardowns = 0;           ///< live sessions torn down
  std::uint64_t breaks = 0;              ///< active-graph failures observed
  std::uint64_t backup_switches = 0;     ///< fast recoveries
  std::uint64_t reactive_recoveries = 0; ///< slow recoveries
  std::uint64_t losses = 0;              ///< unrecovered failures
  std::uint64_t maintenance_messages = 0;
  /// Liveness probes that went unanswered (dead peer or lost message).
  std::uint64_t liveness_probe_misses = 0;
  /// Misses whose peer was actually alive (lost probe or lost ack).
  std::uint64_t false_suspicions = 0;
  /// Peer-failure notifications the fault model dropped; the affected
  /// session was left for the monitor's timeout-driven detection.
  std::uint64_t notifications_lost = 0;
  // --- lifecycle control plane (all zero without an active fault model) ---
  std::uint64_t ctrl_retransmits = 0;   ///< control-leg retry attempts
  std::uint64_t ctrl_duplicates = 0;    ///< deduped duplicate deliveries
  double ctrl_backoff_ms = 0.0;         ///< summed retransmission backoff
  /// Establishments aborted because the confirm leg's ack never arrived;
  /// already-applied grants strand until a lease or audit reclaims them.
  std::uint64_t confirms_lost = 0;
  /// Teardowns that never reached the session's peers: the source gave
  /// up and the grants stranded (lease / audit territory).
  std::uint64_t teardowns_lost = 0;
  /// Backup switch-activations abandoned mid-recovery (candidate skipped).
  std::uint64_t switch_activations_lost = 0;
  /// Sessions whose source peer crashed (no teardown possible).
  std::uint64_t source_crashes = 0;
  /// Orphaned grant sets reclaimed by the anti-entropy audit.
  std::uint64_t orphans_reclaimed = 0;
  /// Lease renewal beats piggybacked on maintenance passes.
  std::uint64_t lease_renew_messages = 0;
  double backup_count_sum = 0.0;  ///< for the avg-backups metric (≈2.74)
  std::uint64_t backup_count_samples = 0;
  /// Components replaced per fast switch — the disruption §5.2's overlap
  /// preference minimizes (each fresh component must be initialized).
  double switch_disruption_sum = 0.0;
  double avg_switch_disruption() const {
    return backup_switches == 0 ? 0.0
                                : switch_disruption_sum / double(backup_switches);
  }
  double avg_backups() const {
    return backup_count_samples == 0
               ? 0.0
               : backup_count_sum / double(backup_count_samples);
  }
};

/// Every SessionStats counter and the counter(s) it feeds. A field may
/// feed two names: liveness-probe misses also count as cross-layer
/// "probe.timeout" firings, shared with BCP's per-hop retransmit timers.
inline constexpr obs::CounterField<SessionStats> kSessionCounters[] = {
    {"session.established", &SessionStats::established},
    {"session.teardowns", &SessionStats::teardowns},
    {"session.breaks", &SessionStats::breaks},
    {"session.backup_switches", &SessionStats::backup_switches},
    {"session.reactive_recoveries", &SessionStats::reactive_recoveries},
    {"session.losses", &SessionStats::losses},
    {"session.maintenance_messages", &SessionStats::maintenance_messages},
    {"session.probe_misses", &SessionStats::liveness_probe_misses},
    {"probe.timeout", &SessionStats::liveness_probe_misses},
    {"session.false_suspicions", &SessionStats::false_suspicions},
    {"session.notifications_lost", &SessionStats::notifications_lost},
    {"session.ctrl_retransmits", &SessionStats::ctrl_retransmits},
    {"session.ctrl_duplicates", &SessionStats::ctrl_duplicates},
    {"session.confirm_lost", &SessionStats::confirms_lost},
    {"session.teardown_lost", &SessionStats::teardowns_lost},
    {"session.switch_activation_lost",
     &SessionStats::switch_activations_lost},
    {"session.source_crashes", &SessionStats::source_crashes},
    {"session.orphans_reclaimed", &SessionStats::orphans_reclaimed},
    {"session.lease_renewals_sent", &SessionStats::lease_renew_messages},
};

class SessionManager {
 public:
  SessionManager(Deployment& deployment, AllocationManager& alloc,
                 GraphEvaluator& evaluator, BcpEngine& bcp,
                 sim::Simulator& simulator, RecoveryConfig config = {})
      : deployment_(&deployment),
        alloc_(&alloc),
        evaluator_(&evaluator),
        bcp_(&bcp),
        sim_(&simulator),
        config_(config) {}

  /// Establishes a session from a successful compose: confirms the best
  /// graph's holds, sizes and selects backups. Returns kInvalidSession if
  /// a hold expired before confirmation (admission lost).
  SessionId establish(const service::CompositeRequest& request,
                      ComposeResult&& composed);

  /// Establishes a session by direct admission of an already-selected
  /// graph (no prior soft holds — the baselines' and the no-soft-
  /// allocation ablation's path): grants the graph's GraphDemand, then
  /// runs the same confirm leg and backup selection (from `backup_pool`)
  /// as establish(). Returns kInvalidSession if the graph no longer fits
  /// current availability or the confirm leg is lost.
  SessionId establish_direct(const service::CompositeRequest& request,
                             service::ServiceGraph graph,
                             std::vector<service::ServiceGraph> backup_pool = {});

  /// Graceful teardown (session completed). Under an active fault model
  /// the teardown message is retried with backoff; if it never gets
  /// through, the source still forgets the session but its grants strand
  /// in the allocator (counted in stats().teardowns_lost) until a lease
  /// expires or an audit reclaims them.
  void teardown(SessionId session);

  /// The source peer of one or more sessions crashed. The sessions die
  /// with it — no teardown exchange is possible — and their grants stay
  /// in the allocator until lease expiry or audit() reclaims them.
  /// Returns the number of sessions erased.
  std::size_t on_source_crashed(PeerId source);

  /// Peer-failure notification: updates every active session. Returns the
  /// per-session outcomes for failure accounting.
  std::vector<RecoveryOutcome> on_peer_failed(PeerId peer, Rng& rng);

  /// Failure detection (the paper omits its design; this implements the
  /// natural one): each source probes the peers of its active graph —
  /// one liveness message per service-link hop, like the backup probes —
  /// and triggers recovery for any session whose graph lost a peer. No
  /// oracle notification is needed; detection latency is the monitoring
  /// period times the miss threshold (under a lossy fault model a peer is
  /// only declared dead after `liveness_miss_threshold` consecutive
  /// unanswered round-trips). Returns the outcomes of every recovery it
  /// triggered.
  std::vector<RecoveryOutcome> monitor_active_sessions(Rng& rng);

  /// Periodic backup maintenance: probe each backup's liveness and QoS,
  /// prune invalid ones, replenish from the session's qualified pool.
  /// When the allocator leases grants (lease_ttl_ms > 0), each pass also
  /// piggybacks one lease-renewal beat per session, so any ttl larger
  /// than the maintenance period keeps live sessions granted forever.
  void run_maintenance();

  /// One anti-entropy pass reconciling allocator state with the live
  /// session set (the backstop for everything the control plane lost).
  struct AuditReport {
    std::size_t expired_holds = 0;     ///< stale soft holds swept
    std::size_t leases_reclaimed = 0;  ///< sessions whose lease lapsed
    std::size_t orphan_sessions = 0;   ///< granted but not live: reclaimed
    double orphan_kbps = 0.0;          ///< link bandwidth freed from orphans
    /// Conservation invariant: every live session's allocator totals
    /// match its active graph's demand (also SPIDER_DCHECKed).
    bool conserved = true;
  };
  AuditReport audit();

  /// Runs audit() every `period_ms` on the simulator, offset by
  /// `first_delay_ms` (defaults to half a period, interleaving with
  /// maintenance timers instead of colliding). Call again to re-arm with
  /// a new period; pass period_ms <= 0 to disable.
  void enable_periodic_audit(double period_ms, double first_delay_ms = -1.0);

  /// Number of backups Eq. 2 prescribes for the given graph vs request.
  int backup_count(const service::ServiceGraph& graph,
                   const service::CompositeRequest& request,
                   std::size_t qualified_total) const;

  /// Backup selection (exposed for tests and ablations). The default
  /// policy is §5.2's; `rng` is only consulted by BackupPolicy::kRandom.
  /// Selected graphs are moved out of `pool` (qualified graphs carry full
  /// per-hop route state — they are never deep-copied here, mirroring the
  /// shared-prefix probe representation they were flattened from); the
  /// graphs not selected are appended to `*leftover` in their original
  /// pool order when a leftover vector is supplied.
  static std::vector<service::ServiceGraph> select_backups(
      const service::ServiceGraph& current,
      std::vector<service::ServiceGraph> pool, std::size_t count,
      BackupPolicy policy = BackupPolicy::kSpiderNet, Rng* rng = nullptr,
      std::vector<service::ServiceGraph>* leftover = nullptr);

  std::size_t active_sessions() const { return sessions_.size(); }
  const SessionStats& stats() const { return stats_; }

  /// Attaches a metrics registry (null detaches). Registers every
  /// kSessionCounters row (establishments, breaks, recovery outcomes,
  /// maintenance and control-plane traffic) and an active-session gauge.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Attaches a fault model (null detaches). When active, session
  /// liveness probes are sampled as round-trip messages over the overlay
  /// route to the monitored peer, and peer-failure notifications can be
  /// lost; detection then falls back to the monitor's miss threshold.
  void set_fault_model(const fault::LinkFaultModel* model) { fault_ = model; }
  const fault::LinkFaultModel* fault_model() const { return fault_; }

  const service::ServiceGraph* active_graph(SessionId session) const;
  std::size_t backup_count_of(SessionId session) const;

  /// Lifecycle state of a live session, or kTornDown if it is gone (a
  /// torn-down session is erased, so "not found" IS the terminal state).
  SessionState session_state(SessionId session) const;

 private:
  struct Session {
    SessionId id = kInvalidSession;
    service::CompositeRequest request;
    service::ServiceGraph active;
    std::vector<service::ServiceGraph> backups;
    std::vector<service::ServiceGraph> pool;  ///< unused qualified graphs
    /// Consecutive liveness-probe misses per monitored peer; reset on a
    /// successful probe and after recovery replaces the active graph.
    std::unordered_map<PeerId, int> probe_misses;
    SessionState state = SessionState::kEstablishing;
    /// Bumped whenever the active graph changes; control messages from
    /// a stale epoch are recognizably stale (part of the dedup key).
    std::uint64_t epoch = 0;
    /// Per-session control-message sequence (next unused).
    std::uint64_t ctrl_seq = 0;
  };

  /// Dedup identity of one lifecycle control operation. A retransmitted
  /// request that already got through is recognized by this key and
  /// re-acked, not re-applied. Deliberately a struct (not a packed
  /// integer): XOR/shift packing of ids aliases, see util/hash.hpp.
  struct CtrlKey {
    SessionId session = kInvalidSession;
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    bool operator==(const CtrlKey&) const = default;
  };
  struct CtrlKeyHash {
    std::size_t operator()(const CtrlKey& k) const {
      return std::size_t(util::hash_values(k.session, k.epoch, k.seq));
    }
  };

  /// Outcome of one lifecycle control exchange (request + ack, retried).
  struct CtrlOutcome {
    bool acked = false;    ///< the sender saw an ack: definitely applied
    bool applied = false;  ///< some request leg arrived: receiver acted
    int attempts = 1;
  };
  /// Sends one control message over `links` with retries, backoff and
  /// duplicate dedup. Trivially succeeds (and counts nothing) without an
  /// active fault model. `tag` namespaces the message kind in the fault
  /// sampling key.
  CtrlOutcome send_control(Session& session, std::uint64_t tag,
                           const std::vector<overlay::OverlayLinkId>& links);
  /// Concatenated overlay links of every service hop of `graph` — the
  /// route a source-originated control message traverses.
  static std::vector<overlay::OverlayLinkId> graph_route(
      const service::ServiceGraph& graph);
  /// Erases a session and its control-dedup residue.
  void erase_session(SessionId id);
  /// The establish tail shared by both admission paths, run once `id`
  /// holds the grants for `graph`: the confirm leg (aborting and
  /// releasing on loss), Eq. 2's γ, backup selection from `backup_pool`,
  /// and registration. Returns `id`, or kInvalidSession on abort.
  SessionId activate(SessionId id, const service::CompositeRequest& request,
                     service::ServiceGraph graph,
                     std::vector<service::ServiceGraph> backup_pool);

  /// Grants a graph's demands directly (backup switch / reactive path).
  bool admit(Session& session, service::ServiceGraph graph);
  void refill_backups(Session& session);
  RecoveryOutcome recover(Session& session, Rng& rng);
  /// Adds `n` to one SessionStats counter and to every registry counter
  /// that mirrors it.
  void count(std::uint64_t SessionStats::*field, std::uint64_t n = 1);
  void update_active_gauge();

  /// True if a liveness probe round-trip from `source` reached `peer`
  /// and its ack came back. Dead peers never respond; a live peer's
  /// response can still be lost by the fault model.
  bool probe_responds(PeerId source, PeerId peer);

  Deployment* deployment_;
  AllocationManager* alloc_;
  GraphEvaluator* evaluator_;
  BcpEngine* bcp_;
  sim::Simulator* sim_;
  RecoveryConfig config_;
  const fault::LinkFaultModel* fault_ = nullptr;
  std::unordered_map<SessionId, Session> sessions_;
  /// Control operations the "receiver side" already applied (dedup set);
  /// entries die with their session.
  std::unordered_set<CtrlKey, CtrlKeyHash> ctrl_applied_;
  std::unique_ptr<sim::PeriodicTimer> audit_timer_;
  SessionStats stats_;
  Rng policy_rng_{0x5b5b};  ///< consulted only by BackupPolicy::kRandom
  /// Monotonic message keys for fault sampling of liveness probes and
  /// failure notifications. Deliberately not an Rng: consuming one would
  /// shift every downstream draw and break fault-free byte-identity.
  std::uint64_t probe_nonce_ = 0;
  std::uint64_t notify_nonce_ = 0;

  // Observability (all null when no registry is attached);
  // m_counters_[i] mirrors kSessionCounters[i].
  obs::MetricsRegistry* metrics_ = nullptr;
  std::array<obs::Counter*, std::size(kSessionCounters)> m_counters_{};
  obs::Gauge* m_active_sessions_ = nullptr;
};

}  // namespace spider::core
