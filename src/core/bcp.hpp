// Bounded Composition Probing (§4) — SpiderNet's setup-phase protocol.
//
// Given a composite request, the source:
//   1. enumerates composition patterns (commutation exchanges, §2.4) and
//      decomposes each into branch paths (§4.3);
//   2. spawns probes carrying a probing budget β, split across
//      pattern/branch seeds and then hop by hop per §4.2:
//      I_k = min(β_k, α_k) next-hop components are probed, each child
//      receiving ⌊β_k/Z_k⌋ (enough budget for all replicas) or ⌊β_k/I_k⌋;
//   3. per hop, the probed peer checks accumulated QoS against the user's
//      requirements (drop on violation), soft-allocates the component's
//      resources and the incoming path's bandwidth (step 2.1), discovers
//      next-hop replicas via the DHT registry (step 2.3's meta-data
//      retrieval), and scores candidates with a composite local metric
//      (network delay + component performance + failure probability);
//   4. the destination merges per-branch probes into complete service
//      graphs, keeps the QoS-qualified ones and ranks them by ψ_λ (§4.3);
//   5. the best graph's soft holds are kept for confirmation; all other
//      holds created by this request are released (the timeout path).
//
// Execution model (DESIGN.md §5b): probing runs synchronously with
// analytically accumulated virtual latency per probe, at the scale Fig 8
// requires. Decisions do not depend on the order probes are processed:
// metric noise and fault sampling are hashed from per-request keys, never
// drawn from a shared stream. Message and timing totals are reported in
// ComposeStats.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <vector>

#include "core/allocator.hpp"
#include "core/deployment.hpp"
#include "core/evaluator.hpp"
#include "core/probe_path.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace spider::obs {
class ProbeTrace;
}  // namespace spider::obs

namespace spider::fault {
class LinkFaultModel;
}  // namespace spider::fault

namespace spider::overlay {
class CommunityMap;
}  // namespace spider::overlay

namespace spider::discovery {
class CommunityIndex;
}  // namespace spider::discovery

namespace spider::core {

enum class QuotaPolicy {
  kUniform,             ///< α_k = quota_base for every function
  kReplicaProportional  ///< α_k grows with the function's replica count
};

/// What the destination minimizes among qualified graphs (§4.3 uses ψ_λ;
/// the Fig 11 prototype experiment asks for minimum end-to-end delay).
enum class SelectionObjective { kMinPsi, kMinDelay };

// Engine constants: probing settings no caller tunes. Each is named once
// here and read by the engine (and by the tests that bound its output).

/// Cap on commutation-derived composition patterns explored per request.
inline constexpr std::size_t kMaxPatterns = 8;
/// Per-hop probe processing cost added to the latency model.
inline constexpr double kPerHopProcessingMs = 2.0;
/// Cap on qualified graphs returned beyond the best (backup pool).
inline constexpr std::size_t kMaxBackupsReturned = 16;
/// Composite next-hop metric weights (step 2.3): lower score is better.
inline constexpr double kMetricWLinkDelay = 1.0;
inline constexpr double kMetricWPerfDelay = 1.0;
/// ms-equivalent per unit failure probability.
inline constexpr double kMetricWFailure = 2000.0;
/// Weight of the bandwidth-headroom term (ms-equivalent when the stream
/// would consume the path's entire remaining bandwidth). Candidates on
/// paths that cannot carry the stream sort last.
inline constexpr double kMetricWBandwidth = 100.0;
/// Uniform per-candidate jitter added to the selection metric. Without
/// it every request ranks replicas identically and herds onto the same
/// hosts, defeating load balancing; jitter decorrelates exploration
/// while keeping good candidates likely (deterministic per request via
/// the caller's Rng).
inline constexpr double kMetricJitterMs = 40.0;
/// Log-normal sigma of the peer's *estimate* of network delay to a
/// candidate. Peers do not have precise global state (the paper's core
/// premise, §1); their local delay estimates are off by a multiplicative
/// factor exp(N(0, σ)). Larger budgets compensate by probing more
/// candidates and letting the destination judge measured state.
inline constexpr double kMetricEstimateSigma = 0.5;

// ---- unreliable delivery (consulted only with a fault model attached,
// see set_fault_model; a clean/absent model never samples) --------------
/// Max retransmissions of one probe hop after the initial send. Each
/// retransmission is charged against the probe's budget (floor 1), so
/// β still bounds total probing overhead: a probe that burned budget
/// on retransmissions explores fewer replicas downstream, and total
/// transmissions stay <= (1 + kProbeRetxLimit) x the loss-free count.
inline constexpr int kProbeRetxLimit = 3;
/// Initial per-hop retransmission timeout is
/// max(kRetxMinRtoMs, kRetxRttFactor * path delay); each further attempt
/// multiplies it by kRetxBackoff. Waits add to the probe's arrival time
/// (setup latency) but not to its measured path QoS.
inline constexpr double kRetxMinRtoMs = 20.0;
inline constexpr double kRetxRttFactor = 2.0;
inline constexpr double kRetxBackoff = 2.0;

// ---- two-tier probing (consulted only with communities attached, see
// set_communities; flat BCP never reads these) ---------------------------
/// Share of β spent on the coarse inter-community tier: up to
/// ⌊β · share⌋ communities are probed for QoS summaries (1 budget unit
/// each, clamped to [1, β−1]) before the remaining budget seeds the
/// per-hop fine tier. Σ coarse + fine == β, so the budget invariants of
/// §4.2 hold across both tiers.
inline constexpr double kCoarseBudgetShare = 0.125;
/// Cap on candidate communities the fine tier probes into; the coarse
/// ranking greedily keeps the best-scoring communities that still add
/// coverage of a requested function, pruning the rest.
inline constexpr std::size_t kMaxCandidateCommunities = 4;

struct BcpConfig {
  /// β: total number of probes available to a request.
  int probing_budget = 64;
  QuotaPolicy quota_policy = QuotaPolicy::kReplicaProportional;
  /// Base quota. Uniform policy: α_k = quota_base for every function.
  /// Proportional policy: the per-replica fraction anchor — α_k =
  /// ⌈replicas · quota_base / 8⌉, i.e. quota_base/8 is the fraction of a
  /// function's replica pool probed (8 probes every replica; the default
  /// 4 probes half). Both are clamped to [1, max_quota].
  int quota_base = 4;
  /// Hard per-function cap on α_k.
  int max_quota = 16;
  /// Explore commutation-derived patterns (ablation A1 turns this off).
  bool use_commutation = true;
  /// Destination collection timeout; also the soft-hold lifetime.
  double probe_timeout_ms = 8000.0;
  /// Cap on merged candidate graphs evaluated at the destination.
  std::size_t max_candidates = 256;
  SelectionObjective objective = SelectionObjective::kMinPsi;
  /// Soft resource allocation during probing (step 2.1). Turning it off
  /// (ablation A4) keeps the availability *check* but makes no
  /// reservation, so concurrent requests can race to admission.
  bool soft_allocation = true;
  /// Optional trust hook (the §8 future-work extension, implemented in
  /// src/trust): returns a score in (0, 1] for a candidate's host peer.
  /// Low-trust candidates are penalized by metric_w_trust · (1 − trust)
  /// in the next-hop metric. Null disables trust awareness.
  std::function<double(overlay::PeerId)> trust_fn;
  double metric_w_trust = 400.0;  ///< ms-equivalent at zero trust

  /// Test-only: spawn children by deep-copying the parent's prefix chain
  /// instead of sharing its tail. Protocol decisions, results, stats and
  /// metrics are identical either way — the prefix-sharing equivalence
  /// suite runs both modes and diffs them; only memory behaviour (arena
  /// churn) differs.
  bool debug_clone_prefixes = false;
};

/// Cumulative PathArena accounting across every compose an engine ran.
/// `peak_live_segments` is the largest single-request high-water mark —
/// times sizeof(PathSegment) it is the engine's peak-RSS proxy for probe
/// state (the scaling benchmark's memory column).
struct ProbeArenaTotals {
  std::uint64_t segments_allocated = 0;
  std::uint64_t freelist_reused = 0;
  std::uint64_t peak_live_segments = 0;
};

struct ComposeStats {
  // Every spawned probe reaches exactly one terminal outcome:
  //   spawned == arrived + dropped_qos + dropped_resources
  //            + dropped_timeout + dropped_lost + forwarded
  // where "forwarded" means the probe continued as >= 1 child probes.
  std::uint64_t probes_spawned = 0;
  std::uint64_t probes_arrived = 0;
  std::uint64_t probes_forwarded = 0;   ///< continued as child probes
  std::uint64_t probes_dropped_qos = 0;
  std::uint64_t probes_dropped_resources = 0;
  std::uint64_t probes_dropped_timeout = 0;
  /// Final-leg message lost on every retransmission attempt (fault model).
  std::uint64_t probes_dropped_lost = 0;
  // Next-hop candidates rejected before a child probe existed (invalid
  // route, would-arrive-late, QoS violation, failed reservation, child
  // probe message lost despite retransmission). These were never probes,
  // so they are accounted separately from drops.
  std::uint64_t candidates_skipped_route = 0;
  std::uint64_t candidates_skipped_timeout = 0;
  std::uint64_t candidates_skipped_qos = 0;
  std::uint64_t candidates_skipped_resources = 0;
  std::uint64_t candidates_skipped_lost = 0;
  // Unreliable-delivery accounting (all zero without a fault model).
  std::uint64_t probe_retransmits = 0;     ///< extra sends that happened
  std::uint64_t probe_hop_timeouts = 0;    ///< per-hop retx timer firings
  std::uint64_t probe_messages_lost = 0;   ///< transmissions the net dropped
  /// Selected compositions abandoned because the step-4 setup ack never
  /// survived a hop despite retransmission (the request then fails).
  std::uint64_t setup_acks_lost = 0;
  // Soft-hold dedup effectiveness: fresh reservations vs sibling reuse.
  std::uint64_t holds_acquired = 0;
  std::uint64_t holds_reused = 0;
  // Probe-state copy accounting (the spawn hot path). `probe_bytes_copied`
  // is the volume of probe state physically copied when spawning probes;
  // `prefix_nodes_shared` counts prefix hops children inherited by
  // reference instead of copying. Both depend on spawn events only, so
  // they are identical with and without debug_clone_prefixes.
  std::uint64_t probe_bytes_copied = 0;
  std::uint64_t prefix_nodes_shared = 0;
  // Two-tier accounting (both zero in flat mode — see set_communities).
  std::uint64_t coarse_probes = 0;       ///< inter-community summary probes
  std::uint64_t communities_pruned = 0;  ///< probed but not selected
  std::uint64_t probe_messages = 0;      ///< probe + ack transmissions
  std::uint64_t discovery_messages = 0;  ///< DHT lookup hops
  double discovery_time_ms = 0.0;        ///< critical-path discovery share
  double probing_time_ms = 0.0;          ///< arrival of last useful probe
  double setup_time_ms = 0.0;            ///< probing + ack/confirm leg
  std::uint64_t candidates_merged = 0;
  std::uint64_t qualified_found = 0;

  std::uint64_t probes_dropped_total() const {
    return probes_dropped_qos + probes_dropped_resources +
           probes_dropped_timeout + probes_dropped_lost;
  }
  std::uint64_t candidates_skipped_total() const {
    return candidates_skipped_route + candidates_skipped_timeout +
           candidates_skipped_qos + candidates_skipped_resources +
           candidates_skipped_lost;
  }
  bool operator==(const ComposeStats&) const = default;
};

/// Every ComposeStats counter and the "bcp.*" (or cross-layer "probe.*")
/// counter it accumulates into, once per compose.
inline constexpr obs::CounterField<ComposeStats> kComposeCounters[] = {
    {"bcp.probes_spawned", &ComposeStats::probes_spawned},
    {"bcp.probes_arrived", &ComposeStats::probes_arrived},
    {"bcp.probes_forwarded", &ComposeStats::probes_forwarded},
    {"bcp.probes_dropped_qos", &ComposeStats::probes_dropped_qos},
    {"bcp.probes_dropped_resources", &ComposeStats::probes_dropped_resources},
    {"bcp.probes_dropped_timeout", &ComposeStats::probes_dropped_timeout},
    {"bcp.probes_dropped_lost", &ComposeStats::probes_dropped_lost},
    {"bcp.candidates_skipped_route", &ComposeStats::candidates_skipped_route},
    {"bcp.candidates_skipped_timeout",
     &ComposeStats::candidates_skipped_timeout},
    {"bcp.candidates_skipped_qos", &ComposeStats::candidates_skipped_qos},
    {"bcp.candidates_skipped_resources",
     &ComposeStats::candidates_skipped_resources},
    {"bcp.candidates_skipped_lost", &ComposeStats::candidates_skipped_lost},
    {"bcp.retransmit", &ComposeStats::probe_retransmits},
    {"probe.timeout", &ComposeStats::probe_hop_timeouts},
    {"bcp.probe_messages_lost", &ComposeStats::probe_messages_lost},
    {"bcp.setup_ack_lost", &ComposeStats::setup_acks_lost},
    {"bcp.holds_acquired", &ComposeStats::holds_acquired},
    {"bcp.holds_reused", &ComposeStats::holds_reused},
    {"bcp.probe_bytes_copied", &ComposeStats::probe_bytes_copied},
    {"bcp.prefix_nodes_shared", &ComposeStats::prefix_nodes_shared},
    {"bcp.coarse_probes", &ComposeStats::coarse_probes},
    {"bcp.communities_pruned", &ComposeStats::communities_pruned},
    {"bcp.probe_messages", &ComposeStats::probe_messages},
    {"bcp.discovery_messages", &ComposeStats::discovery_messages},
    {"bcp.candidates_merged", &ComposeStats::candidates_merged},
    {"bcp.qualified_graphs", &ComposeStats::qualified_found},
};

struct ComposeResult {
  bool success = false;
  service::ServiceGraph best;
  /// Other qualified graphs, ascending ψ — the backup pool for §5.
  std::vector<service::ServiceGraph> backups;
  /// Soft holds backing `best` (confirm with AllocationManager to admit).
  std::vector<HoldId> best_holds;
  ComposeStats stats;
};

class BcpEngine {
 public:
  BcpEngine(Deployment& deployment, AllocationManager& alloc,
            GraphEvaluator& evaluator, sim::Simulator& simulator,
            BcpConfig config = {})
      : deployment_(&deployment),
        alloc_(&alloc),
        evaluator_(&evaluator),
        sim_(&simulator),
        config_(config) {}

  /// Runs the full BCP flow for one request synchronously (probe latency
  /// is accumulated analytically; see DESIGN.md §5b). On success the best
  /// graph's holds are alive (expire at now + probe_timeout_ms unless
  /// confirmed); every other hold created here has been released.
  ComposeResult compose(const service::CompositeRequest& request, Rng& rng);

  const BcpConfig& config() const { return config_; }
  void set_config(const BcpConfig& config) { config_ = config; }

  /// α_k for a function with `replica_count` live replicas under the
  /// current quota policy (exposed for tests and capacity planning).
  int quota_for(std::size_t replica_count) const;

  /// Attaches observability sinks (either may be null; both default off).
  /// `metrics` receives cumulative "bcp.*" counters/histograms flushed
  /// once per compose (every kComposeCounters row, request outcomes and
  /// the setup/probing time histograms, all registered here); `trace`
  /// receives the per-request structured event log (seeds, hops, drops,
  /// holds, merge/selection). The engine never clears the trace — callers
  /// scope it per request or per campaign.
  void set_observability(obs::MetricsRegistry* metrics,
                         obs::ProbeTrace* trace);
  obs::MetricsRegistry* metrics() const { return metrics_; }
  obs::ProbeTrace* trace() const { return trace_; }

  /// Attaches a link fault model (null detaches — the default). With a
  /// model attached, every probe hop samples loss/jitter per overlay
  /// link; lost hops are retransmitted with exponential backoff up to
  /// kProbeRetxLimit times, charged against the probe's budget. A model
  /// whose probabilities are all zero is never sampled, so attaching one
  /// does not change fault-free results.
  void set_fault_model(const fault::LinkFaultModel* model) { fault_ = model; }
  const fault::LinkFaultModel* fault_model() const { return fault_; }

  /// Attaches a community partition + per-community discovery index,
  /// switching composes to two-tier probing: a coarse inter-community
  /// phase (summary probes to community heads, paid for out of β per
  /// kCoarseBudgetShare) selects candidate communities, then the fine
  /// per-hop tier discovers replicas inside those communities only.
  /// Either pointer null detaches (the default — flat BCP, bit-for-bit
  /// the pre-community behavior). A map with a single community also runs
  /// flat: one community is the whole overlay, so there is nothing to
  /// prune and the legacy path is byte-identical.
  void set_communities(const overlay::CommunityMap* map,
                       const discovery::CommunityIndex* index) {
    communities_ = map;
    community_index_ = index;
  }
  const overlay::CommunityMap* communities() const { return communities_; }

  /// Probe-path arena accounting accumulated over all composes (see
  /// ProbeArenaTotals). Peak probe-state bytes ≈ peak_live_segments ×
  /// sizeof(PathSegment).
  const ProbeArenaTotals& arena_totals() const { return arena_totals_; }

 private:
  struct Probe;
  struct DiscoveryEntry;
  struct ComposeState;
  struct HopDelivery;

  /// Validates the request and seeds the initial probes (returns false if
  /// composition is impossible before probing starts).
  bool init_state(ComposeState& state, const service::CompositeRequest& request,
                  Rng& rng);
  /// Coarse inter-community tier: probes community heads for summaries,
  /// greedily selects candidate communities and fills the state's allowed
  /// set. Returns the budget spent (== coarse probe count).
  int coarse_select(ComposeState& state, int budget_total);
  /// Executes one per-hop step (§4.2) for `probe`: either the final leg
  /// to the destination (probe lands in state.arrived) or next-hop
  /// selection + soft allocation, appending spawned children to
  /// `out_children` with their arrival times set.
  void process_probe(ComposeState& state, Probe probe,
                     std::vector<Probe>* out_children);
  /// Destination-side merge, qualification, ψ ranking, hold cleanup
  /// (§4.3 / step 4); fills state.result.
  void finalize(ComposeState& state);

  const DiscoveryEntry& discover(ComposeState& state, PeerId peer,
                                 service::FunctionId fn);
  /// Attempts delivery of one probe transmission (plus bounded
  /// retransmissions) over `path`, charging stats/budget as it goes.
  HopDelivery deliver_hop(ComposeState& state, const overlay::OverlayPath& path,
                          std::uint64_t hop_key, int* budget);
  /// Accumulates one request's ComposeStats into the metrics registry.
  void flush_metrics(const ComposeStats& stats, bool success);

  Deployment* deployment_;
  AllocationManager* alloc_;
  GraphEvaluator* evaluator_;
  sim::Simulator* sim_;
  BcpConfig config_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Handles resolved by set_observability (all null while detached);
  // m_counters_[i] mirrors kComposeCounters[i].
  std::array<obs::Counter*, std::size(kComposeCounters)> m_counters_{};
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_success_ = nullptr;
  obs::Counter* m_failure_ = nullptr;
  obs::Histogram* m_setup_time_ = nullptr;
  obs::Histogram* m_probing_time_ = nullptr;
  obs::ProbeTrace* trace_ = nullptr;
  const fault::LinkFaultModel* fault_ = nullptr;
  const overlay::CommunityMap* communities_ = nullptr;
  const discovery::CommunityIndex* community_index_ = nullptr;
  ProbeArenaTotals arena_totals_;
};

}  // namespace spider::core
