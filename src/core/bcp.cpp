#include "core/bcp.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "core/hold_keys.hpp"
#include "discovery/community_index.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "overlay/community.hpp"
#include "util/hash.hpp"
#include "util/keys.hpp"
#include "util/require.hpp"

namespace spider::core {

using service::ComponentMetadata;
using service::FnNode;
using service::Qos;
using service::ServiceGraph;
using service::ServiceLinkHop;

namespace {

/// splitmix64-based hash -> uniform double in [0, 1). The next-hop
/// metric's noise/jitter terms are derived from a per-request salt and
/// the (observer peer, candidate) pair, NOT from a shared RNG stream:
/// an estimate error is a property of who measures whom, and hashing
/// makes composition results independent of the order probes are
/// processed in.
double unit_hash(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return double(x >> 11) * 0x1.0p-53;
}

/// ψ ranking must not be distorted by a request's own soft holds (probes
/// of the same request would otherwise see each other's temporary
/// reservations as load). The engine tracks what it reserved and ranks
/// through this view, which adds it back — the availability a probe
/// carried in its states before its own allocation (step 2.4).
struct OwnHoldsView : public AvailabilityView {
  AllocationManager* base = nullptr;
  std::unordered_map<overlay::PeerId, service::Resources> peer_extra;
  std::unordered_map<overlay::OverlayLinkId, double> link_extra;

  service::Resources peer_available(overlay::PeerId peer) override {
    service::Resources avail = base->peer_available(peer);
    if (auto it = peer_extra.find(peer); it != peer_extra.end()) {
      avail += it->second;
    }
    return avail;
  }
  double link_available_kbps(overlay::OverlayLinkId link) override {
    double avail = base->link_available_kbps(link);
    if (auto it = link_extra.find(link); it != link_extra.end()) {
      avail += it->second;
    }
    return avail;
  }
};

}  // namespace

struct BcpEngine::Probe {
  std::size_t pattern_idx = 0;
  std::size_t branch_idx = 0;
  PeerId at = overlay::kInvalidPeer;
  double arrival = 0.0;   ///< ms since request start
  double disc_acc = 0.0;  ///< discovery share of `arrival`
  Qos qos_acc = Qos::delay_loss(0.0);
  std::uint32_t level = 0;  ///< quality level of the stream at this point
  int budget = 1;
  /// Deterministic delivery-sampling key. Derived from the request salt
  /// and the probe's (pattern, branch, chosen-component) path — NOT from
  /// processing order — so fault outcomes do not depend on the order
  /// probes are processed in.
  std::uint64_t fault_key = 0;
  /// Chosen prefix of the branch: the components live in immutable shared
  /// PathSegments (probe_path.hpp), so copying a Probe is O(1) regardless
  /// of depth. depth() == hops taken so far. The holds backing them live
  /// in the request's reservation tables, never in the probe.
  PathRef prefix;
};

struct BcpEngine::DiscoveryEntry {
  std::vector<ComponentMetadata> components;
  double time_ms = 0.0;
};

/// Everything one in-flight composition owns (on compose()'s stack).
/// Decisions read only this state and hashed per-request keys, never the
/// order probes are processed in.
struct BcpEngine::ComposeState {
  /// Backs every probe's prefix chain for this request. Declared first:
  /// members below (seeds, arrived) and compose()'s probe queue hold
  /// PathRefs into it and must be destroyed before it.
  PathArena arena;
  service::CompositeRequest request;
  std::uint64_t noise_salt = 0;  ///< seeds the hashed metric noise/jitter
  ComposeResult result;
  sim::Time hold_expiry = 0.0;
  std::vector<HoldId> all_holds;
  OwnHoldsView own_view;
  /// The request's reservation tables: each soft hold is recorded here
  /// once, by (node, component) or by (service link, peer pair). Sibling
  /// probes reuse the entries, and finalize() reads the winner's holds
  /// from them.
  std::unordered_map<SharedPeerKey, HoldId, SharedPeerKeyHash>
      shared_peer_holds;
  std::unordered_map<SharedPathKey, HoldId, SharedPathKeyHash>
      shared_path_holds;
  std::vector<service::FunctionGraph> patterns;
  std::vector<std::vector<std::vector<FnNode>>> branches;
  std::unordered_map<util::PairKey<PeerId, service::FunctionId>,
                     DiscoveryEntry, util::PairKeyHash>
      discovery_cache;
  std::vector<Probe> seeds;    ///< filled by init_state
  std::vector<Probe> arrived;  ///< probes that completed their final leg
  bool faults_active = false;  ///< fault model attached AND non-clean
  // Two-tier state (filled by coarse_select; untouched in flat mode).
  bool two_tier = false;
  double coarse_time_ms = 0.0;  ///< when the coarse tier's answers are in
  std::vector<overlay::CommunityId> allowed_communities;  ///< ascending
};

/// Outcome of delivering one probe hop under the fault model.
struct BcpEngine::HopDelivery {
  bool delivered = true;
  /// Retransmission waits + link jitter — added to the probe's arrival
  /// time (setup latency) but not to its measured path QoS.
  double added_latency_ms = 0.0;
};

const BcpEngine::DiscoveryEntry& BcpEngine::discover(ComposeState& state,
                                                     PeerId peer,
                                                     service::FunctionId fn) {
  auto& ov = deployment_->overlay();
  const util::PairKey<PeerId, service::FunctionId> key{peer, fn};
  auto it = state.discovery_cache.find(key);
  if (it != state.discovery_cache.end()) return it->second;
  if (state.two_tier) {
    // Fine tier: replicas come from the candidate communities' indices
    // (one request + reply per community head) instead of the global DHT
    // — the intra-community restriction that makes probing cost scale
    // with the communities selected, not the overlay.
    DiscoveryEntry entry;
    for (overlay::CommunityId c : state.allowed_communities) {
      const auto span = community_index_->replicas(c, fn);
      entry.components.insert(entry.components.end(), span.begin(),
                              span.end());
      entry.time_ms = std::max(
          entry.time_ms,
          2.0 * ov.estimated_delay_ms(peer, communities_->head(c)));
    }
    state.result.stats.discovery_messages +=
        2 * state.allowed_communities.size();
    return state.discovery_cache.emplace(key, std::move(entry))
        .first->second;
  }
  DiscoveryEntry entry;
  discovery::DiscoveryResult found = deployment_->registry().discover(peer, fn);
  state.result.stats.discovery_messages += found.hops() + 1;  // lookup + reply
  // Lookup latency: the DHT route's overlay transit plus the response
  // straight back to the requester.
  // Discovery timing is a latency *hint*, never a candidate-graph leg:
  // the estimator (when attached) answers these in O(k) without routing.
  for (std::size_t i = 0; i + 1 < found.path.size(); ++i) {
    entry.time_ms += ov.estimated_delay_ms(found.path[i], found.path[i + 1]);
  }
  if (!found.path.empty()) {
    entry.time_ms += ov.estimated_delay_ms(found.path.back(), peer);
  }
  if (found.found) entry.components = std::move(found.components);
  return state.discovery_cache.emplace(key, std::move(entry)).first->second;
}

BcpEngine::HopDelivery BcpEngine::deliver_hop(ComposeState& state,
                                              const overlay::OverlayPath& path,
                                              std::uint64_t hop_key,
                                              int* budget) {
  HopDelivery out;
  if (!state.faults_active) return out;  // reliable network: one send, on time
  ComposeStats& stats = state.result.stats;
  // Initial timeout tracks the path RTT; each retry backs off.
  double rto = std::max(kRetxMinRtoMs, kRetxRttFactor * path.delay_ms);
  double waited = 0.0;
  const int attempts = 1 + kProbeRetxLimit;
  for (int a = 0; a < attempts; ++a) {
    if (a > 0) {
      // A retransmission happened: the sender's timer fired and one more
      // transmission goes out, paid for from the probe's budget.
      ++stats.probe_messages;
      ++stats.probe_retransmits;
      if (budget != nullptr) *budget = std::max(1, *budget - 1);
    }
    const fault::DeliveryOutcome d = fault_->sample_path(
        path.links, util::hash_values(hop_key, std::uint64_t(a)));
    if (d.delivered) {
      out.added_latency_ms = waited + d.extra_delay_ms;
      return out;
    }
    ++stats.probe_messages_lost;
    ++stats.probe_hop_timeouts;  // the sender times out on this attempt
    waited += rto;
    rto *= kRetxBackoff;
  }
  out.delivered = false;
  out.added_latency_ms = waited;
  return out;
}

int BcpEngine::quota_for(std::size_t replica_count) const {
  switch (config_.quota_policy) {
    case QuotaPolicy::kUniform:
      return std::max(1, std::min(config_.quota_base, config_.max_quota));
    case QuotaPolicy::kReplicaProportional: {
      // α_k = ⌈replicas · quota_base / 8⌉: quota_base anchors the fraction
      // of the replica pool probed (8 = all of it; the default 4 = half,
      // matching the pre-anchor behavior ⌈replicas / 2⌉).
      const std::size_t base = std::size_t(std::max(config_.quota_base, 1));
      const std::size_t alpha = (replica_count * base + 7) / 8;
      return int(std::clamp<std::size_t>(alpha, 1,
                                         std::size_t(config_.max_quota)));
    }
  }
  return 1;
}

int BcpEngine::coarse_select(ComposeState& state, int budget_total) {
  auto& ov = deployment_->overlay();
  ComposeStats& stats = state.result.stats;
  const service::CompositeRequest& request = state.request;
  const overlay::CommunityMap& map = *communities_;
  const std::size_t community_count = map.community_count();

  // The functions this request needs (commutation permutes their order,
  // never their set, so one coarse pass covers every pattern).
  std::vector<service::FunctionId> fns;
  for (service::FnNode n = 0; n < request.graph.node_count(); ++n) {
    fns.push_back(request.graph.function(n));
  }
  std::sort(fns.begin(), fns.end());
  fns.erase(std::unique(fns.begin(), fns.end()), fns.end());

  // Rank communities by the source's delay hint to their heads, then
  // probe the nearest ⌊β · share⌋ of them: one summary request + reply
  // per head, one budget unit each.
  std::vector<std::pair<double, overlay::CommunityId>> by_prior;
  by_prior.reserve(community_count);
  for (std::size_t c = 0; c < community_count; ++c) {
    by_prior.emplace_back(
        ov.estimated_delay_ms(request.source, map.head(overlay::CommunityId(c))),
        overlay::CommunityId(c));
  }
  std::stable_sort(by_prior.begin(), by_prior.end());

  const int coarse_budget =
      std::clamp(int(double(budget_total) * kCoarseBudgetShare), 1,
                 budget_total - 1);
  const std::size_t probed =
      std::min<std::size_t>(std::size_t(coarse_budget), community_count);

  // Score each probed community on its summary answers: head proximity
  // plus the best advertised per-function QoS, with a large penalty per
  // requested function the community cannot serve at all.
  struct Scored {
    double score;
    overlay::CommunityId c;
    std::uint32_t covered_mask;  // bit i: hosts a replica of fns[i]
  };
  SPIDER_REQUIRE_MSG(fns.size() <= 32,
                     "coarse tier supports up to 32 distinct functions");
  std::vector<Scored> scored;
  scored.reserve(probed);
  for (std::size_t i = 0; i < probed; ++i) {
    const auto [prior, c] = by_prior[i];
    ++stats.coarse_probes;
    stats.probe_messages += 2;  // summary request + reply
    state.coarse_time_ms =
        std::max(state.coarse_time_ms,
                 2.0 * prior + kPerHopProcessingMs);
    Scored s{prior, c, 0};
    for (std::size_t f = 0; f < fns.size(); ++f) {
      const discovery::CommunitySummary* sum =
          community_index_->summary(c, fns[f]);
      if (sum == nullptr) {
        s.score += 1e9;  // missing function: near-useless on its own
      } else {
        s.score += kMetricWPerfDelay * sum->min_perf_delay_ms +
                   kMetricWFailure * sum->min_failure_prob;
        s.covered_mask |= 1u << f;
      }
    }
    scored.push_back(s);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     if (a.score != b.score) return a.score < b.score;
                     return a.c < b.c;
                   });

  // Greedy cover: keep a community only while it adds coverage of a
  // requested function (always keep the best-scoring one so the fine
  // tier has somewhere to go), capped at kMaxCandidateCommunities.
  const std::uint32_t full_mask =
      fns.size() >= 32 ? ~0u : (1u << fns.size()) - 1u;
  std::uint32_t covered = 0;
  for (const Scored& s : scored) {
    if (!state.allowed_communities.empty() &&
        (state.allowed_communities.size() >= kMaxCandidateCommunities ||
         covered == full_mask || (s.covered_mask & ~covered) == 0)) {
      continue;
    }
    state.allowed_communities.push_back(s.c);
    covered |= s.covered_mask;
  }
  std::sort(state.allowed_communities.begin(),
            state.allowed_communities.end());
  stats.communities_pruned += probed - state.allowed_communities.size();
  state.two_tier = true;
  return int(probed);
}

bool BcpEngine::init_state(ComposeState& state,
                           const service::CompositeRequest& request,
                           Rng& rng) {
  auto& ov = deployment_->overlay();
  SPIDER_REQUIRE(request.graph.node_count() > 0);
  SPIDER_REQUIRE(request.graph.is_dag());
  if (!ov.alive(request.source) || !ov.alive(request.dest)) return false;

  state.request = request;
  state.noise_salt = rng();  // one draw per request; see unit_hash
  state.hold_expiry = sim_->now() + config_.probe_timeout_ms;
  state.own_view.base = alloc_;
  state.faults_active = fault_ != nullptr && fault_->active();

  // ---- Step 1: patterns, branches, seed probes ------------------------
  state.patterns =
      config_.use_commutation
          ? request.graph.patterns(kMaxPatterns)
          : std::vector<service::FunctionGraph>{request.graph};
  state.branches.resize(state.patterns.size());
  std::size_t total_seeds = 0;
  for (std::size_t pi = 0; pi < state.patterns.size(); ++pi) {
    state.branches[pi] = state.patterns[pi].branches();
    total_seeds += state.branches[pi].size();
  }
  SPIDER_REQUIRE(total_seeds > 0);
  // β is split exactly across the pattern/branch seeds: every seed gets
  // ⌊β/S⌋ and the first β mod S seeds one more, so Σ seed budgets == β.
  // When β < S only the first β seeds spawn at all — the budget is a hard
  // ceiling on probes in flight, never rounded up per seed.
  const int budget_total = std::max(config_.probing_budget, 0);
  // Coarse inter-community tier first (two-tier mode only): it spends
  // part of β on summary probes and restricts discovery to the selected
  // communities; the remainder seeds the fine tier below, so coarse +
  // fine == β exactly. Tiny budgets (< 4) and single-community maps run
  // flat — there is nothing worth pruning.
  int fine_budget = budget_total;
  if (communities_ != nullptr && community_index_ != nullptr &&
      communities_->community_count() > 1 && budget_total >= 4) {
    fine_budget -= coarse_select(state, budget_total);
  }
  const int seed_base = fine_budget / int(total_seeds);
  const int seed_extra = fine_budget % int(total_seeds);

  int granted = 0;
  std::size_t seed_idx = 0;
  for (std::size_t pi = 0; pi < state.patterns.size(); ++pi) {
    for (std::size_t bi = 0; bi < state.branches[pi].size(); ++bi) {
      const int seed_budget =
          seed_base + (seed_idx < std::size_t(seed_extra) ? 1 : 0);
      ++seed_idx;
      if (seed_budget < 1) continue;  // β exhausted: seed never spawns
      granted += seed_budget;
      Probe seed;
      seed.pattern_idx = pi;
      seed.branch_idx = bi;
      seed.at = request.source;
      seed.arrival = state.coarse_time_ms;  // 0 in flat mode
      seed.budget = seed_budget;
      seed.qos_acc = Qos(request.qos_req.size());
      seed.level = request.source_level;
      seed.fault_key = util::hash_values(state.noise_salt, pi, bi);
      state.seeds.push_back(std::move(seed));
      ++state.result.stats.probes_spawned;
      if (trace_ != nullptr) {
        obs::TraceRecord rec;
        rec.event = obs::TraceEvent::kSeedSpawned;
        rec.pattern = std::int64_t(pi);
        rec.branch = std::int64_t(bi);
        rec.peer = std::int64_t(request.source);
        rec.value = double(seed_budget);
        trace_->record(std::move(rec));
      }
    }
  }
  SPIDER_DCHECK(granted <= fine_budget);
  (void)granted;
  return !state.seeds.empty();
}

void BcpEngine::process_probe(ComposeState& state, Probe probe,
                              std::vector<Probe>* out_children) {
  auto& ov = deployment_->overlay();
  ComposeStats& stats = state.result.stats;
  const service::CompositeRequest& request = state.request;
  const auto& branch = state.branches[probe.pattern_idx][probe.branch_idx];
  const auto& pattern = state.patterns[probe.pattern_idx];

  // Trace emitters (no-ops without an attached trace).
  auto trace_drop = [&](const Probe& p, const char* reason) {
    if (trace_ == nullptr) return;
    obs::TraceRecord rec;
    rec.event = obs::TraceEvent::kProbeDropped;
    rec.time_ms = p.arrival;
    rec.pattern = std::int64_t(p.pattern_idx);
    rec.branch = std::int64_t(p.branch_idx);
    rec.peer = std::int64_t(p.at);
    rec.note = reason;
    trace_->record(std::move(rec));
  };
  auto trace_skip = [&](FnNode node, PeerId host, const char* reason) {
    if (trace_ == nullptr) return;
    obs::TraceRecord rec;
    rec.event = obs::TraceEvent::kCandidateSkipped;
    rec.time_ms = probe.arrival;
    rec.pattern = std::int64_t(probe.pattern_idx);
    rec.branch = std::int64_t(probe.branch_idx);
    rec.node = std::int64_t(node);
    rec.peer = std::int64_t(host);
    rec.note = reason;
    trace_->record(std::move(rec));
  };
  auto trace_hold = [&](obs::TraceEvent event, double t, FnNode node,
                        HoldId hold) {
    if (trace_ == nullptr) return;
    obs::TraceRecord rec;
    rec.event = event;
    rec.time_ms = t;
    rec.node = std::int64_t(node);
    rec.value = double(hold);
    trace_->record(std::move(rec));
  };
  // Step 2.1's bandwidth hold on one service link, for every leg: reuse
  // the request's table entry, or reserve `path` and record the new hold
  // in the table; check-only mode (ablation A4) only checks availability,
  // so concurrent requests may later race to admission. False when the
  // path cannot carry the stream. A new hold is left in `*fresh` for the
  // caller to keep (keep_link_hold) once the leg's own checks pass.
  auto take_link_hold = [&](const SharedPathKey& key,
                            const overlay::OverlayPath& path, double t,
                            FnNode node, HoldId* fresh) {
    if (request.bandwidth_kbps <= 0.0 || path.links.empty()) return true;
    if (!config_.soft_allocation) {
      return alloc_->path_available_kbps(path) >= request.bandwidth_kbps;
    }
    if (auto it = state.shared_path_holds.find(key);
        it != state.shared_path_holds.end()) {
      ++stats.holds_reused;
      trace_hold(obs::TraceEvent::kHoldReused, t, node, it->second);
      return true;
    }
    const std::optional<HoldId> hold = alloc_->soft_reserve_path(
        path, request.bandwidth_kbps, state.hold_expiry);
    if (!hold.has_value()) return false;
    ++stats.holds_acquired;
    trace_hold(obs::TraceEvent::kHoldAcquired, t, node, *hold);
    state.shared_path_holds.emplace(key, *hold);
    *fresh = *hold;
    return true;
  };
  auto keep_link_hold = [&](HoldId hold, const overlay::OverlayPath& path) {
    state.all_holds.push_back(hold);
    for (auto link : path.links) {
      state.own_view.link_extra[link] += request.bandwidth_kbps;
    }
  };

  if (probe.prefix.depth() == branch.size()) {
    // Final leg: stream exits the last component toward the destination.
    ++stats.probe_messages;
    const FnNode last = branch.back();
    double leg_delay = 0.0;
    double leg_extra = 0.0;  ///< retransmission waits + jitter
    if (probe.at != request.dest) {
      const overlay::OverlayPathRef path = ov.route(probe.at, request.dest);
      if (!path->valid) {
        ++stats.probes_dropped_resources;
        trace_drop(probe, "no_route_to_dest");
        return;
      }
      leg_delay = path->delay_ms;
      HoldId fresh = kInvalidHold;
      if (!take_link_hold(SharedPathKey{last, ServiceLinkHop::kEndpoint,
                                        probe.at, request.dest},
                          *path, probe.arrival, last, &fresh)) {
        ++stats.probes_dropped_resources;
        trace_drop(probe, "dest_leg_bandwidth");
        return;
      }
      if (fresh != kInvalidHold) keep_link_hold(fresh, *path);
      // The probe message itself must survive the trip (holds a lost
      // probe left behind are reclaimed by finalize's cleanup, exactly
      // like the paper's timeout-based cancellation).
      const HopDelivery hd = deliver_hop(
          state, *path, util::hash_values(probe.fault_key, 0x0fu),
          &probe.budget);
      if (!hd.delivered) {
        ++stats.probes_dropped_lost;
        trace_drop(probe, "msg_lost");
        return;
      }
      leg_extra = hd.added_latency_ms;
    }
    probe.arrival += kPerHopProcessingMs + leg_delay + leg_extra;
    probe.qos_acc[Qos::kDelay] += leg_delay;
    if (probe.arrival > config_.probe_timeout_ms) {
      ++stats.probes_dropped_timeout;
      trace_drop(probe, "timeout");
      return;
    }
    if (!probe.qos_acc.within(request.qos_req) ||
        probe.level < request.min_dest_level) {
      ++stats.probes_dropped_qos;
      trace_drop(probe, "qos_violation");
      return;
    }
    ++stats.probes_arrived;
    if (trace_ != nullptr) {
      obs::TraceRecord rec;
      rec.event = obs::TraceEvent::kHopTaken;
      rec.time_ms = probe.arrival;
      rec.pattern = std::int64_t(probe.pattern_idx);
      rec.branch = std::int64_t(probe.branch_idx);
      rec.peer = std::int64_t(request.dest);
      rec.note = "arrived";
      trace_->record(std::move(rec));
    }
    state.arrived.push_back(std::move(probe));
    return;
  }

  // Step 2.2/2.3: next-hop function & replica selection.
  const FnNode next_node = branch[probe.prefix.depth()];
  const service::FunctionId fn = pattern.function(next_node);
  const DiscoveryEntry& disc = discover(state, probe.at, fn);

  std::vector<const ComponentMetadata*> candidates;
  for (const ComponentMetadata& meta : disc.components) {
    // Liveness + Q_in compatibility (§2.2): the candidate must accept the
    // stream at its current quality level.
    if (ov.alive(meta.host) && meta.input_level <= probe.level) {
      candidates.push_back(&meta);
    }
  }
  if (candidates.empty() || probe.budget < 1) {
    ++stats.probes_dropped_resources;
    trace_drop(probe, candidates.empty() ? "no_candidates" : "no_budget");
    return;
  }

  // Composite local selection metric (step 2.3): proximity + component
  // performance + failure risk + trust; lower is better. Local knowledge
  // only: the peer knows the measured delay of its own overlay links; for
  // non-neighbor candidates it falls back to a coarse estimate (2x its
  // mean neighbor delay) blurred by log-normal noise — the states-
  // imprecision the paper's decentralization argument rests on. The
  // *destination* later judges candidates on the states the probes
  // actually measured en route.
  const double far_guess = 2.0 * ov.mean_neighbor_delay(probe.at);
  auto score = [&](const ComponentMetadata& meta) {
    // Deterministic per-(observer, candidate) noise draws.
    const std::uint64_t noise_key = state.noise_salt ^
                                    (std::uint64_t(probe.at) << 40) ^
                                    meta.id * 0x9e3779b97f4a7c15ULL;
    double link = 0.0;
    if (probe.at != meta.host &&
        !ov.are_neighbors(probe.at, meta.host, &link)) {
      // Log-normal multiplier via Box–Muller over two hashed uniforms.
      double u1 = unit_hash(noise_key);
      if (u1 <= 0.0) u1 = 0.5;
      const double u2 = unit_hash(noise_key + 1);
      const double normal =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
      link = far_guess * std::exp(kMetricEstimateSigma * normal);
    }
    double bw_term = 0.0;
    if (request.bandwidth_kbps > 0.0 && probe.at != meta.host) {
      const overlay::OverlayPathRef path = ov.route(probe.at, meta.host);
      const double avail =
          path->valid ? state.own_view.path_available_kbps(*path) : 0.0;
      bw_term = avail >= request.bandwidth_kbps
                    ? kMetricWBandwidth * (request.bandwidth_kbps / avail)
                    : 1e6;  // cannot carry the stream
    }
    const double jitter = kMetricJitterMs * unit_hash(noise_key + 2);
    double trust_term = 0.0;
    if (config_.trust_fn) {
      trust_term =
          config_.metric_w_trust * (1.0 - config_.trust_fn(meta.host));
    }
    return kMetricWLinkDelay * link +
           kMetricWPerfDelay * meta.perf.delay_ms() +
           kMetricWFailure * meta.failure_prob + bw_term + jitter + trust_term;
  };
  // Score once per candidate (the jitter draw must be stable for the sort
  // comparator).
  std::vector<std::pair<double, const ComponentMetadata*>> scored;
  scored.reserve(candidates.size());
  for (const ComponentMetadata* meta : candidates) {
    scored.emplace_back(score(*meta), meta);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first < b.first;
                     return a.second->id < b.second->id;
                   });
  candidates.clear();
  for (const auto& [sc, meta] : scored) candidates.push_back(meta);

  // §4.2: fan out to I_k = min(β_k, α_k) replicas (never more than Z_k),
  // splitting the parent's remaining budget exactly: every child gets
  // ⌊β_k/I_k⌋ and the first β_k mod I_k children one more. Σ child
  // budgets == β_k — the parent's grant is conserved: never minted (a
  // budget-exhausted probe was already dropped above) and never
  // truncated away by the integer division.
  const std::size_t z = candidates.size();
  const int alpha = quota_for(z);
  const std::size_t fanout =
      std::min<std::size_t>(std::size_t(std::min(probe.budget, alpha)), z);
  const int child_base = probe.budget / int(fanout);
  const int child_extra = probe.budget % int(fanout);

  int granted = 0;
  const std::size_t children_before = out_children->size();
  for (std::size_t ci = 0; ci < fanout; ++ci) {
    const ComponentMetadata& cand = *candidates[ci];
    // O(1) spawn: the child copies the probe's scalars and takes a shared
    // reference on the prefix chain; the hops walked so far are inherited
    // by reference, never copied (debug_clone_prefixes deep-copies them
    // below as the equivalence-test oracle, with identical accounting so
    // both modes report the same stats).
    Probe child = probe;
    stats.probe_bytes_copied += sizeof(Probe);
    stats.prefix_nodes_shared += probe.prefix.depth();
    child.budget = child_base + (int(ci) < child_extra ? 1 : 0);
    SPIDER_DCHECK(child.budget >= 1 && child.budget <= probe.budget);
    granted += child.budget;  // before retransmissions charge it below
    ++stats.probe_messages;

    double leg_delay = 0.0;
    double leg_extra = 0.0;  ///< retransmission waits + jitter
    overlay::OverlayPathRef leg_path;  // pinned for this iteration only
    // Sibling probes are distinguished by the component they extend the
    // branch with, so the child key stays processing-order independent.
    child.fault_key =
        util::hash_values(probe.fault_key, std::uint64_t(cand.id));
    if (probe.at != cand.host) {
      leg_path = ov.route(probe.at, cand.host);
      if (!leg_path->valid) {
        ++stats.candidates_skipped_route;
        trace_skip(next_node, cand.host, "no_route");
        continue;
      }
      leg_delay = leg_path->delay_ms;
      const HopDelivery hd =
          deliver_hop(state, *leg_path, child.fault_key, &child.budget);
      if (!hd.delivered) {
        ++stats.candidates_skipped_lost;
        trace_skip(next_node, cand.host, "msg_lost");
        continue;
      }
      leg_extra = hd.added_latency_ms;
    }
    child.arrival +=
        disc.time_ms + kPerHopProcessingMs + leg_delay + leg_extra;
    child.disc_acc += disc.time_ms;
    if (child.arrival > config_.probe_timeout_ms) {
      ++stats.candidates_skipped_timeout;
      trace_skip(next_node, cand.host, "would_arrive_late");
      continue;
    }

    // Step 2.4 then 2.1 at the receiving peer: accumulate QoS states, drop
    // on violation, then soft-allocate.
    child.qos_acc[Qos::kDelay] += leg_delay;
    child.qos_acc += cand.perf.resized(request.qos_req.size());
    if (!child.qos_acc.within(request.qos_req)) {
      ++stats.candidates_skipped_qos;
      trace_skip(next_node, cand.host, "qos_violation");
      continue;
    }

    const FnNode prev_node = child.prefix.depth() == 0
                                 ? ServiceLinkHop::kEndpoint
                                 : branch[child.prefix.depth() - 1];
    // Bandwidth on the incoming service link, then the component's
    // resources on the candidate host (both shared per request).
    HoldId fresh_bw = kInvalidHold;
    if (leg_path.has_value() &&
        !take_link_hold(
            SharedPathKey{prev_node, next_node, probe.at, cand.host},
            *leg_path, child.arrival, next_node, &fresh_bw)) {
      ++stats.candidates_skipped_resources;
      trace_skip(next_node, cand.host, "link_bandwidth");
      continue;
    }
    if (!config_.soft_allocation) {
      // Check-only mode (ablation A4): verify the host, reserve nothing.
      if (!cand.required.fits_within(alloc_->peer_available(cand.host))) {
        ++stats.candidates_skipped_resources;
        trace_skip(next_node, cand.host, "peer_resources");
        continue;
      }
    } else {
      const SharedPeerKey pkey{next_node, cand.id};
      if (auto it = state.shared_peer_holds.find(pkey);
          it != state.shared_peer_holds.end()) {
        ++stats.holds_reused;
        trace_hold(obs::TraceEvent::kHoldReused, child.arrival, next_node,
                   it->second);
      } else {
        const std::optional<HoldId> res_hold = alloc_->soft_reserve_peer(
            cand.host, cand.required, state.hold_expiry);
        if (!res_hold.has_value()) {
          // Nothing carries a fresh link hold yet: undo it outright.
          if (fresh_bw != kInvalidHold) {
            alloc_->release_hold(fresh_bw);
            state.shared_path_holds.erase(
                SharedPathKey{prev_node, next_node, probe.at, cand.host});
          }
          ++stats.candidates_skipped_resources;
          trace_skip(next_node, cand.host, "peer_resources");
          continue;
        }
        ++stats.holds_acquired;
        trace_hold(obs::TraceEvent::kHoldAcquired, child.arrival, next_node,
                   *res_hold);
        state.shared_peer_holds.emplace(pkey, *res_hold);
        state.all_holds.push_back(*res_hold);
        state.own_view.peer_extra[cand.host] += cand.required;
      }
      if (fresh_bw != kInvalidHold) keep_link_hold(fresh_bw, *leg_path);
    }

    // Every skip is behind us: extend the prefix by one segment. The
    // segment is written before the child is handed to the queue; from
    // then on it is immutable and shared.
    child.prefix = config_.debug_clone_prefixes
                       ? state.arena.clone_append(probe.prefix.get(), cand)
                       : state.arena.append(probe.prefix.get(), cand);
    child.at = cand.host;
    child.level = cand.output_level;
    ++stats.probes_spawned;
    if (trace_ != nullptr) {
      obs::TraceRecord rec;
      rec.event = obs::TraceEvent::kHopTaken;
      rec.time_ms = child.arrival;
      rec.pattern = std::int64_t(child.pattern_idx);
      rec.branch = std::int64_t(child.branch_idx);
      rec.node = std::int64_t(next_node);
      rec.peer = std::int64_t(cand.host);
      trace_->record(std::move(rec));
    }
    out_children->push_back(std::move(child));
  }

  SPIDER_DCHECK(granted <= probe.budget);
  (void)granted;

  // Terminal accounting for the parent: it either forwarded into >= 1
  // children or died here because every candidate was skipped.
  if (out_children->size() > children_before) {
    ++stats.probes_forwarded;
  } else {
    ++stats.probes_dropped_resources;
    trace_drop(probe, "all_candidates_skipped");
  }
}

void BcpEngine::finalize(ComposeState& state) {
  ComposeStats& stats = state.result.stats;
  ComposeResult& result = state.result;
  const service::CompositeRequest& request = state.request;

  // ---- Step 3: destination merge + optimal composition selection ------
  // Group arrived probes by (pattern, branch). This is the one place
  // shared prefixes are flattened: the merge below reads each probe's
  // chain through a positional root-first view, so it observes exactly
  // the per-probe component vectors the deep-copy implementation carried.
  std::unordered_map<util::PairKey<std::size_t, std::size_t>,
                     std::vector<const Probe*>, util::PairKeyHash>
      by_pb;
  std::unordered_map<const Probe*, FlatPrefix> flat;
  flat.reserve(state.arrived.size());
  double last_arrival = 0.0;
  double critical_disc = 0.0;
  for (const Probe& probe : state.arrived) {
    by_pb[util::PairKey<std::size_t, std::size_t>{probe.pattern_idx,
                                                  probe.branch_idx}]
        .push_back(&probe);
    flat.emplace(&probe, FlatPrefix(probe.prefix.get()));
    if (probe.arrival > last_arrival) {
      last_arrival = probe.arrival;
      critical_disc = probe.disc_acc;
    }
  }

  struct Candidate {
    std::size_t pattern_idx;
    std::vector<ComponentMetadata> mapping;  // per pattern node
  };
  std::vector<Candidate> candidates;
  std::unordered_set<std::string> candidate_sigs;

  for (std::size_t pi = 0; pi < state.patterns.size(); ++pi) {
    const auto& pattern_branches = state.branches[pi];
    // All branches must have at least one arrived probe.
    std::vector<const std::vector<const Probe*>*> lists;
    bool complete = true;
    for (std::size_t bi = 0; bi < pattern_branches.size(); ++bi) {
      auto it = by_pb.find(util::PairKey<std::size_t, std::size_t>{pi, bi});
      if (it == by_pb.end()) {
        complete = false;
        break;
      }
      lists.push_back(&it->second);
    }
    if (!complete) continue;

    // Depth-first join across branches, requiring agreement on shared
    // function nodes.
    const std::size_t node_count = state.patterns[pi].node_count();
    std::vector<ComponentMetadata> mapping(node_count);
    std::vector<bool> bound(node_count, false);

    std::function<void(std::size_t)> join = [&](std::size_t bi) {
      if (candidates.size() >= config_.max_candidates) return;
      if (bi == lists.size()) {
        Candidate c;
        c.pattern_idx = pi;
        c.mapping = mapping;
        // Dedupe identical (pattern, mapping) combinations.
        std::string sig = std::to_string(pi) + ":";
        for (const auto& m : c.mapping) sig += std::to_string(m.id) + ",";
        if (candidate_sigs.insert(sig).second) {
          candidates.push_back(std::move(c));
        }
        return;
      }
      const auto& branch = pattern_branches[bi];
      for (const Probe* probe : *lists[bi]) {
        const FlatPrefix& chosen = flat.at(probe);
        bool compatible = true;
        for (std::size_t k = 0; k < branch.size(); ++k) {
          if (bound[branch[k]] &&
              mapping[branch[k]].id != chosen.component(k).id) {
            compatible = false;
            break;
          }
        }
        if (!compatible) continue;
        std::vector<FnNode> newly_bound;
        for (std::size_t k = 0; k < branch.size(); ++k) {
          if (!bound[branch[k]]) {
            bound[branch[k]] = true;
            mapping[branch[k]] = chosen.component(k);
            newly_bound.push_back(branch[k]);
          }
        }
        join(bi + 1);
        for (FnNode n : newly_bound) bound[n] = false;
      }
    };
    join(0);
  }
  stats.candidates_merged = candidates.size();
  if (trace_ != nullptr) {
    for (const Candidate& cand : candidates) {
      obs::TraceRecord rec;
      rec.event = obs::TraceEvent::kCandidateMerged;
      rec.time_ms = last_arrival;
      rec.pattern = std::int64_t(cand.pattern_idx);
      rec.value = double(state.branches[cand.pattern_idx].size());
      trace_->record(std::move(rec));
    }
  }

  // Evaluate, filter by QoS, rank by the selection objective.
  std::vector<ServiceGraph> qualified;
  for (Candidate& cand : candidates) {
    ServiceGraph graph;
    graph.pattern = state.patterns[cand.pattern_idx];
    graph.mapping = std::move(cand.mapping);
    graph.source = request.source;
    graph.dest = request.dest;
    if (!evaluator_->levels_compatible(graph, request)) continue;
    if (!evaluator_->resolve(graph)) continue;
    evaluator_->evaluate(graph, request, &state.own_view);
    if (!evaluator_->qos_qualified(graph, request)) continue;
    if (trace_ != nullptr) {
      obs::TraceRecord rec;
      rec.event = obs::TraceEvent::kGraphQualified;
      rec.time_ms = last_arrival;
      rec.value = graph.psi_cost;
      trace_->record(std::move(rec));
    }
    qualified.push_back(std::move(graph));
  }
  stats.qualified_found = qualified.size();

  const auto selection_key = [this](const service::ServiceGraph& g) {
    return config_.objective == SelectionObjective::kMinPsi ? g.psi_cost
                                                            : g.qos.delay_ms();
  };
  std::stable_sort(qualified.begin(), qualified.end(),
                   [&](const ServiceGraph& a, const ServiceGraph& b) {
                     return selection_key(a) < selection_key(b);
                   });

  stats.probing_time_ms = last_arrival;
  stats.discovery_time_ms = critical_disc;

  if (!qualified.empty()) {
    // Step 4: the acknowledgement travels the reversed selected graph.
    // Under the fault model every hop is a real, retransmitted message
    // (same deliver_hop machinery as forward probes); if a hop stays
    // undelivered the source never learns which composition was selected
    // and the request fails — its holds are released below and expire at
    // the peers, the paper's timeout-based cancellation.
    bool ack_ok = true;
    double ack_extra_ms = 0.0;
    for (std::size_t h = 0; h < qualified.front().hops.size(); ++h) {
      ++stats.probe_messages;
      const HopDelivery d = deliver_hop(
          state, qualified.front().hops[h].path,
          util::hash_values(state.noise_salt, std::uint64_t{0xac4eu}, h),
          nullptr);
      ack_extra_ms += d.added_latency_ms;
      if (!d.delivered) {
        ack_ok = false;
        break;
      }
    }
    if (ack_ok) {
      result.success = true;
      if (trace_ != nullptr) {
        obs::TraceRecord rec;
        rec.event = obs::TraceEvent::kGraphSelected;
        rec.time_ms = last_arrival;
        rec.value = selection_key(qualified.front());
        trace_->record(std::move(rec));
      }
      result.best = std::move(qualified.front());
      // The winner's holds come from the request's reservation tables:
      // each node's component hold, then each hop's bandwidth hold (a hop
      // between co-located components or over an empty path has none,
      // and check-only mode records nothing).
      const ServiceGraph& best = result.best;
      for (FnNode n = 0; n < best.mapping.size(); ++n) {
        auto it = state.shared_peer_holds.find(
            SharedPeerKey{n, best.mapping[n].id});
        if (it != state.shared_peer_holds.end()) {
          result.best_holds.push_back(it->second);
        }
      }
      for (const ServiceLinkHop& hop : best.hops) {
        auto it = state.shared_path_holds.find(
            SharedPathKey{hop.from, hop.to, hop.from_peer, hop.to_peer});
        if (it != state.shared_path_holds.end()) {
          result.best_holds.push_back(it->second);
        }
      }
      for (std::size_t i = 1;
           i < qualified.size() &&
           result.backups.size() < kMaxBackupsReturned;
           ++i) {
        result.backups.push_back(std::move(qualified[i]));
      }
      stats.setup_time_ms = last_arrival + evaluator_->ack_time_ms(result.best) +
                            kPerHopProcessingMs + ack_extra_ms;
    } else {
      ++stats.setup_acks_lost;
      // The source sat through the ack's retransmission timeouts for
      // nothing; charge them to the (failed) setup time.
      stats.setup_time_ms = last_arrival + ack_extra_ms;
    }
  } else {
    stats.setup_time_ms = last_arrival;
  }

  // Release every hold this request made except those backing the best
  // graph (the paper's timeout-based cancellation, applied eagerly).
  std::unordered_set<HoldId> keep(result.best_holds.begin(),
                                  result.best_holds.end());
  for (HoldId hold : state.all_holds) {
    if (keep.count(hold) == 0) {
      alloc_->release_hold(hold);
      if (trace_ != nullptr) {
        obs::TraceRecord rec;
        rec.event = obs::TraceEvent::kHoldReleased;
        rec.time_ms = last_arrival;
        rec.value = double(hold);
        trace_->record(std::move(rec));
      }
    }
  }

  arena_totals_.segments_allocated += state.arena.segments_allocated();
  arena_totals_.freelist_reused += state.arena.freelist_reused();
  arena_totals_.peak_live_segments = std::max(
      arena_totals_.peak_live_segments, state.arena.peak_live_segments());

  flush_metrics(stats, result.success);
}

void BcpEngine::set_observability(obs::MetricsRegistry* metrics,
                                  obs::ProbeTrace* trace) {
  metrics_ = metrics;
  trace_ = trace;
  for (std::size_t i = 0; i < m_counters_.size(); ++i) {
    m_counters_[i] = obs::counter_handle(metrics, kComposeCounters[i].metric);
  }
  m_requests_ = obs::counter_handle(metrics, "bcp.requests");
  m_success_ = obs::counter_handle(metrics, "bcp.compose_success");
  m_failure_ = obs::counter_handle(metrics, "bcp.compose_failure");
  const std::vector<double> setup_bounds_ms = {
      1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000};
  m_setup_time_ =
      obs::histogram_handle(metrics, "bcp.setup_time_ms", setup_bounds_ms);
  m_probing_time_ =
      obs::histogram_handle(metrics, "bcp.probing_time_ms", setup_bounds_ms);
}

void BcpEngine::flush_metrics(const ComposeStats& stats, bool success) {
  if (metrics_ == nullptr) return;
  m_requests_->inc();
  (success ? m_success_ : m_failure_)->inc();
  for (std::size_t i = 0; i < m_counters_.size(); ++i) {
    m_counters_[i]->inc(stats.*kComposeCounters[i].field);
  }
  m_setup_time_->observe(stats.setup_time_ms);
  m_probing_time_->observe(stats.probing_time_ms);
}

ComposeResult BcpEngine::compose(const service::CompositeRequest& request,
                                 Rng& rng) {
  ComposeState state;
  if (!init_state(state, request, rng)) return std::move(state.result);

  std::deque<Probe> queue(std::make_move_iterator(state.seeds.begin()),
                          std::make_move_iterator(state.seeds.end()));
  state.seeds.clear();
  std::vector<Probe> children;
  while (!queue.empty()) {
    Probe probe = std::move(queue.front());
    queue.pop_front();
    children.clear();
    process_probe(state, std::move(probe), &children);
    for (Probe& child : children) queue.push_back(std::move(child));
  }
  finalize(state);
  return std::move(state.result);
}

}  // namespace spider::core
