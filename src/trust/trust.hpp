// Decentralized trust management — the paper's stated future work (§8):
// "we will integrate decentralized trust management into the current
// service composition framework to support secure service composition."
//
// This module implements a beta-reputation system over the existing DHT:
//
//  * after a session, the source peer reports each involved peer's
//    behaviour (did its component deliver, did the peer vanish
//    mid-session) as a positive/negative interaction;
//  * per-subject feedback records are stored decentralized under the key
//    SHA-1("trust:<peer>") with the DHT's normal replication, one record
//    per rater (a rater updates its own record rather than appending, so
//    a single rater cannot inflate counts by repetition);
//  * the trust score of a peer is the expected value of the Beta
//    posterior over its aggregated interaction counts,
//        t = (α₀ + Σpos) / (α₀ + β₀ + Σpos + Σneg),
//    fetched on demand via a DHT lookup — the same on-demand selective
//    state collection philosophy as BCP itself.
//
// Composition integrates trust through BcpConfig::trust_fn: candidates
// hosted by low-trust peers are penalized in the next-hop metric, so a
// few bad experiences steer probes away from unreliable or misbehaving
// providers without any centralized authority.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>

#include "core/deployment.hpp"
#include "sim/simulator.hpp"
#include "util/keys.hpp"

namespace spider::obs {
class MetricsRegistry;
class Counter;
}  // namespace spider::obs

namespace spider::trust {

using overlay::PeerId;

struct TrustConfig {
  /// Beta prior (α₀, β₀). The default (1, 1) is the uniform prior: an
  /// unknown peer scores 0.5.
  double prior_alpha = 1.0;
  double prior_beta = 1.0;
  /// Cache TTL for fetched scores, in simulator time units; 0 disables
  /// caching (every query hits the DHT).
  double cache_ttl = 0.0;
};

/// Aggregated interaction counts for one subject peer.
struct TrustRecord {
  double positive = 0.0;
  double negative = 0.0;
  std::size_t raters = 0;
};

class TrustManager {
 public:
  TrustManager(core::Deployment& deployment, sim::Simulator& simulator,
               TrustConfig config = {})
      : deployment_(&deployment), sim_(&simulator), config_(config) {}

  /// Records an interaction outcome observed by `rater` about `subject`
  /// and publishes the rater's updated record to the DHT.
  void report(PeerId rater, PeerId subject, bool positive);

  /// Trust score in (0, 1): Beta-posterior mean over all raters' records
  /// fetched from the DHT by `requester`. Unknown peers get the prior
  /// mean. Counts DHT messages like any other lookup.
  double trust(PeerId requester, PeerId subject);

  /// Aggregated counts as stored (for tests/inspection).
  TrustRecord record(PeerId requester, PeerId subject);

  /// Convenience: a trust function bound to a querying peer, suitable for
  /// BcpConfig::trust_fn.
  std::function<double(PeerId)> trust_fn(PeerId requester);

  std::uint64_t reports_published() const { return reports_; }

  std::size_t cache_size() const { return cache_.size(); }
  /// Entries dropped because their TTL lapsed (touched-on-lookup or via
  /// sweep_expired); report()'s invalidation drops are not counted.
  std::uint64_t cache_evictions() const { return cache_evictions_; }

  /// Evicts every cached score whose TTL has lapsed and returns how many
  /// were dropped. trust() already evicts the expired entry it touches,
  /// but scores for subjects never queried again would otherwise pin the
  /// map forever — the PR 4 discovery-cache bug family. trust()
  /// piggybacks a full sweep every kCacheSweepInterval cached lookups;
  /// call this directly for prompt reclamation.
  std::size_t sweep_expired();

  /// Attaches a metrics registry (null detaches) and registers the only
  /// counter, "trust.cache_evictions".
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  struct CacheEntry {
    double score;
    double expires_at;
  };

  /// Cached lookups between piggybacked full sweeps in trust().
  static constexpr std::uint64_t kCacheSweepInterval = 256;

  void note_evictions(std::size_t count);

  static dht::NodeId key_for(PeerId subject);
  static std::string serialize(PeerId rater, std::uint32_t pos,
                               std::uint32_t neg);

  core::Deployment* deployment_;
  sim::Simulator* sim_;
  TrustConfig config_;
  // Each rater's local interaction counts per subject (its own ground
  // truth; the DHT holds the published copies).
  std::unordered_map<util::PairKey<PeerId, PeerId>,
                     std::pair<std::uint32_t, std::uint32_t>,
                     util::PairKeyHash>
      own_counts_;
  std::unordered_map<PeerId, CacheEntry> cache_;
  std::uint64_t reports_ = 0;
  std::uint64_t cache_evictions_ = 0;
  std::uint64_t cached_lookups_since_sweep_ = 0;
  obs::Counter* m_cache_evictions_ = nullptr;
};

}  // namespace spider::trust
