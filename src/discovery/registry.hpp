// Decentralized service discovery (§3).
//
// A meta-data layer on top of the Pastry DHT: a peer sharing a service
// component registers the component's static meta-data under the key
// SHA-1(function name).  All replicas of a function share the name, hence
// the key, hence the DHT node — so one lookup returns the meta-data list
// of *all* functionally duplicated components, exactly what BCP's per-hop
// next-component selection needs (§4.2 step 2.3).
//
// Registrations are soft state: owners re-register periodically
// (`reannounce_all` models the refresh round) so churn-displaced keys heal.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include <unordered_map>

#include "dht/pastry.hpp"
#include "sim/simulator.hpp"
#include "service/component.hpp"
#include "util/hash.hpp"

namespace spider::obs {
class MetricsRegistry;
class Counter;
}  // namespace spider::obs

namespace spider::discovery {

/// Binary-free, debuggable wire format for component meta-data.
std::string serialize(const service::ComponentMetadata& meta);
std::optional<service::ComponentMetadata> deserialize(const std::string& data);

/// Result of a discovery lookup.
struct DiscoveryResult {
  std::vector<service::ComponentMetadata> components;
  std::vector<dht::PeerId> path;  ///< DHT route taken (for latency models)
  bool found = false;
  std::size_t hops() const { return path.empty() ? 0 : path.size() - 1; }
};

/// Lookup-cache key: which peer resolved which function. A struct key
/// with field-wise equality, not a bit-packed word — the seed packed
/// `(peer << 32) | function` into one uint64, the same overlapping-shift
/// aliasing class PR 1 purged from the soft-hold dedup maps
/// (core/hold_keys.hpp): any future widening of either id (64-bit peer
/// ids, namespaced function ids) silently aliases distinct tuples and
/// serves one peer's cached replica list to another. The struct carries
/// both fields at full width whatever their type becomes.
struct DiscoveryCacheKey {
  dht::PeerId peer = 0;
  service::FunctionId function = service::kInvalidFunction;

  bool operator==(const DiscoveryCacheKey& o) const {
    return peer == o.peer && function == o.function;
  }
};

struct DiscoveryCacheKeyHash {
  std::size_t operator()(const DiscoveryCacheKey& k) const {
    return util::hash_values(k.peer, k.function);
  }
};

class ServiceRegistry {
 public:
  ServiceRegistry(dht::PastryNetwork& dht, service::FunctionCatalog& catalog)
      : dht_(&dht), catalog_(&catalog) {}

  /// Enables per-peer lookup caching: a peer that resolved a function
  /// within the last `ttl` (virtual time) reuses the result without a DHT
  /// round trip. Staleness is bounded by the TTL — cached replica lists
  /// may briefly include dead hosts (BCP filters liveness) or miss
  /// newly registered ones. Pass ttl <= 0 to disable.
  void enable_cache(sim::Simulator& simulator, double ttl) {
    sim_ = &simulator;
    cache_ttl_ = ttl;
    cache_.clear();
  }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }
  /// Entries dropped because their TTL lapsed (touched-on-lookup or via
  /// sweep_expired); invalidate_cache() drops are not counted.
  std::uint64_t cache_evictions() const { return cache_evictions_; }
  std::size_t cache_size() const { return cache_.size(); }
  /// Drops all cached entries (e.g. after bulk re-registration).
  void invalidate_cache() { cache_.clear(); }

  /// Evicts every entry whose TTL has lapsed and returns how many were
  /// dropped. Lookups already evict the expired entry they touch, but
  /// entries for (peer, function) pairs that are never queried again
  /// would otherwise pin their replica lists forever — long soaks grow
  /// the map without bound. discover() piggybacks a full sweep every
  /// `kCacheSweepInterval` lookups; call this directly for prompt
  /// reclamation (mirrors the allocator's sweep_expired()).
  std::size_t sweep_expired();

  /// Attaches a metrics registry (null detaches). Registers cumulative
  /// "discovery.*" counters: lookups, per-lookup DHT hops, cache outcomes
  /// and evictions.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Key under which a function's replicas are registered.
  dht::NodeId key_for(service::FunctionId function) const;

  /// Registers a component from its hosting peer. Returns the DHT route.
  dht::RouteResult register_component(const service::ComponentMetadata& meta);

  /// Registers a batch in one shot via PastryNetwork::bulk_put — same
  /// stored state and message totals as register_component() called in
  /// order, with the route computations spread over `jobs` workers.
  /// Requires an all-live DHT (initial world construction).
  void bulk_register(const std::vector<service::ComponentMetadata>& metas,
                     std::size_t jobs = 1);

  /// Removes a component's registration from all replicas.
  void unregister_component(const service::ComponentMetadata& meta);

  /// Looks up all replicas of `function`, querying from `from`.
  DiscoveryResult discover(dht::PeerId from, service::FunctionId function);

  /// Soft-state refresh: re-registers every component in `live_components`
  /// (the owners' periodic re-announcements after churn).
  void reannounce_all(const std::vector<service::ComponentMetadata>& live);

 private:
  struct CacheEntry {
    DiscoveryResult result;
    double expires_at = 0.0;
  };

  /// Cached lookups between piggybacked full sweeps in discover().
  static constexpr std::uint64_t kCacheSweepInterval = 256;

  void note_evictions(std::size_t count);

  dht::PastryNetwork* dht_;
  service::FunctionCatalog* catalog_;
  sim::Simulator* sim_ = nullptr;
  double cache_ttl_ = 0.0;
  std::unordered_map<DiscoveryCacheKey, CacheEntry, DiscoveryCacheKeyHash>
      cache_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_evictions_ = 0;
  std::uint64_t cached_lookups_since_sweep_ = 0;

  // Observability (all null when no registry is attached).
  obs::Counter* m_lookups_ = nullptr;
  obs::Counter* m_lookup_hops_ = nullptr;
  obs::Counter* m_lookup_failures_ = nullptr;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Counter* m_cache_evictions_ = nullptr;
};

}  // namespace spider::discovery
