#include "discovery/registry.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "util/require.hpp"

namespace spider::discovery {

using service::ComponentMetadata;

void ServiceRegistry::set_metrics(obs::MetricsRegistry* metrics) {
  m_lookups_ = obs::counter_handle(metrics, "discovery.lookups");
  m_lookup_hops_ = obs::counter_handle(metrics, "discovery.lookup_hops");
  m_lookup_failures_ =
      obs::counter_handle(metrics, "discovery.lookup_failures");
  m_cache_hits_ = obs::counter_handle(metrics, "discovery.cache_hits");
  m_cache_misses_ = obs::counter_handle(metrics, "discovery.cache_misses");
  m_cache_evictions_ =
      obs::counter_handle(metrics, "discovery.cache_evictions");
}

void ServiceRegistry::note_evictions(std::size_t count) {
  cache_evictions_ += count;
  if (m_cache_evictions_ != nullptr) m_cache_evictions_->inc(count);
}

std::size_t ServiceRegistry::sweep_expired() {
  if (sim_ == nullptr || cache_ttl_ <= 0.0) return 0;
  const double now = sim_->now();
  std::size_t evicted = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second.expires_at <= now) {
      it = cache_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  note_evictions(evicted);
  return evicted;
}

std::string serialize(const ComponentMetadata& meta) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%llu|%u|%u|%.9g|%.9g|%.9g|%.9g|%.9g|%.9g|%u|%u",
                static_cast<unsigned long long>(meta.id), meta.function,
                meta.host, meta.perf.delay_ms(), meta.perf.loss_log(),
                meta.perf.jitter_ms(), meta.required.cpu(),
                meta.required.memory(), meta.failure_prob, meta.input_level,
                meta.output_level);
  return buf;
}

std::optional<ComponentMetadata> deserialize(const std::string& data) {
  unsigned long long id = 0;
  unsigned function = 0, host = 0, in_level = 0, out_level = 0;
  double delay = 0, loss = 0, jitter = 0, cpu = 0, mem = 0, fail = 0;
  const int matched = std::sscanf(
      data.c_str(), "%llu|%u|%u|%lg|%lg|%lg|%lg|%lg|%lg|%u|%u", &id,
      &function, &host, &delay, &loss, &jitter, &cpu, &mem, &fail, &in_level,
      &out_level);
  if (matched != 11) return std::nullopt;
  ComponentMetadata meta;
  meta.id = id;
  meta.function = function;
  meta.host = host;
  meta.perf = jitter > 0.0
                  ? service::Qos::delay_loss_jitter(delay, loss, jitter)
                  : service::Qos::delay_loss(delay, loss);
  meta.required = service::Resources::cpu_mem(cpu, mem);
  meta.failure_prob = fail;
  meta.input_level = in_level;
  meta.output_level = out_level;
  return meta;
}

dht::NodeId ServiceRegistry::key_for(service::FunctionId function) const {
  // Hash the function *name* (the paper's secure-hash-of-name scheme), so
  // independently computed keys agree across peers.
  return dht::NodeId::hash_of(catalog_->name(function));
}

dht::RouteResult ServiceRegistry::register_component(
    const ComponentMetadata& meta) {
  SPIDER_REQUIRE(meta.function != service::kInvalidFunction);
  return dht_->put(meta.host, key_for(meta.function), serialize(meta));
}

void ServiceRegistry::bulk_register(
    const std::vector<ComponentMetadata>& metas, std::size_t jobs) {
  std::vector<dht::PastryNetwork::BulkPutItem> items;
  items.reserve(metas.size());
  for (const ComponentMetadata& meta : metas) {
    SPIDER_REQUIRE(meta.function != service::kInvalidFunction);
    items.push_back({meta.host, key_for(meta.function), serialize(meta)});
  }
  dht_->bulk_put(items, jobs);
}

void ServiceRegistry::unregister_component(const ComponentMetadata& meta) {
  dht_->erase(key_for(meta.function), serialize(meta));
}

DiscoveryResult ServiceRegistry::discover(dht::PeerId from,
                                          service::FunctionId function) {
  if (m_lookups_ != nullptr) m_lookups_->inc();
  const DiscoveryCacheKey cache_key{from, function};
  if (sim_ != nullptr && cache_ttl_ > 0.0) {
    // Amortized purge: entries whose (peer, function) is never queried
    // again are not reachable through touch-eviction below, so sweep the
    // whole map every kCacheSweepInterval cached lookups.
    if (++cached_lookups_since_sweep_ >= kCacheSweepInterval) {
      cached_lookups_since_sweep_ = 0;
      sweep_expired();
    }
    if (auto it = cache_.find(cache_key); it != cache_.end()) {
      if (it->second.expires_at > sim_->now()) {
        ++cache_hits_;
        if (m_cache_hits_ != nullptr) m_cache_hits_->inc();
        DiscoveryResult cached = it->second.result;
        cached.path.assign(1, from);  // no DHT hops: answered locally
        return cached;
      }
      // Expired: evict on touch (re-inserted below after the DHT round).
      cache_.erase(it);
      note_evictions(1);
    }
    ++cache_misses_;
    if (m_cache_misses_ != nullptr) m_cache_misses_->inc();
  }

  DiscoveryResult result;
  dht::GetResult got = dht_->get(from, key_for(function));
  result.path = std::move(got.path);
  result.found = got.found;
  for (const std::string& blob : got.values) {
    if (auto meta = deserialize(blob); meta.has_value()) {
      result.components.push_back(*meta);
    }
  }
  if (result.components.empty()) result.found = false;
  if (m_lookup_hops_ != nullptr) m_lookup_hops_->inc(result.hops());
  if (!result.found && m_lookup_failures_ != nullptr) {
    m_lookup_failures_->inc();
  }

  if (sim_ != nullptr && cache_ttl_ > 0.0) {
    cache_[cache_key] = CacheEntry{result, sim_->now() + cache_ttl_};
  }
  return result;
}

void ServiceRegistry::reannounce_all(const std::vector<ComponentMetadata>& live) {
  for (const ComponentMetadata& meta : live) {
    if (dht_->alive(meta.host)) register_component(meta);
  }
}

}  // namespace spider::discovery
