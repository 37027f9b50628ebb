#include "trust/trust.hpp"

#include <cstdio>

#include "obs/metrics.hpp"
#include "util/require.hpp"

namespace spider::trust {

dht::NodeId TrustManager::key_for(PeerId subject) {
  return dht::NodeId::hash_of("trust:" + std::to_string(subject));
}

std::string TrustManager::serialize(PeerId rater, std::uint32_t pos,
                                    std::uint32_t neg) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%u|%u|%u", rater, pos, neg);
  return buf;
}

void TrustManager::report(PeerId rater, PeerId subject, bool positive) {
  SPIDER_REQUIRE(rater < deployment_->peer_count());
  SPIDER_REQUIRE(subject < deployment_->peer_count());
  if (!deployment_->dht().alive(rater)) return;

  auto& counts = own_counts_[util::PairKey<PeerId, PeerId>{rater, subject}];
  const std::string old_record =
      serialize(rater, counts.first, counts.second);
  if (positive) {
    ++counts.first;
  } else {
    ++counts.second;
  }
  // Replace the rater's published record: erase the stale copy, publish
  // the updated one. One record per rater bounds self-promotion.
  auto& dht = deployment_->dht();
  const dht::NodeId key = key_for(subject);
  if (counts.first + counts.second > 1) dht.erase(key, old_record);
  dht.put(rater, key, serialize(rater, counts.first, counts.second));
  ++reports_;
  cache_.erase(subject);  // invalidate the aggregate cache
}

TrustRecord TrustManager::record(PeerId requester, PeerId subject) {
  TrustRecord out;
  if (!deployment_->dht().alive(requester)) return out;
  const dht::GetResult got =
      deployment_->dht().get(requester, key_for(subject));
  for (const std::string& blob : got.values) {
    unsigned rater = 0, pos = 0, neg = 0;
    if (std::sscanf(blob.c_str(), "%u|%u|%u", &rater, &pos, &neg) == 3) {
      out.positive += pos;
      out.negative += neg;
      ++out.raters;
    }
  }
  return out;
}

void TrustManager::set_metrics(obs::MetricsRegistry* metrics) {
  m_cache_evictions_ = obs::counter_handle(metrics, "trust.cache_evictions");
}

void TrustManager::note_evictions(std::size_t count) {
  cache_evictions_ += count;
  if (m_cache_evictions_ != nullptr) m_cache_evictions_->inc(count);
}

std::size_t TrustManager::sweep_expired() {
  if (config_.cache_ttl <= 0.0) return 0;
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

double TrustManager::trust(PeerId requester, PeerId subject) {
  if (config_.cache_ttl > 0.0) {
    // Amortized reclamation for subjects never queried again: sweep the
    // whole map every kCacheSweepInterval cached lookups.
    if (++cached_lookups_since_sweep_ >= kCacheSweepInterval) {
      cached_lookups_since_sweep_ = 0;
      sweep_expired();
    }
    auto it = cache_.find(subject);
    if (it != cache_.end()) {
      if (it->second.expires_at > sim_->now()) {
        return it->second.score;
      }
      // Expired: evict on touch (re-inserted below after the DHT fetch).
      cache_.erase(it);
      note_evictions(1);
    }
  }
  const TrustRecord rec = record(requester, subject);
  const double score =
      (config_.prior_alpha + rec.positive) /
      (config_.prior_alpha + config_.prior_beta + rec.positive + rec.negative);
  if (config_.cache_ttl > 0.0) {
    cache_[subject] = CacheEntry{score, sim_->now() + config_.cache_ttl};
  }
  return score;
}

std::function<double(PeerId)> TrustManager::trust_fn(PeerId requester) {
  return [this, requester](PeerId subject) {
    return trust(requester, subject);
  };
}

}  // namespace spider::trust
