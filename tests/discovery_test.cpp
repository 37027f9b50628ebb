// Tests for the service discovery layer: metadata serialization round
// trip, registration/lookup through the DHT, replica aggregation under
// one key, soft-state re-announcement after churn.
#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "discovery/registry.hpp"
#include "net/generator.hpp"
#include "net/router.hpp"
#include "obs/metrics.hpp"
#include "overlay/overlay.hpp"
#include "util/rng.hpp"

namespace spider::discovery {
namespace {

using service::ComponentMetadata;

ComponentMetadata sample_meta() {
  ComponentMetadata m;
  m.id = service::make_component_id(7, 3);
  m.function = 42;
  m.host = 7;
  m.perf = service::Qos::delay_loss(12.5, 0.125);
  m.required = service::Resources::cpu_mem(3.25, 6.5);
  m.failure_prob = 0.03125;
  m.input_level = 2;
  m.output_level = 5;
  return m;
}

TEST(Serialization, RoundTripPreservesAllFields) {
  const ComponentMetadata m = sample_meta();
  const auto back = deserialize(serialize(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, m.id);
  EXPECT_EQ(back->function, m.function);
  EXPECT_EQ(back->host, m.host);
  EXPECT_DOUBLE_EQ(back->perf.delay_ms(), m.perf.delay_ms());
  EXPECT_DOUBLE_EQ(back->perf.loss_log(), m.perf.loss_log());
  EXPECT_DOUBLE_EQ(back->required.cpu(), m.required.cpu());
  EXPECT_DOUBLE_EQ(back->required.memory(), m.required.memory());
  EXPECT_DOUBLE_EQ(back->failure_prob, m.failure_prob);
  EXPECT_EQ(back->input_level, m.input_level);
  EXPECT_EQ(back->output_level, m.output_level);
}

TEST(Serialization, RejectsGarbage) {
  EXPECT_FALSE(deserialize("").has_value());
  EXPECT_FALSE(deserialize("not|a|component").has_value());
  EXPECT_FALSE(deserialize("1|2|3").has_value());
}

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    auto topo = net::power_law(200, 2, rng);
    net::Router router(topo);
    std::vector<net::NodeIdx> nodes;
    for (std::size_t idx : rng.sample_indices(200, 24)) {
      nodes.push_back(net::NodeIdx(idx));
    }
    auto ov = overlay::OverlayNetwork::from_topology(
        topo, router, std::move(nodes), overlay::OverlayKind::kNearestMesh, 4,
        rng);
    deployment_ =
        std::make_unique<core::Deployment>(std::move(ov), 1, 8, 3);
    deployment_->catalog().intern("fn/filter");
    deployment_->catalog().intern("fn/scale");
  }

  service::ServiceComponent make_component(overlay::PeerId host,
                                           service::FunctionId fn) {
    service::ServiceComponent c;
    c.host = host;
    c.function = fn;
    c.perf = service::Qos::delay_loss(10, 0);
    c.required = service::Resources::cpu_mem(1, 1);
    return c;
  }

  std::unique_ptr<core::Deployment> deployment_;
};

TEST_F(RegistryTest, DiscoverFindsAllReplicasUnderOneKey) {
  // Replicas of the same function registered from different hosts are all
  // returned by a single lookup (they share the hashed key).
  deployment_->deploy_component(make_component(1, 0));
  deployment_->deploy_component(make_component(5, 0));
  deployment_->deploy_component(make_component(9, 0));
  deployment_->deploy_component(make_component(2, 1));  // other function

  auto result = deployment_->registry().discover(3, 0);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.components.size(), 3u);
  for (const auto& meta : result.components) EXPECT_EQ(meta.function, 0u);
}

TEST_F(RegistryTest, DiscoverUnknownFunctionFails) {
  deployment_->catalog().intern("fn/nobody");
  auto result = deployment_->registry().discover(0, 2);
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.components.empty());
}

TEST_F(RegistryTest, UnregisterRemovesReplica) {
  const auto& c1 = deployment_->deploy_component(make_component(1, 0));
  deployment_->deploy_component(make_component(5, 0));
  deployment_->registry().unregister_component(
      service::ComponentMetadata::from(c1));
  auto result = deployment_->registry().discover(7, 0);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.components.size(), 1u);
  EXPECT_EQ(result.components[0].host, 5u);
}

TEST_F(RegistryTest, LookupSurvivesKeyOwnerFailure) {
  deployment_->deploy_component(make_component(1, 0));
  const auto key = deployment_->registry().key_for(0);
  const auto owner = deployment_->dht().owner_oracle(key);
  // Pick a query source that is not the failing owner.
  overlay::PeerId from = 0;
  while (from == owner) ++from;
  deployment_->kill_peer(owner);
  auto result = deployment_->registry().discover(from, 0);
  EXPECT_TRUE(result.found);
}

TEST_F(RegistryTest, ReannounceHealsAfterChurn) {
  const auto& c = deployment_->deploy_component(make_component(1, 0));
  const auto meta = service::ComponentMetadata::from(c);
  // Kill enough of the replica neighborhood that the key may be lost,
  // then re-announce (the owner's periodic soft-state refresh).
  for (int round = 0; round < 4; ++round) {
    const auto key = deployment_->registry().key_for(0);
    const auto owner = deployment_->dht().owner_oracle(key);
    if (owner == 1) break;  // would kill the component's own host
    deployment_->kill_peer(owner);
  }
  deployment_->registry().reannounce_all({meta});
  auto result = deployment_->registry().discover(1, 0);
  EXPECT_TRUE(result.found);
}

TEST_F(RegistryTest, CacheServesRepeatLookupsWithoutDht) {
  deployment_->deploy_component(make_component(1, 0));
  auto& registry = deployment_->registry();
  sim::Simulator sim;
  registry.enable_cache(sim, /*ttl=*/100.0);

  auto first = registry.discover(3, 0);
  ASSERT_TRUE(first.found);
  EXPECT_EQ(registry.cache_hits(), 0u);
  EXPECT_EQ(registry.cache_misses(), 1u);

  deployment_->dht().reset_message_counter();
  auto second = registry.discover(3, 0);
  ASSERT_TRUE(second.found);
  EXPECT_EQ(registry.cache_hits(), 1u);
  EXPECT_EQ(deployment_->dht().messages_sent(), 0u)
      << "cache hit must not touch the DHT";
  EXPECT_EQ(second.hops(), 0u);
  EXPECT_EQ(second.components.size(), first.components.size());

  // A different querying peer has its own cache slot.
  registry.discover(5, 0);
  EXPECT_EQ(registry.cache_misses(), 2u);
}

TEST_F(RegistryTest, CacheExpiresAfterTtl) {
  deployment_->deploy_component(make_component(1, 0));
  auto& registry = deployment_->registry();
  sim::Simulator sim;
  registry.enable_cache(sim, /*ttl=*/50.0);
  registry.discover(3, 0);
  sim.schedule_at(60.0, [] {});
  sim.run();
  registry.discover(3, 0);
  EXPECT_EQ(registry.cache_hits(), 0u);
  EXPECT_EQ(registry.cache_misses(), 2u);
}

TEST_F(RegistryTest, CacheCanServeStaleUntilInvalidated) {
  const auto& c1 = deployment_->deploy_component(make_component(1, 0));
  auto& registry = deployment_->registry();
  sim::Simulator sim;
  registry.enable_cache(sim, /*ttl=*/1000.0);
  ASSERT_EQ(registry.discover(3, 0).components.size(), 1u);
  // Unregister; the cached entry is allowed to be stale within the TTL...
  registry.unregister_component(service::ComponentMetadata::from(c1));
  EXPECT_EQ(registry.discover(3, 0).components.size(), 1u);
  // ...until explicitly invalidated.
  registry.invalidate_cache();
  EXPECT_FALSE(registry.discover(3, 0).found);
}

TEST(DiscoveryCacheKey, DistinctTuplesNeverAlias) {
  // Regression: the cache key used to be (peer << 32) | function packed
  // into a uint64. That packing silently truncates if either id type ever
  // widens; the struct key + util::hash_values is width-proof. Check the
  // equality semantics directly, including the adversarial swapped pairs
  // that bit-packing schemes tend to confuse.
  const DiscoveryCacheKey a{1, 2};
  const DiscoveryCacheKey b{2, 1};
  const DiscoveryCacheKey c{1, 2};
  EXPECT_TRUE(a == c);
  EXPECT_FALSE(a == b);
  const DiscoveryCacheKeyHash hash;
  EXPECT_EQ(hash(a), hash(c));
  EXPECT_NE(hash(a), hash(b));
  // (peer=0, fn=x) vs (peer=x, fn=0) is the classic packed-key collision
  // family when shift widths drift.
  EXPECT_FALSE((DiscoveryCacheKey{0, 7} == DiscoveryCacheKey{7, 0}));
  EXPECT_NE(hash(DiscoveryCacheKey{0, 7}), hash(DiscoveryCacheKey{7, 0}));
}

TEST_F(RegistryTest, CacheSlotsIsolatedPerPeerAndFunction) {
  deployment_->deploy_component(make_component(1, 0));
  deployment_->deploy_component(make_component(2, 1));
  auto& registry = deployment_->registry();
  sim::Simulator sim;
  registry.enable_cache(sim, /*ttl=*/1000.0);
  // Four distinct (peer, function) tuples → four misses, four entries.
  registry.discover(3, 0);
  registry.discover(3, 1);
  registry.discover(5, 0);
  registry.discover(5, 1);
  EXPECT_EQ(registry.cache_misses(), 4u);
  EXPECT_EQ(registry.cache_size(), 4u);
  // Each repeat hits its own slot.
  registry.discover(3, 0);
  registry.discover(5, 1);
  EXPECT_EQ(registry.cache_hits(), 2u);
  EXPECT_EQ(registry.cache_misses(), 4u);
}

TEST_F(RegistryTest, ExpiredEntryIsEvictedOnTouch) {
  deployment_->deploy_component(make_component(1, 0));
  auto& registry = deployment_->registry();
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  registry.set_metrics(&metrics);
  registry.enable_cache(sim, /*ttl=*/50.0);
  registry.discover(3, 0);
  EXPECT_EQ(registry.cache_size(), 1u);
  sim.schedule_at(60.0, [] {});
  sim.run();
  // The expired entry is erased (not just bypassed) when re-touched.
  registry.discover(3, 0);
  EXPECT_EQ(registry.cache_evictions(), 1u);
  EXPECT_EQ(registry.cache_size(), 1u);  // re-cached by the fresh miss
  EXPECT_EQ(metrics.counter("discovery.cache_evictions").value(), 1u);
}

TEST_F(RegistryTest, SweepPurgesEntriesNeverTouchedAgain) {
  deployment_->deploy_component(make_component(1, 0));
  deployment_->deploy_component(make_component(2, 1));
  auto& registry = deployment_->registry();
  sim::Simulator sim;
  registry.enable_cache(sim, /*ttl=*/50.0);
  registry.discover(3, 0);
  registry.discover(4, 0);
  registry.discover(5, 1);
  EXPECT_EQ(registry.cache_size(), 3u);
  sim.schedule_at(60.0, [] {});
  sim.run();
  // Without the sweep these dead entries would sit in the map forever
  // (the old code never erased, it only ignored them on lookup).
  registry.sweep_expired();
  EXPECT_EQ(registry.cache_size(), 0u);
  EXPECT_EQ(registry.cache_evictions(), 3u);
}

TEST_F(RegistryTest, DiscoveryPathTracksHops) {
  deployment_->deploy_component(make_component(1, 0));
  auto result = deployment_->registry().discover(3, 0);
  ASSERT_TRUE(result.found);
  ASSERT_FALSE(result.path.empty());
  EXPECT_EQ(result.path.front(), 3u);
}

}  // namespace
}  // namespace spider::discovery
