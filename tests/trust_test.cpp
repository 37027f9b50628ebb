// Tests for decentralized trust management: beta-reputation math, DHT
// persistence of per-rater records, rater-update (not append) semantics,
// survival of owner churn, and BCP trust-aware candidate steering.
#include <gtest/gtest.h>

#include "core/bcp.hpp"
#include "obs/metrics.hpp"
#include "test_scenario.hpp"
#include "trust/trust.hpp"

namespace spider::trust {
namespace {

class TrustTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = spider::testing::small_scenario(/*seed=*/9, /*peers=*/40);
    manager_ = std::make_unique<TrustManager>(*scenario_->deployment,
                                              scenario_->sim);
  }

  std::unique_ptr<workload::Scenario> scenario_;
  std::unique_ptr<TrustManager> manager_;
};

TEST_F(TrustTest, UnknownPeerGetsPriorMean) {
  EXPECT_DOUBLE_EQ(manager_->trust(0, 7), 0.5);
}

TEST_F(TrustTest, PositiveReportsRaiseTrust) {
  for (int i = 0; i < 8; ++i) manager_->report(1, 7, true);
  const double t = manager_->trust(0, 7);
  EXPECT_NEAR(t, 9.0 / 10.0, 1e-9);  // Beta(1+8, 1)
}

TEST_F(TrustTest, NegativeReportsLowerTrust) {
  for (int i = 0; i < 3; ++i) manager_->report(1, 7, false);
  EXPECT_NEAR(manager_->trust(0, 7), 1.0 / 5.0, 1e-9);  // Beta(1, 1+3)
}

TEST_F(TrustTest, RaterUpdatesDoNotAppendDuplicates) {
  // 20 reports from one rater must produce exactly one stored record.
  for (int i = 0; i < 20; ++i) manager_->report(2, 9, i % 2 == 0);
  const TrustRecord rec = manager_->record(0, 9);
  EXPECT_EQ(rec.raters, 1u);
  EXPECT_DOUBLE_EQ(rec.positive, 10.0);
  EXPECT_DOUBLE_EQ(rec.negative, 10.0);
}

TEST_F(TrustTest, MultipleRatersAggregate) {
  manager_->report(1, 5, true);
  manager_->report(2, 5, true);
  manager_->report(3, 5, false);
  const TrustRecord rec = manager_->record(0, 5);
  EXPECT_EQ(rec.raters, 3u);
  EXPECT_DOUBLE_EQ(rec.positive, 2.0);
  EXPECT_DOUBLE_EQ(rec.negative, 1.0);
  EXPECT_NEAR(manager_->trust(0, 5), 3.0 / 5.0, 1e-9);
}

TEST_F(TrustTest, RecordsSurviveOwnerFailure) {
  manager_->report(1, 6, false);
  manager_->report(2, 6, false);
  // Kill the DHT owner of the trust key; replication must preserve it.
  const auto key = dht::NodeId::hash_of("trust:6");
  const auto owner = scenario_->deployment->dht().owner_oracle(key);
  overlay::PeerId requester = 0;
  while (requester == owner || requester == 6) ++requester;
  scenario_->deployment->kill_peer(owner);
  EXPECT_LT(manager_->trust(requester, 6), 0.4);
}

TEST_F(TrustTest, CacheHonorsTtl) {
  TrustConfig config;
  config.cache_ttl = 100.0;
  TrustManager cached(*scenario_->deployment, scenario_->sim, config);
  cached.report(1, 4, true);
  const double before = cached.trust(0, 4);
  cached.report(1, 4, true);  // report invalidates the cache
  const double after = cached.trust(0, 4);
  EXPECT_GT(after, before);
}

TEST_F(TrustTest, ExpiredCacheEntriesAreErasedNotJustBypassed) {
  // Regression: expired entries used to be checked but never erased, so
  // the cache map grew monotonically (the PR 4 discovery-cache family).
  // Touched subjects must be evicted on lookup and untouched ones by
  // sweep_expired(), shrinking the map, with each TTL lapse counted.
  TrustConfig config;
  config.cache_ttl = 100.0;
  TrustManager cached(*scenario_->deployment, scenario_->sim, config);
  for (PeerId subject = 3; subject < 11; ++subject) {
    cached.trust(0, subject);
  }
  EXPECT_EQ(cached.cache_size(), 8u);
  EXPECT_EQ(cached.cache_evictions(), 0u);

  scenario_->sim.run_until(scenario_->sim.now() + 101.0);
  // Touch one expired subject: evicted on lookup, then re-cached fresh.
  cached.trust(0, 3);
  EXPECT_EQ(cached.cache_evictions(), 1u);
  EXPECT_EQ(cached.cache_size(), 8u);  // 7 stale + the re-fetched one

  // The other 7 are never queried again; the sweep must reclaim them.
  EXPECT_EQ(cached.sweep_expired(), 7u);
  EXPECT_EQ(cached.cache_size(), 1u);
  EXPECT_EQ(cached.cache_evictions(), 8u);

  // Fresh entries survive a sweep untouched.
  EXPECT_EQ(cached.sweep_expired(), 0u);
  EXPECT_EQ(cached.cache_size(), 1u);
}

TEST_F(TrustTest, CacheEvictionCounterIsRegisteredAtAttach) {
  obs::MetricsRegistry metrics;
  TrustConfig config;
  config.cache_ttl = 50.0;
  TrustManager cached(*scenario_->deployment, scenario_->sim, config);
  cached.set_metrics(&metrics);
  const obs::Counter* evictions = metrics.find_counter("trust.cache_evictions");
  ASSERT_NE(evictions, nullptr);
  cached.trust(0, 5);
  EXPECT_EQ(evictions->value(), 0u);  // no eviction yet
  scenario_->sim.run_until(scenario_->sim.now() + 51.0);
  cached.trust(0, 5);
  EXPECT_EQ(evictions->value(), 1u);
}

TEST_F(TrustTest, BcpSteersAwayFromDistrustedPeers) {
  // Make one replica's host thoroughly distrusted, then compose many
  // times: the distrusted host should be picked (much) less often than
  // without trust.
  auto req = spider::testing::easy_request(*scenario_);
  core::BcpEngine bcp(*scenario_->deployment, *scenario_->alloc,
                      *scenario_->evaluator, scenario_->sim,
                      core::BcpConfig{});
  Rng rng(4);

  // Baseline compose to find a host to distrust.
  core::ComposeResult first = bcp.compose(req, rng);
  ASSERT_TRUE(first.success);
  const overlay::PeerId bad = first.best.mapping[0].host;
  for (core::HoldId h : first.best_holds) scenario_->alloc->release_hold(h);
  for (int i = 0; i < 30; ++i) manager_->report(1, bad, false);

  auto count_uses = [&](bool with_trust) {
    core::BcpConfig config;
    if (with_trust) {
      config.trust_fn = manager_->trust_fn(req.source);
      config.metric_w_trust = 2000.0;
    }
    bcp.set_config(config);
    int uses = 0;
    for (int i = 0; i < 20; ++i) {
      core::ComposeResult r = bcp.compose(req, rng);
      if (!r.success) continue;
      for (core::HoldId h : r.best_holds) scenario_->alloc->release_hold(h);
      uses += r.best.uses_peer(bad) ? 1 : 0;
    }
    return uses;
  };
  const int without = count_uses(false);
  const int with = count_uses(true);
  EXPECT_LE(with, without);
  EXPECT_LT(with, 20);
}

}  // namespace
}  // namespace spider::trust
