// Community partitioning (§5l): deterministic construction at any job
// count, partition sanity, per-community discovery indexing, and the
// two-tier BCP contract — a single-community map is bit-for-bit flat
// BCP, and an attached multi-community map populates the coarse-tier
// stats while conserving β across both tiers.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/bcp.hpp"
#include "discovery/community_index.hpp"
#include "overlay/community.hpp"
#include "test_scenario.hpp"

namespace spider::overlay {
namespace {

std::unique_ptr<workload::Scenario> community_scenario(
    std::uint64_t seed, std::size_t communities, std::size_t peers = 48,
    std::size_t functions = 12) {
  workload::SimScenarioConfig config;
  config.seed = seed;
  config.ip_nodes = 300;
  config.peers = peers;
  config.function_count = functions;
  config.min_components_per_peer = 1;
  config.max_components_per_peer = 3;
  config.overlay_degree = 4;
  config.use_communities = true;
  config.community_count = communities;
  return workload::build_sim_scenario(config);
}

TEST(CommunityMap, PartitionsEveryPeerExactlyOnce) {
  auto s = spider::testing::small_scenario();
  const CommunityMap map =
      CommunityMap::build(s->deployment->overlay(), 6);
  ASSERT_EQ(map.community_count(), 6u);
  EXPECT_EQ(map.peer_count(), s->deployment->overlay().peer_count());
  std::size_t total = 0;
  std::set<PeerId> seen;
  for (CommunityId c = 0; c < map.community_count(); ++c) {
    PeerId prev = kInvalidPeer;
    for (PeerId p : map.members(c)) {
      EXPECT_EQ(map.community_of(p), c);
      EXPECT_TRUE(seen.insert(p).second);
      if (prev != kInvalidPeer) {
        EXPECT_LT(prev, p);  // ascending
      }
      prev = p;
      ++total;
    }
  }
  EXPECT_EQ(total, map.peer_count());
}

TEST(CommunityMap, HeadsBelongToTheirOwnCommunity) {
  auto s = spider::testing::small_scenario();
  const CommunityMap map =
      CommunityMap::build(s->deployment->overlay(), 6);
  for (CommunityId c = 0; c < map.community_count(); ++c) {
    const PeerId head = map.head(c);
    // The head is delay-0 from itself, so no other head can be nearer
    // (ties break toward the lowest community id, and farthest-point
    // sampling never picks the same peer twice).
    EXPECT_EQ(map.community_of(head), c);
    EXPECT_EQ(map.head_delay_ms(c, head), 0.0);
  }
}

TEST(CommunityMap, SingleCommunityIsTheWholeOverlay) {
  auto s = spider::testing::small_scenario();
  const CommunityMap map =
      CommunityMap::build(s->deployment->overlay(), 1);
  ASSERT_EQ(map.community_count(), 1u);
  EXPECT_EQ(map.members(0).size(), map.peer_count());
  for (PeerId p = 0; p < map.peer_count(); ++p) {
    EXPECT_EQ(map.community_of(p), 0u);
  }
}

TEST(CommunityMap, CountIsClampedToPeerCount) {
  auto s = spider::testing::small_scenario();
  const std::size_t peers = s->deployment->overlay().peer_count();
  const CommunityMap map =
      CommunityMap::build(s->deployment->overlay(), peers + 100);
  EXPECT_EQ(map.community_count(), peers);
}

TEST(CommunityMap, ByteIdenticalAtAnyJobCount) {
  for (std::uint64_t seed : {7ull, 21ull, 33ull}) {
    auto s = spider::testing::small_scenario(seed);
    const CommunityMap serial =
        CommunityMap::build(s->deployment->overlay(), 6, 1);
    const CommunityMap parallel =
        CommunityMap::build(s->deployment->overlay(), 6, 4);
    ASSERT_EQ(serial.community_count(), parallel.community_count());
    EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
    for (PeerId p = 0; p < serial.peer_count(); ++p) {
      ASSERT_EQ(serial.community_of(p), parallel.community_of(p));
    }
    for (CommunityId c = 0; c < serial.community_count(); ++c) {
      EXPECT_EQ(serial.head(c), parallel.head(c));
      ASSERT_EQ(serial.members(c).size(), parallel.members(c).size());
      for (std::size_t i = 0; i < serial.members(c).size(); ++i) {
        ASSERT_EQ(serial.members(c)[i], parallel.members(c)[i]);
      }
    }
  }
}

TEST(CommunityIndex, BucketsReplicasByHostCommunity) {
  auto s = community_scenario(7, 6);
  ASSERT_NE(s->communities, nullptr);
  ASSERT_NE(s->community_index, nullptr);
  const CommunityMap& map = *s->communities;
  const auto& index = *s->community_index;
  ASSERT_EQ(index.community_count(), map.community_count());

  // Every deployed component appears exactly once, in its host's
  // community bucket, ascending by id within a (community, function).
  std::size_t indexed = 0;
  for (CommunityId c = 0; c < map.community_count(); ++c) {
    for (service::FunctionId fn = 0;
         fn < s->deployment->catalog().size(); ++fn) {
      const auto span = index.replicas(c, fn);
      for (std::size_t i = 0; i < span.size(); ++i) {
        EXPECT_EQ(span[i].function, fn);
        EXPECT_EQ(map.community_of(span[i].host), c);
        if (i > 0) {
          EXPECT_LT(span[i - 1].id, span[i].id);  // ascending
        }
        ++indexed;
      }
      const auto* sum = index.summary(c, fn);
      if (span.empty()) {
        EXPECT_EQ(sum, nullptr);
      } else {
        ASSERT_NE(sum, nullptr);
        EXPECT_EQ(sum->replicas, span.size());
        double min_delay = span.front().perf.delay_ms();
        double min_fail = span.front().failure_prob;
        for (const auto& meta : span) {
          min_delay = std::min(min_delay, meta.perf.delay_ms());
          min_fail = std::min(min_fail, meta.failure_prob);
        }
        EXPECT_DOUBLE_EQ(sum->min_perf_delay_ms, min_delay);
        EXPECT_DOUBLE_EQ(sum->min_failure_prob, min_fail);
      }
    }
  }
  EXPECT_EQ(indexed, s->deployment->component_count());
}

TEST(TwoTierBcp, SingleCommunityMapRunsFlatBitForBit) {
  // Two identical worlds; one engine runs detached (flat), the other has
  // a 1-community map attached. Results and stats must be identical, every
  // ComposeStats field included — the count==1 short-circuit is the
  // two-tier layer's legacy mode.
  auto flat = community_scenario(11, 1);
  auto tiered = community_scenario(11, 1);
  ASSERT_EQ(tiered->communities->community_count(), 1u);

  core::BcpEngine flat_engine(*flat->deployment, *flat->alloc,
                              *flat->evaluator, flat->sim, core::BcpConfig{});
  core::BcpEngine tiered_engine(*tiered->deployment, *tiered->alloc,
                                *tiered->evaluator, tiered->sim,
                                core::BcpConfig{});
  tiered_engine.set_communities(tiered->communities.get(),
                                tiered->community_index.get());

  for (int i = 0; i < 8; ++i) {
    auto req_a = spider::testing::easy_request(*flat);
    auto req_b = spider::testing::easy_request(*tiered);
    Rng rng_a(100 + i), rng_b(100 + i);
    core::ComposeResult a = flat_engine.compose(req_a, rng_a);
    core::ComposeResult b = tiered_engine.compose(req_b, rng_b);
    ASSERT_EQ(a.success, b.success);
    EXPECT_EQ(b.stats.coarse_probes, 0u);
    EXPECT_EQ(b.stats.communities_pruned, 0u);
    EXPECT_EQ(a.stats, b.stats);
    if (a.success) {
      ASSERT_EQ(a.best.mapping.size(), b.best.mapping.size());
      for (std::size_t n = 0; n < a.best.mapping.size(); ++n) {
        EXPECT_EQ(a.best.mapping[n].id, b.best.mapping[n].id);
      }
    }
    for (core::HoldId h : a.best_holds) flat->alloc->release_hold(h);
    for (core::HoldId h : b.best_holds) tiered->alloc->release_hold(h);
  }
}

TEST(TwoTierBcp, CoarseTierPopulatesStatsAndConservesBudget) {
  auto s = community_scenario(13, 6);
  ASSERT_GT(s->communities->community_count(), 1u);
  core::BcpConfig config;
  core::BcpEngine engine(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                         config);
  engine.set_communities(s->communities.get(), s->community_index.get());

  bool any_success = false;
  for (int i = 0; i < 10; ++i) {
    auto req = spider::testing::easy_request(*s);
    Rng rng(200 + i);
    core::ComposeResult r = engine.compose(req, rng);
    const auto& st = r.stats;
    EXPECT_GT(st.coarse_probes, 0u);
    // Coarse probes are paid out of β: fine-tier arrivals can never
    // exceed what the coarse tier left over.
    const auto beta = std::uint64_t(config.probing_budget);
    EXPECT_LE(st.coarse_probes, beta);
    EXPECT_LE(st.coarse_probes + st.probes_arrived, beta);
    // Probed-but-unselected communities are the pruning win.
    EXPECT_LE(st.communities_pruned, st.coarse_probes);
    // Terminal accounting still balances with the coarse tier active.
    EXPECT_EQ(st.probes_spawned, st.probes_arrived +
                                     st.probes_dropped_total() +
                                     st.probes_forwarded);
    any_success |= r.success;
    for (core::HoldId h : r.best_holds) s->alloc->release_hold(h);
    EXPECT_EQ(s->alloc->active_holds(), 0u);
  }
  EXPECT_TRUE(any_success);
}

TEST(TwoTierBcp, FineDiscoveryStaysInsideSelectedCommunities) {
  auto s = community_scenario(17, 6);
  core::BcpEngine engine(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                         core::BcpConfig{});
  engine.set_communities(s->communities.get(), s->community_index.get());
  for (int i = 0; i < 10; ++i) {
    auto req = spider::testing::easy_request(*s);
    Rng rng(300 + i);
    core::ComposeResult r = engine.compose(req, rng);
    if (!r.success) continue;
    // Every selected component's host must sit in one of at most
    // kMaxCandidateCommunities communities.
    std::set<CommunityId> used;
    for (const auto& meta : r.best.mapping) {
      used.insert(s->communities->community_of(meta.host));
    }
    EXPECT_LE(used.size(), core::kMaxCandidateCommunities);
    for (core::HoldId h : r.best_holds) s->alloc->release_hold(h);
  }
}

TEST(TwoTierBcp, DetachingRestoresFlatBehavior) {
  auto s = community_scenario(19, 6);
  core::BcpEngine engine(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                         core::BcpConfig{});
  engine.set_communities(s->communities.get(), s->community_index.get());
  engine.set_communities(nullptr, nullptr);
  auto req = spider::testing::easy_request(*s);
  Rng rng(400);
  core::ComposeResult r = engine.compose(req, rng);
  EXPECT_EQ(r.stats.coarse_probes, 0u);
  EXPECT_EQ(r.stats.communities_pruned, 0u);
  for (core::HoldId h : r.best_holds) s->alloc->release_hold(h);
}

}  // namespace
}  // namespace spider::overlay
