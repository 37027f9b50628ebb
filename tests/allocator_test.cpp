// Tests for the allocation manager: soft holds, expiry, confirmation into
// session grants, all-or-nothing path reservations, direct grants.
#include <gtest/gtest.h>

#include "core/allocator.hpp"
#include "net/generator.hpp"
#include "net/router.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace spider::core {
namespace {

using service::Resources;

class AllocatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(21);
    topo_ = std::make_unique<net::Topology>(net::power_law(120, 2, rng));
    router_ = std::make_unique<net::Router>(*topo_);
    std::vector<net::NodeIdx> nodes;
    for (std::size_t idx : rng.sample_indices(120, 16)) {
      nodes.push_back(net::NodeIdx(idx));
    }
    auto ov = overlay::OverlayNetwork::from_topology(
        *topo_, *router_, std::move(nodes),
        overlay::OverlayKind::kNearestMesh, 3, rng);
    deployment_ = std::make_unique<Deployment>(std::move(ov), 1, 8, 3);
    for (PeerId p = 0; p < deployment_->peer_count(); ++p) {
      deployment_->set_capacity(p, Resources::cpu_mem(10, 10));
    }
    alloc_ = std::make_unique<AllocationManager>(*deployment_, sim_);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<net::Router> router_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<AllocationManager> alloc_;
};

TEST_F(AllocatorTest, SoftReserveReducesAvailability) {
  EXPECT_DOUBLE_EQ(alloc_->peer_available(0).cpu(), 10.0);
  auto hold = alloc_->soft_reserve_peer(0, Resources::cpu_mem(4, 2), 100.0);
  ASSERT_TRUE(hold.has_value());
  EXPECT_DOUBLE_EQ(alloc_->peer_available(0).cpu(), 6.0);
  EXPECT_DOUBLE_EQ(alloc_->peer_available(0).memory(), 8.0);
}

TEST_F(AllocatorTest, OverbookingRejected) {
  ASSERT_TRUE(alloc_->soft_reserve_peer(0, Resources::cpu_mem(8, 8), 100.0));
  EXPECT_FALSE(
      alloc_->soft_reserve_peer(0, Resources::cpu_mem(4, 1), 100.0).has_value());
  // A fitting request still succeeds.
  EXPECT_TRUE(
      alloc_->soft_reserve_peer(0, Resources::cpu_mem(2, 2), 100.0).has_value());
}

TEST_F(AllocatorTest, HoldsExpireLazily) {
  auto hold = alloc_->soft_reserve_peer(0, Resources::cpu_mem(10, 10), 50.0);
  ASSERT_TRUE(hold.has_value());
  EXPECT_DOUBLE_EQ(alloc_->peer_available(0).cpu(), 0.0);
  // Advance virtual time past the expiry: availability is restored on the
  // next query (lazy purge).
  sim_.schedule_at(60.0, [] {});
  sim_.run();
  EXPECT_DOUBLE_EQ(alloc_->peer_available(0).cpu(), 10.0);
  // Confirming the expired hold must fail.
  EXPECT_FALSE(alloc_->confirm(*hold, alloc_->new_session_id()));
}

TEST_F(AllocatorTest, ConfirmConvertsToGrant) {
  auto hold = alloc_->soft_reserve_peer(2, Resources::cpu_mem(5, 5), 100.0);
  ASSERT_TRUE(hold.has_value());
  const SessionId session = alloc_->new_session_id();
  EXPECT_TRUE(alloc_->confirm(*hold, session));
  // Still reserved, now as a grant — and it survives the soft expiry time.
  sim_.schedule_at(200.0, [] {});
  sim_.run();
  EXPECT_DOUBLE_EQ(alloc_->peer_available(2).cpu(), 5.0);
  alloc_->release_session(session);
  EXPECT_DOUBLE_EQ(alloc_->peer_available(2).cpu(), 10.0);
}

TEST_F(AllocatorTest, ReleaseHoldRestoresImmediately) {
  auto hold = alloc_->soft_reserve_peer(1, Resources::cpu_mem(9, 9), 100.0);
  ASSERT_TRUE(hold.has_value());
  alloc_->release_hold(*hold);
  EXPECT_DOUBLE_EQ(alloc_->peer_available(1).cpu(), 10.0);
  // Double release is harmless; confirm after release fails.
  alloc_->release_hold(*hold);
  EXPECT_FALSE(alloc_->confirm(*hold, alloc_->new_session_id()));
}

TEST_F(AllocatorTest, PathReservationIsAllOrNothing) {
  auto& ov = deployment_->overlay();
  const overlay::OverlayPath path = *ov.route(0, 9);
  ASSERT_TRUE(path.valid);
  ASSERT_FALSE(path.links.empty());
  const double cap = alloc_->path_available_kbps(path);
  ASSERT_GT(cap, 0.0);

  auto h1 = alloc_->soft_reserve_path(path, cap * 0.7, 100.0);
  ASSERT_TRUE(h1.has_value());
  // Second reservation of 70% cannot fit on the bottleneck link.
  EXPECT_FALSE(alloc_->soft_reserve_path(path, cap * 0.7, 100.0).has_value());
  // And nothing was partially reserved by the failed attempt.
  EXPECT_NEAR(alloc_->path_available_kbps(path), cap * 0.3, 1e-6);
}

TEST_F(AllocatorTest, PathConfirmAndRelease) {
  auto& ov = deployment_->overlay();
  const overlay::OverlayPath path = *ov.route(1, 8);
  ASSERT_TRUE(path.valid);
  const double before = alloc_->path_available_kbps(path);
  auto hold = alloc_->soft_reserve_path(path, 100.0, 100.0);
  ASSERT_TRUE(hold.has_value());
  const SessionId session = alloc_->new_session_id();
  EXPECT_TRUE(alloc_->confirm(*hold, session));
  EXPECT_NEAR(alloc_->path_available_kbps(path), before - 100.0, 1e-6);
  alloc_->release_session(session);
  EXPECT_NEAR(alloc_->path_available_kbps(path), before, 1e-6);
}

TEST_F(AllocatorTest, ConfirmAllIsAllOrNothing) {
  // The second hold is gone before confirm: the first must not stay
  // granted, and the third must not stay held.
  const overlay::OverlayPath path = *deployment_->overlay().route(1, 8);
  ASSERT_TRUE(path.valid);
  const double path_before = alloc_->path_available_kbps(path);
  auto first = alloc_->soft_reserve_peer(2, Resources::cpu_mem(4, 4), 100.0);
  auto second = alloc_->soft_reserve_path(path, 100.0, 100.0);
  auto third = alloc_->soft_reserve_peer(3, Resources::cpu_mem(4, 4), 100.0);
  ASSERT_TRUE(first && second && third);
  alloc_->release_hold(*second);

  const SessionId session = alloc_->new_session_id();
  EXPECT_FALSE(alloc_->confirm_all({*first, *second, *third}, session));
  EXPECT_EQ(alloc_->active_grants(), 0u);
  EXPECT_EQ(alloc_->active_holds(), 0u);
  EXPECT_EQ(alloc_->session_grant_totals(session).grant_count, 0u);
  EXPECT_DOUBLE_EQ(alloc_->peer_available(2).cpu(), 10.0);
  EXPECT_DOUBLE_EQ(alloc_->peer_available(3).cpu(), 10.0);
  EXPECT_NEAR(alloc_->path_available_kbps(path), path_before, 1e-6);

  // With every hold live, the same call grants them all.
  auto a = alloc_->soft_reserve_peer(2, Resources::cpu_mem(4, 4), 100.0);
  auto b = alloc_->soft_reserve_path(path, 100.0, 100.0);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(alloc_->confirm_all({*a, *b}, session));
  EXPECT_EQ(alloc_->session_grant_totals(session).grant_count, 2u);
  EXPECT_EQ(alloc_->active_holds(), 0u);
  alloc_->release_session(session);
}

/// Demand of a graph whose two components both sit on peer 0.
service::GraphDemand two_on_peer_zero(double cpu_each) {
  service::ServiceGraph graph;
  graph.mapping.resize(2);
  for (auto& meta : graph.mapping) {
    meta.host = 0;
    meta.required = Resources::cpu_mem(cpu_each, 1);
  }
  return service::GraphDemand(graph, 0.0);
}

TEST_F(AllocatorTest, GrantDirectAggregatesDuplicates) {
  const SessionId session = alloc_->new_session_id();
  // Two components on the same peer demanding 6+6 > 10 must be rejected
  // as a unit.
  EXPECT_FALSE(alloc_->grant_direct(session, two_on_peer_zero(6)));
  EXPECT_DOUBLE_EQ(alloc_->peer_available(0).cpu(), 10.0);
  // 4+4 fits.
  EXPECT_TRUE(alloc_->grant_direct(session, two_on_peer_zero(4)));
  EXPECT_DOUBLE_EQ(alloc_->peer_available(0).cpu(), 2.0);
  alloc_->release_session(session);
  EXPECT_DOUBLE_EQ(alloc_->peer_available(0).cpu(), 10.0);
}

TEST_F(AllocatorTest, ConcurrentProbesCannotJointlyOveradmit) {
  // The soft-allocation property from §4.2 step 2.1: two concurrent
  // probes reserving on the same peer see each other's holds.
  auto h1 = alloc_->soft_reserve_peer(3, Resources::cpu_mem(6, 6), 100.0);
  auto h2 = alloc_->soft_reserve_peer(3, Resources::cpu_mem(6, 6), 100.0);
  EXPECT_TRUE(h1.has_value());
  EXPECT_FALSE(h2.has_value());
}

TEST_F(AllocatorTest, ActiveCountsTrackState) {
  EXPECT_EQ(alloc_->active_holds(), 0u);
  auto hold = alloc_->soft_reserve_peer(0, Resources::cpu_mem(1, 1), 100.0);
  EXPECT_EQ(alloc_->active_holds(), 1u);
  const SessionId session = alloc_->new_session_id();
  alloc_->confirm(*hold, session);
  EXPECT_EQ(alloc_->active_holds(), 0u);
  EXPECT_EQ(alloc_->active_grants(), 1u);
  alloc_->release_session(session);
  EXPECT_EQ(alloc_->active_grants(), 0u);
}

// ---- complete-purge / gauge agreement (regression) ----------------------

// A route with at least `min_links` overlay links, for multi-link path
// holds. The 16-peer mesh always has non-adjacent pairs.
static overlay::OverlayPath multi_link_route(Deployment& deployment,
                                             std::size_t min_links) {
  for (PeerId a = 0; a < deployment.peer_count(); ++a) {
    for (PeerId b = 0; b < deployment.peer_count(); ++b) {
      if (a == b) continue;
      const overlay::OverlayPathRef path = deployment.overlay().route(a, b);
      if (path->valid && path->links.size() >= min_links) return *path;
    }
  }
  SPIDER_REQUIRE_MSG(false, "no multi-link route in test overlay");
  return {};
}

TEST_F(AllocatorTest, ExpiredPathHoldIsPurgedFromEveryLink) {
  // Regression: an expired multi-link path hold noticed via ONE of its
  // links used to leave dangling soft entries on the other links (and an
  // inflated outstanding-hold gauge) until something touched them too.
  const overlay::OverlayPath path = multi_link_route(*deployment_, 2);
  ASSERT_TRUE(alloc_->soft_reserve_path(path, 5.0, /*expire_at=*/50.0));
  EXPECT_EQ(alloc_->dangling_soft_entries(), 0u);

  sim_.schedule_at(100.0, [] {});
  sim_.run();

  // Touch availability through the FIRST link only.
  alloc_->link_available_kbps(path.links.front());
  EXPECT_EQ(alloc_->active_holds(), 0u);
  EXPECT_EQ(alloc_->dangling_soft_entries(), 0u)
      << "purge must remove the hold from every link's soft map";
}

TEST_F(AllocatorTest, SweepMakesGaugeAgreeWithAvailability) {
  obs::MetricsRegistry metrics;
  alloc_->set_metrics(&metrics);
  ASSERT_TRUE(alloc_->soft_reserve_peer(0, Resources::cpu_mem(2, 2), 50.0));
  ASSERT_TRUE(alloc_->soft_reserve_peer(1, Resources::cpu_mem(2, 2), 50.0));
  const overlay::OverlayPath path = multi_link_route(*deployment_, 2);
  ASSERT_TRUE(alloc_->soft_reserve_path(path, 5.0, 50.0));
  EXPECT_DOUBLE_EQ(metrics.gauge("alloc.holds_outstanding").value(), 3.0);

  sim_.schedule_at(100.0, [] {});
  sim_.run();

  // Nothing has been queried since expiry: the sweep alone must bring
  // the gauge, the hold table and availability into agreement.
  alloc_->sweep_expired();
  EXPECT_EQ(alloc_->active_holds(), 0u);
  EXPECT_EQ(alloc_->dangling_soft_entries(), 0u);
  EXPECT_DOUBLE_EQ(metrics.gauge("alloc.holds_outstanding").value(), 0.0);
  EXPECT_DOUBLE_EQ(alloc_->peer_available(0).cpu(), 10.0);
  EXPECT_DOUBLE_EQ(alloc_->peer_available(1).cpu(), 10.0);
  EXPECT_EQ(metrics.counters().at("alloc.holds_expired").value(), 3u);
}

// ---- session-grant leases ----------------------------------------------

TEST_F(AllocatorTest, LeaseTtlZeroTracksNothing) {
  auto hold = alloc_->soft_reserve_peer(0, Resources::cpu_mem(4, 4), 100.0);
  const SessionId session = alloc_->new_session_id();
  ASSERT_TRUE(alloc_->confirm(*hold, session));
  EXPECT_FALSE(alloc_->lease_renew_by(session).has_value());
  alloc_->renew_session(session);
  EXPECT_EQ(alloc_->lease_renewals(), 0u);
  sim_.schedule_at(10000.0, [] {});
  sim_.run();
  EXPECT_EQ(alloc_->reclaim_expired_leases(), 0u);
  EXPECT_EQ(alloc_->active_grants(), 1u) << "ttl=0 grants are permanent";
}

TEST_F(AllocatorTest, ExpiredLeaseIsReclaimedIntoAvailability) {
  alloc_->set_lease_ttl_ms(100.0);
  auto hold = alloc_->soft_reserve_peer(0, Resources::cpu_mem(4, 4), 100.0);
  const overlay::OverlayPath path = multi_link_route(*deployment_, 2);
  auto bw = alloc_->soft_reserve_path(path, 5.0, 100.0);
  const SessionId session = alloc_->new_session_id();
  ASSERT_TRUE(alloc_->confirm(*hold, session));
  ASSERT_TRUE(alloc_->confirm(*bw, session));
  ASSERT_TRUE(alloc_->lease_renew_by(session).has_value());
  EXPECT_DOUBLE_EQ(*alloc_->lease_renew_by(session), 100.0);

  sim_.schedule_at(250.0, [] {});
  sim_.run();
  EXPECT_EQ(alloc_->reclaim_expired_leases(), 1u);
  EXPECT_EQ(alloc_->active_grants(), 0u);
  EXPECT_DOUBLE_EQ(alloc_->peer_available(0).cpu(), 10.0);
  EXPECT_EQ(alloc_->lease_expirations(), 1u);
  EXPECT_DOUBLE_EQ(alloc_->lease_reclaimed_kbps(),
                   5.0 * double(path.links.size()));
}

TEST_F(AllocatorTest, RenewalPushesLeaseDeadlineForward) {
  alloc_->set_lease_ttl_ms(100.0);
  auto hold = alloc_->soft_reserve_peer(0, Resources::cpu_mem(4, 4), 100.0);
  const SessionId session = alloc_->new_session_id();
  ASSERT_TRUE(alloc_->confirm(*hold, session));

  sim_.schedule_at(80.0, [] {});
  sim_.run();
  alloc_->renew_session(session);
  EXPECT_EQ(alloc_->lease_renewals(), 1u);
  EXPECT_DOUBLE_EQ(*alloc_->lease_renew_by(session), 180.0);

  sim_.schedule_at(150.0, [] {});
  sim_.run();
  EXPECT_EQ(alloc_->reclaim_expired_leases(), 0u)
      << "a renewed lease survives past its original deadline";
  EXPECT_EQ(alloc_->active_grants(), 1u);

  sim_.schedule_at(300.0, [] {});
  sim_.run();
  EXPECT_EQ(alloc_->reclaim_expired_leases(), 1u);
  EXPECT_EQ(alloc_->active_grants(), 0u);
}

TEST_F(AllocatorTest, SessionGrantTotalsAggregate) {
  auto hold = alloc_->soft_reserve_peer(0, Resources::cpu_mem(4, 3), 100.0);
  const overlay::OverlayPath path = multi_link_route(*deployment_, 2);
  auto bw = alloc_->soft_reserve_path(path, 5.0, 100.0);
  const SessionId session = alloc_->new_session_id();
  ASSERT_TRUE(alloc_->confirm(*hold, session));
  ASSERT_TRUE(alloc_->confirm(*bw, session));

  const auto sessions = alloc_->granted_sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions.front(), session);
  const auto totals = alloc_->session_grant_totals(session);
  EXPECT_EQ(totals.grant_count, 2u);
  EXPECT_DOUBLE_EQ(totals.peer_total.cpu(), 4.0);
  EXPECT_DOUBLE_EQ(totals.peer_total.memory(), 3.0);
  EXPECT_DOUBLE_EQ(totals.link_kbps_total, 5.0 * double(path.links.size()));
}

}  // namespace
}  // namespace spider::core
