// Weighted admission classes + adaptive (AIMD) admission controller
// (DESIGN.md §5j): single-class bit-compat with the legacy FIFO gate,
// deficit-weighted dequeue order, starvation accounting, the controller
// law with its floor/ceiling clamps, and the churn-proof capacity
// snapshot behind grant_utilization(). The property half runs the full
// open loop under loss-free but churning worlds across seeds × weight
// configurations and checks per-class conservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <ostream>
#include <vector>

#include "core/bcp.hpp"
#include "core/session.hpp"
#include "test_scenario.hpp"
#include "workload/traffic.hpp"

namespace spider::core {
namespace {

using Decision = AllocationManager::AdmissionDecision;

AllocationManager::AdmissionConfig two_classes(double w0, double w1,
                                               std::size_t cap = 32,
                                               double high_water = 0.0) {
  AllocationManager::AdmissionConfig config;
  config.high_water_utilization = high_water;
  config.classes = {{w0, cap}, {w1, cap}};
  return config;
}

/// Queues `per_class` entries into every class behind a closed gate, then
/// re-arms the same class layout with an open gate (re-arming with an
/// unchanged class count keeps the queue depths).
void fill_then_open(AllocationManager& alloc,
                    AllocationManager::AdmissionConfig config,
                    std::size_t per_class) {
  alloc.set_admission(config);
  ASSERT_FALSE(alloc.admission_open());
  const std::size_t n = alloc.admission_class_count();
  for (std::size_t i = 0; i < per_class; ++i) {
    for (std::size_t cls = 0; cls < n; ++cls) {
      ASSERT_EQ(alloc.admit_setup(cls), Decision::kQueue);
    }
  }
  config.high_water_utilization = 1.0;
  alloc.set_admission(config);
  ASSERT_TRUE(alloc.admission_open());
}

/// Serves queue entries through admission_next_class() until every queue
/// is empty, returning the class ids in serve order.
std::vector<std::size_t> drain_order(AllocationManager& alloc) {
  std::vector<std::size_t> order;
  while (auto cls = alloc.admission_next_class()) {
    EXPECT_GT(alloc.admission_queue_depth(*cls), 0u);
    alloc.admission_dequeued(0.0, *cls);
    order.push_back(*cls);
  }
  return order;
}

TEST(AdmissionClassTest, SingleClassConfigMatchesLegacyFifo) {
  auto legacy_world = spider::testing::small_scenario(3);
  auto classy_world = spider::testing::small_scenario(3);
  auto& legacy = *legacy_world->alloc;
  auto& classy = *classy_world->alloc;

  AllocationManager::AdmissionConfig config;
  config.high_water_utilization = 0.0;
  config.queue_capacity = 2;
  legacy.set_admission(config);
  AllocationManager::AdmissionConfig explicit_one;
  explicit_one.high_water_utilization = 0.0;
  explicit_one.classes = {{1.0, 2}};
  classy.set_admission(explicit_one);

  // Identical decision streams and counters.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(legacy.admit_setup(), classy.admit_setup(0));
  }
  EXPECT_EQ(legacy.admission_queued(), classy.admission_queued());
  EXPECT_EQ(legacy.admission_rejects(), classy.admission_rejects());
  EXPECT_EQ(legacy.admission_queue_depth(), classy.admission_queue_depth());
  // One class short-circuits to plain FIFO: class 0 regardless of gate
  // history, no deficit bookkeeping, no skips.
  config.high_water_utilization = 1.0;
  legacy.set_admission(config);
  explicit_one.high_water_utilization = 1.0;
  classy.set_admission(explicit_one);
  while (auto cls = classy.admission_next_class()) {
    EXPECT_EQ(*cls, 0u);
    classy.admission_dequeued(0.0, *cls);
    legacy.admission_dequeued(0.0);
  }
  EXPECT_EQ(classy.admission_queue_depth(), 0u);
  EXPECT_EQ(classy.admission_class_skips(0), 0u);
}

TEST(AdmissionClassTest, DeficitRoundRobinFollowsWeights) {
  auto s = spider::testing::small_scenario(5);
  auto& alloc = *s->alloc;
  fill_then_open(alloc, two_classes(3.0, 1.0), 12);

  const std::vector<std::size_t> order = drain_order(alloc);
  ASSERT_EQ(order.size(), 24u);
  // Weight 3 vs 1 with both classes backlogged serves in bursts:
  // 3× class 0, then 1× class 1, repeating.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(order[i], (i % 4 == 3) ? 1u : 0u) << "position " << i;
  }
  // Totals over the first 16 serves split exactly 3:1.
  EXPECT_EQ(std::count(order.begin(), order.begin() + 16, 0u), 12);
  // Class 0's backlog is exhausted after its 12; the tail is all class 1.
  for (std::size_t i = 16; i < 24; ++i) EXPECT_EQ(order[i], 1u);
  EXPECT_EQ(alloc.admission_queue_depth(0), 0u);
  EXPECT_EQ(alloc.admission_queue_depth(1), 0u);
}

TEST(AdmissionClassTest, FractionalWeightWaitsButIsNeverStarved) {
  auto s = spider::testing::small_scenario(7);
  auto& alloc = *s->alloc;
  // Strict-priority-ish degenerate config: the bulk class earns a quarter
  // credit per round, so it is served once per four gold serves — and the
  // rounds it sat backlogged without credit are counted as skips.
  fill_then_open(alloc, two_classes(1.0, 0.25), 20);

  const std::vector<std::size_t> order = drain_order(alloc);
  ASSERT_EQ(order.size(), 40u);
  std::size_t bulk_in_first_20 = 0;
  for (std::size_t i = 0; i < 20; ++i) bulk_in_first_20 += order[i] == 1;
  EXPECT_EQ(bulk_in_first_20, 4u);  // 1 per 1/0.25 rounds
  EXPECT_GT(alloc.admission_class_skips(1), 0u);
  EXPECT_EQ(alloc.admission_class_skips(0), 0u);
  // Eventually everything is served: no starvation under any positive
  // weight.
  EXPECT_EQ(alloc.admission_queue_depth(0), 0u);
  EXPECT_EQ(alloc.admission_queue_depth(1), 0u);
}

TEST(AdmissionClassTest, ClosedGateNeverDequeues) {
  auto s = spider::testing::small_scenario(9);
  auto& alloc = *s->alloc;
  alloc.set_admission(two_classes(2.0, 1.0));
  ASSERT_EQ(alloc.admit_setup(0), Decision::kQueue);
  ASSERT_EQ(alloc.admit_setup(1), Decision::kQueue);
  // high_water 0: the gate is closed, so nothing may be served no matter
  // how much is queued; timeouts still go through admission_dequeued.
  EXPECT_FALSE(alloc.admission_open());
  EXPECT_FALSE(alloc.admission_next_class().has_value());
  alloc.admission_dequeued(10.0, 0);
  alloc.admission_dequeued(10.0, 1);
  EXPECT_EQ(alloc.admission_queue_depth(), 0u);
  EXPECT_FALSE(alloc.admission_next_class().has_value());  // empty now
}

TEST(AdmissionClassTest, PerClassQueueCapacityIsIndependent) {
  auto s = spider::testing::small_scenario(11);
  auto& alloc = *s->alloc;
  AllocationManager::AdmissionConfig config;
  config.high_water_utilization = 0.0;
  config.classes = {{1.0, 2}, {1.0, 1}};
  alloc.set_admission(config);
  EXPECT_EQ(alloc.admit_setup(1), Decision::kQueue);
  EXPECT_EQ(alloc.admit_setup(1), Decision::kReject);  // class 1 is full
  EXPECT_EQ(alloc.admit_setup(0), Decision::kQueue);   // class 0 is not
  EXPECT_EQ(alloc.admit_setup(0), Decision::kQueue);
  EXPECT_EQ(alloc.admit_setup(0), Decision::kReject);
  EXPECT_EQ(alloc.admission_class_rejects(0), 1u);
  EXPECT_EQ(alloc.admission_class_rejects(1), 1u);
  EXPECT_EQ(alloc.admission_class_queued(0), 2u);
  EXPECT_EQ(alloc.admission_class_queued(1), 1u);
}

TEST(AdmissionControllerTest, AimdLawWithClamps) {
  auto s = spider::testing::small_scenario(13);
  auto& alloc = *s->alloc;
  AllocationManager::AdmissionConfig config;
  config.high_water_utilization = 0.5;
  config.queue_capacity = 4;
  config.adaptive = true;
  config.target_setup_ms = 100.0;
  config.target_failure_rate = 0.5;
  config.increase_step = 0.05;
  config.decrease_factor = 0.5;
  config.mark_floor = 0.2;
  config.mark_ceiling = 0.6;
  alloc.set_admission(config);
  EXPECT_DOUBLE_EQ(alloc.admission_mark(), 0.5);

  // An empty window holds the mark: no information, no movement.
  alloc.admission_controller_tick();
  EXPECT_DOUBLE_EQ(alloc.admission_mark(), 0.5);

  // Failure-rate breach: multiplicative decrease.
  alloc.admission_observe_setup(false, 0.0);
  alloc.admission_observe_setup(false, 0.0);
  alloc.admission_observe_setup(true, 50.0);
  alloc.admission_controller_tick();
  EXPECT_DOUBLE_EQ(alloc.admission_mark(), 0.25);

  // Another breach clamps at the floor (0.25 * 0.5 < 0.2).
  alloc.admission_observe_setup(false, 0.0);
  alloc.admission_controller_tick();
  EXPECT_DOUBLE_EQ(alloc.admission_mark(), 0.2);

  // Calm windows recover additively...
  for (int i = 0; i < 7; ++i) {
    alloc.admission_observe_setup(true, 50.0);
    alloc.admission_controller_tick();
  }
  EXPECT_DOUBLE_EQ(alloc.admission_mark(), 0.55);
  // ...and clamp at the ceiling.
  for (int i = 0; i < 3; ++i) {
    alloc.admission_observe_setup(true, 50.0);
    alloc.admission_controller_tick();
  }
  EXPECT_DOUBLE_EQ(alloc.admission_mark(), 0.6);

  // Latency breach (mean 150 > 100) triggers the same decrease even with
  // zero failures.
  alloc.admission_observe_setup(true, 150.0);
  alloc.admission_observe_setup(true, 150.0);
  alloc.admission_controller_tick();
  EXPECT_DOUBLE_EQ(alloc.admission_mark(), 0.3);
}

TEST(AdmissionControllerTest, StaticGateIgnoresTicks) {
  auto s = spider::testing::small_scenario(15);
  auto& alloc = *s->alloc;
  AllocationManager::AdmissionConfig config;
  config.high_water_utilization = 0.4;
  config.queue_capacity = 4;
  alloc.set_admission(config);
  alloc.admission_observe_setup(false, 0.0);
  alloc.admission_observe_setup(true, 1e6);
  alloc.admission_controller_tick();
  EXPECT_DOUBLE_EQ(alloc.admission_mark(), 0.4);
}

TEST(AdmissionCapacityTest, GrantUtilizationTracksChurnWithoutRearming) {
  auto s = spider::testing::small_scenario(17);
  auto& alloc = *s->alloc;
  auto& deployment = *s->deployment;
  AllocationManager::AdmissionConfig config;
  config.high_water_utilization = 0.9;
  config.queue_capacity = 4;
  alloc.set_admission(config);

  // Grant one session 10 cpu directly on peer 0.
  const SessionId session = alloc.new_session_id();
  service::GraphDemand demand;
  demand.peers.emplace(0, service::Resources::cpu_mem(10.0, 0.0));
  ASSERT_TRUE(alloc.grant_direct(session, demand));
  const double util_full = alloc.grant_utilization();
  ASSERT_GT(util_full, 0.0);

  // Kill half the peers (not peer 0): live capacity halves, so the same
  // grants utilize twice the fraction — with no set_admission() re-arm.
  const std::size_t n = deployment.peer_count();
  for (PeerId p = 1; p <= n / 2; ++p) deployment.kill_peer(p);
  const double expected_cap_fraction =
      double(n - n / 2) / double(n);
  EXPECT_NEAR(alloc.grant_utilization(), util_full / expected_cap_fraction,
              1e-12);

  // Revival restores the denominator, again lazily.
  for (PeerId p = 1; p <= n / 2; ++p) deployment.revive_peer(p);
  EXPECT_NEAR(alloc.grant_utilization(), util_full, 1e-12);
  alloc.release_session(session);
  EXPECT_DOUBLE_EQ(alloc.grant_utilization(), 0.0);
}

// ---------------------------------------------------------------------------
// Property: per-class conservation through the full open loop under churn
// ---------------------------------------------------------------------------

struct PropertyParams {
  std::uint64_t seed;
  double w0, w1;
  bool retry;
};

// Names each case in test listings (e.g. `seed3_w2-1_retry`); gtest's
// default would dump the raw bytes, padding included, which change from
// build to build.
void PrintTo(const PropertyParams& p, std::ostream* os) {
  *os << "seed" << p.seed << "_w" << p.w0 << "-" << p.w1
      << (p.retry ? "_retry" : "_noretry");
}

class AdmissionClassProperty
    : public ::testing::TestWithParam<PropertyParams> {};

// The conservation check below walks kTrafficCounters, so the table must
// name every TrafficCounts field exactly once.
constexpr bool one_row_per_traffic_counter() {
  constexpr std::size_t rows = std::size(workload::kTrafficCounters);
  if (rows * sizeof(std::uint64_t) != sizeof(workload::TrafficCounts)) {
    return false;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (workload::kTrafficCounters[i].field ==
          workload::kTrafficCounters[j].field) {
        return false;
      }
    }
  }
  return true;
}
static_assert(one_row_per_traffic_counter());

TEST_P(AdmissionClassProperty, PerClassArithmeticHoldsUnderChurn) {
  const PropertyParams param = GetParam();
  auto s = spider::testing::small_scenario(param.seed);
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim);
  core::SessionManager manager(*s->deployment, *s->alloc, *s->evaluator, bcp,
                               s->sim);
  s->alloc->set_lease_ttl_ms(3000.0);

  AllocationManager::AdmissionConfig admission;
  admission.high_water_utilization = 0.08;  // saturates at 20 Hz offered
  admission.classes = {{param.w0, 8}, {param.w1, 4}};
  s->alloc->set_admission(admission);

  workload::TrafficDriver::Config config;
  config.schedule = workload::PhaseSchedule(
      {{"up", 3000.0, 10.0, 20.0}, {"steady", 5000.0, 20.0}});
  config.seed = param.seed;
  config.lifetime.kind = workload::SessionLifetime::Kind::kExponential;
  config.lifetime.mean_ms = 2000.0;
  config.maintenance_period_ms = 500.0;
  config.audit_period_ms = 2000.0;
  config.queue_timeout_ms = 1500.0;
  config.drain_ms = 6000.0;
  config.class_mix = {0.4, 0.6};
  if (param.retry) {
    config.retry.max_retries = 2;
    config.retry.base_backoff_ms = 400.0;
    config.retry.multiplier = 2.0;
    config.retry.max_backoff_ms = 1600.0;
  }
  // Deterministic kill/revive churn, exercising the lazy capacity
  // snapshot and recovery paths while the gate is saturated.
  Rng churn_rng(util::hash_values(param.seed, std::uint64_t(0xc1a0)));
  std::deque<std::pair<overlay::PeerId, std::size_t>> downed;
  config.on_maintenance_tick = [&](std::size_t tick) {
    while (!downed.empty() && downed.front().second <= tick) {
      s->deployment->revive_peer(downed.front().first);
      downed.pop_front();
    }
    if (tick % 4 != 0) return;
    std::vector<overlay::PeerId> live;
    for (overlay::PeerId p = 0; p < s->deployment->peer_count(); ++p) {
      if (s->deployment->peer_alive(p)) live.push_back(p);
    }
    if (live.size() < 8) return;
    const overlay::PeerId victim = live[churn_rng.next_below(live.size())];
    s->deployment->kill_peer(victim);
    manager.on_peer_failed(victim, s->rng);
    downed.emplace_back(victim, tick + 6);
  };

  workload::TrafficDriver driver(*s, bcp, manager, std::move(config));
  const workload::TrafficStats& stats = driver.run();

  // Zero-leak quiesce, including the retry machinery.
  EXPECT_EQ(s->alloc->active_grants(), 0u);
  EXPECT_EQ(s->alloc->active_holds(), 0u);
  EXPECT_EQ(s->alloc->admission_queue_depth(), 0u);
  EXPECT_EQ(stats.open_requests_at_quiesce, 0u);
  EXPECT_EQ(stats.retries_inflight_at_quiesce, 0u);
  EXPECT_TRUE(stats.final_audit.conserved);

  ASSERT_EQ(stats.classes.size(), 2u);
  std::uint64_t rejected = 0, timeouts = 0, retries = 0, gaveups = 0;
  for (std::size_t cls = 0; cls < 2; ++cls) {
    const workload::TrafficCounts& cs = stats.classes[cls];
    // Every queued entry reached exactly one outcome, per class.
    EXPECT_EQ(cs.queued, cs.queue_served + cs.queue_timeouts) << cls;
    // Every submission got exactly one decision.
    EXPECT_EQ(cs.arrivals + cs.retries,
              cs.admitted + cs.queued + cs.rejected)
        << cls;
    // Saturation hit both classes, yet neither was starved of service.
    EXPECT_GT(cs.queued, 0u) << cls;
    EXPECT_GT(cs.queue_served, 0u) << cls;
    EXPECT_GT(cs.established, 0u) << cls;
    rejected += cs.rejected;
    timeouts += cs.queue_timeouts;
    retries += cs.retries;
    gaveups += cs.retry_gaveups;
  }
  if (param.retry) {
    // Each reject/timeout either came back as a retry submission or gave
    // up (budget exhausted, or quiesce overtook the backoff timer).
    EXPECT_EQ(rejected + timeouts, retries + gaveups);
    EXPECT_GT(retries, 0u);
  } else {
    EXPECT_EQ(retries, 0u);
    EXPECT_EQ(gaveups, 0u);
  }
  // Phase totals agree with class totals for every counter (the same
  // events, sliced twice).
  for (const auto& row : workload::kTrafficCounters) {
    std::uint64_t by_phase = 0, by_class = 0;
    for (const workload::PhaseStats& ps : stats.phases) {
      by_phase += ps.*row.field;
    }
    for (const workload::TrafficCounts& cs : stats.classes) {
      by_class += cs.*row.field;
    }
    EXPECT_EQ(by_phase, by_class) << row.metric;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWeights, AdmissionClassProperty,
    ::testing::Values(PropertyParams{3, 2.0, 1.0, false},
                      PropertyParams{3, 2.0, 1.0, true},
                      PropertyParams{5, 1.0, 1.0, true},
                      PropertyParams{11, 5.0, 0.5, true},
                      PropertyParams{17, 0.5, 4.0, false}));

}  // namespace
}  // namespace spider::core
