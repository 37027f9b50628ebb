// Equivalence oracle for the shared-prefix probe representation: running
// the same request stream with debug_clone_prefixes on (every spawn
// deep-copies the prefix chain, the old representation's cost model) and
// off (children share the parent's chain by reference) must produce
// identical results — same compositions, same ComposeStats field for
// field, same metrics snapshot — with and without link loss. Only the
// arena's allocation totals may differ: cloning allocates one fresh chain
// per child instead of one segment.
#include <gtest/gtest.h>

#include "core/bcp.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "test_scenario.hpp"

namespace spider::core {
namespace {

struct RunOutput {
  std::vector<ComposeResult> results;
  obs::MetricsRegistry metrics;
  ProbeArenaTotals arena;
};

// Fig-8-style stream: a fresh scenario per run (identical by seed), a
// handful of sampled requests, holds released between composes.
RunOutput run_stream(bool clone_prefixes, double loss) {
  RunOutput out;
  auto s = spider::testing::small_scenario(/*seed=*/77, /*peers=*/48);
  BcpConfig config;
  config.debug_clone_prefixes = clone_prefixes;
  BcpEngine engine(*s->deployment, *s->alloc, *s->evaluator, s->sim, config);
  engine.set_observability(&out.metrics, nullptr);
  const fault::LinkFaultModel faults = fault::LinkFaultModel::uniform_loss(loss);
  if (loss > 0.0) engine.set_fault_model(&faults);

  workload::RequestProfile profile;
  profile.dag_probability = 0.5;
  s->rng.reseed(1234);
  for (int i = 0; i < 8; ++i) {
    auto gen = workload::sample_request(*s, profile);
    ComposeResult r = engine.compose(gen.request, s->rng);
    for (HoldId h : r.best_holds) s->alloc->release_hold(h);
    out.results.push_back(std::move(r));
  }
  out.arena = engine.arena_totals();
  return out;
}

void expect_equal(const RunOutput& shared, const RunOutput& cloned) {
  ASSERT_EQ(shared.results.size(), cloned.results.size());
  for (std::size_t i = 0; i < shared.results.size(); ++i) {
    const ComposeResult& a = shared.results[i];
    const ComposeResult& b = cloned.results[i];
    EXPECT_EQ(a.success, b.success) << "request " << i;
    if (a.success && b.success) {
      EXPECT_TRUE(a.best.same_mapping(b.best)) << "request " << i;
      EXPECT_NEAR(a.best.psi_cost, b.best.psi_cost, 1e-12) << "request " << i;
      EXPECT_EQ(a.best_holds.size(), b.best_holds.size()) << "request " << i;
    }
    ASSERT_EQ(a.backups.size(), b.backups.size()) << "request " << i;
    for (std::size_t k = 0; k < a.backups.size(); ++k) {
      EXPECT_TRUE(a.backups[k].same_mapping(b.backups[k]))
          << "request " << i << " backup " << k;
    }
    // Every field, the copy/sharing accounting included: both modes report
    // the spawn-time copies the *shared* layout performs, so the counters
    // stay comparable across configurations.
    EXPECT_EQ(a.stats, b.stats) << "request " << i;
  }

  // Metrics snapshots agree instrument for instrument, bucket for bucket.
  EXPECT_EQ(shared.metrics.to_json(), cloned.metrics.to_json());

  // Sharing is doing its job: strictly fewer segment allocations than the
  // clone-everything oracle, identical peak-or-lower footprint.
  EXPECT_LT(shared.arena.segments_allocated, cloned.arena.segments_allocated);
  EXPECT_LE(shared.arena.peak_live_segments, cloned.arena.peak_live_segments);
}

class PrefixSharingEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(PrefixSharingEquivalence, SharedMatchesCloneOracle) {
  const double loss = GetParam();
  expect_equal(run_stream(false, loss), run_stream(true, loss));
}

INSTANTIATE_TEST_SUITE_P(Loss, PrefixSharingEquivalence,
                         ::testing::Values(0.0, 0.2));

}  // namespace
}  // namespace spider::core
