// Property-based parameterized suites (TEST_P) asserting invariants over
// sweeps of sizes, seeds and configurations:
//   * routing: Dijkstra optimality sanity, triangle inequality, symmetry
//   * DHT: oracle-correct delivery across network sizes / leaf sizes /
//     churn fractions, logarithmic hop growth
//   * function graphs: pattern and branch invariants on random DAGs
//   * allocator: conservation under random hold/confirm/release sequences
//   * BCP: β-budget conservation bounds under tight budgets and loss;
//     hold hygiene, QoS soundness, budget monotonicity across seeds
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "core/bcp.hpp"
#include "dht/pastry.hpp"
#include "fault/fault.hpp"
#include "net/generator.hpp"
#include "net/router.hpp"
#include "test_scenario.hpp"
#include "workload/scenario.hpp"

namespace spider {
namespace {

// ---------------------------------------------------------------- routing

enum class Gen { kPowerLaw, kWaxman, kRandom };

// Names each case in test listings; gtest's default is a raw byte dump.
void PrintTo(Gen kind, std::ostream* os) {
  switch (kind) {
    case Gen::kPowerLaw: *os << "PowerLaw"; return;
    case Gen::kWaxman: *os << "Waxman"; return;
    case Gen::kRandom: *os << "Random"; return;
  }
}

class RoutingProperty
    : public ::testing::TestWithParam<std::tuple<Gen, std::size_t, int>> {};

net::Topology make_topology(Gen kind, std::size_t n, Rng& rng) {
  switch (kind) {
    case Gen::kPowerLaw: return net::power_law(n, 2, rng);
    case Gen::kWaxman: return net::waxman(n, 0.4, 0.2, rng);
    case Gen::kRandom: return net::random_graph(n, 2 * n, rng);
  }
  SPIDER_REQUIRE(false);
  __builtin_unreachable();
}

TEST_P(RoutingProperty, ShortestPathInvariants) {
  const auto [kind, n, seed] = GetParam();
  Rng rng{std::uint64_t(seed)};
  net::Topology topo = make_topology(kind, n, rng);
  ASSERT_TRUE(topo.connected());
  net::Router router(topo);

  const net::NodeIdx a = 0, b = net::NodeIdx(n / 2), c = net::NodeIdx(n - 1);
  const auto& from_a = router.from(a);
  // Symmetry of shortest-path delay on an undirected graph.
  EXPECT_NEAR(from_a.delay_to(c), router.from(c).delay_to(a), 1e-9);
  // Triangle inequality.
  EXPECT_LE(from_a.delay_to(c),
            from_a.delay_to(b) + router.from(b).delay_to(c) + 1e-9);
  // Path endpoints and delay consistency.
  for (net::NodeIdx dst : {b, c}) {
    const auto path = from_a.path_to(dst);
    ASSERT_GE(path.size(), 1u);
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), dst);
    // Path delay equals the tree's distance.
    double sum = 0.0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      // Find the connecting link.
      double best = -1.0;
      for (const auto& adj : topo.neighbors(path[i])) {
        if (adj.neighbor == path[i + 1]) {
          const double d = topo.link(adj.link).delay_ms;
          best = best < 0 ? d : std::min(best, d);
        }
      }
      ASSERT_GE(best, 0.0) << "path uses a non-existent link";
      sum += best;
    }
    EXPECT_NEAR(sum, from_a.delay_to(dst), 1e-6);
  }
  // No routed delay may beat a direct link.
  for (const auto& adj : topo.neighbors(a)) {
    EXPECT_LE(from_a.delay_to(adj.neighbor),
              topo.link(adj.link).delay_ms + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoutingProperty,
    ::testing::Combine(::testing::Values(Gen::kPowerLaw, Gen::kWaxman,
                                         Gen::kRandom),
                       ::testing::Values(std::size_t(50), std::size_t(200)),
                       ::testing::Values(1, 2, 3)));

// -------------------------------------------------------------------- DHT

class DhtProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, int, double>> {};

TEST_P(DhtProperty, OracleDeliveryUnderChurn) {
  const auto [n, leaf_size, churn] = GetParam();
  Rng rng(99);
  dht::PastryNetwork net(leaf_size, 3);
  net.bootstrap(0, dht::NodeId::random(rng));
  for (dht::PeerId p = 1; p < n; ++p) {
    net.join(p, dht::NodeId::random(rng), dht::PeerId(rng.next_below(p)));
  }
  // Fail a churn fraction of nodes abruptly, then run the periodic
  // leaf-set maintenance that Pastry's failure detection would trigger.
  const auto to_fail = std::size_t(double(n) * churn);
  for (std::size_t k = 0; k < to_fail; ++k) {
    dht::PeerId victim;
    do {
      victim = dht::PeerId(rng.next_below(n));
    } while (!net.alive(victim) || net.live_count() <= 2);
    net.fail(victim);
  }
  if (to_fail > 0) net.stabilize();
  // Every routed lookup must deliver to the live node numerically closest
  // to the key.
  std::uint64_t total_hops = 0;
  constexpr int kLookups = 120;
  for (int i = 0; i < kLookups; ++i) {
    dht::PeerId from;
    do {
      from = dht::PeerId(rng.next_below(n));
    } while (!net.alive(from));
    const dht::NodeId key = dht::NodeId::random(rng);
    const dht::RouteResult r = net.route(from, key);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.target(), net.owner_oracle(key));
    total_hops += r.hops();
  }
  // Hop count stays logarithmic-ish even under churn.
  EXPECT_LT(double(total_hops) / kLookups, 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DhtProperty,
    ::testing::Combine(::testing::Values(std::size_t(24), std::size_t(64),
                                         std::size_t(160)),
                       ::testing::Values(8, 16),
                       ::testing::Values(0.0, 0.1, 0.25)));

// -------------------------------------------------------- function graphs

class PatternProperty : public ::testing::TestWithParam<int> {};

service::FunctionGraph random_dag(Rng& rng) {
  service::FunctionGraph g;
  const std::size_t n = 3 + rng.next_below(4);  // 3..6 nodes
  for (std::size_t i = 0; i < n; ++i) {
    g.add_function(service::FunctionId(rng.next_below(n + 2)));
  }
  // Edges only forward in index order: guaranteed DAG, connected chain
  // backbone plus random extras.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    g.add_dependency(service::FnNode(i), service::FnNode(i + 1));
  }
  for (int extra = 0; extra < 2; ++extra) {
    const auto u = service::FnNode(rng.next_below(n - 1));
    const auto v = service::FnNode(u + 1 + rng.next_below(n - u - 1));
    bool duplicate = false;
    for (const auto& [a, b] : g.dependencies()) {
      if (a == u && b == v) duplicate = true;
    }
    if (!duplicate && v < n) g.add_dependency(u, v);
  }
  const std::size_t comms = rng.next_below(3);
  for (std::size_t i = 0; i < comms; ++i) {
    const auto u = service::FnNode(rng.next_below(n));
    auto v = service::FnNode(rng.next_below(n));
    if (u != v) g.add_commutation(u, v);
  }
  return g;
}

TEST_P(PatternProperty, PatternsAndBranchesInvariants) {
  Rng rng{std::uint64_t(GetParam())};
  for (int round = 0; round < 20; ++round) {
    service::FunctionGraph g = random_dag(rng);
    ASSERT_TRUE(g.is_dag());

    const auto patterns = g.patterns(32);
    ASSERT_GE(patterns.size(), 1u);
    EXPECT_EQ(patterns[0].signature(), g.signature())
        << "original graph must be pattern 0";
    std::multiset<service::FunctionId> base_fns;
    for (service::FnNode i = 0; i < g.node_count(); ++i) {
      base_fns.insert(g.function(i));
    }
    for (const auto& p : patterns) {
      EXPECT_TRUE(p.is_dag());
      EXPECT_EQ(p.node_count(), g.node_count());
      EXPECT_EQ(p.dependencies().size(), g.dependencies().size());
      std::multiset<service::FunctionId> fns;
      for (service::FnNode i = 0; i < p.node_count(); ++i) {
        fns.insert(p.function(i));
      }
      EXPECT_EQ(fns, base_fns) << "patterns permute, never change functions";

      // Branches: every branch starts at a source, ends at a sink, follows
      // dependency edges, and collectively covers every node.
      const auto sources = p.sources();
      const auto sinks = p.sinks();
      std::set<service::FnNode> covered;
      for (const auto& branch : p.branches()) {
        ASSERT_FALSE(branch.empty());
        EXPECT_TRUE(std::find(sources.begin(), sources.end(),
                              branch.front()) != sources.end());
        EXPECT_TRUE(std::find(sinks.begin(), sinks.end(), branch.back()) !=
                    sinks.end());
        for (std::size_t i = 0; i + 1 < branch.size(); ++i) {
          bool edge = false;
          for (const auto& [u, v] : p.dependencies()) {
            if (u == branch[i] && v == branch[i + 1]) edge = true;
          }
          EXPECT_TRUE(edge);
        }
        covered.insert(branch.begin(), branch.end());
      }
      EXPECT_EQ(covered.size(), p.node_count());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternProperty, ::testing::Values(1, 2, 3, 4, 5));

// --------------------------------------------------------------- allocator

class AllocatorProperty : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorProperty, ConservationUnderRandomOps) {
  Rng rng{std::uint64_t(GetParam())};
  auto s = spider::testing::small_scenario(std::uint64_t(GetParam()), 24, 8);
  auto& alloc = *s->alloc;
  const std::size_t peers = s->deployment->peer_count();

  std::vector<core::HoldId> live_holds;
  std::vector<core::SessionId> live_sessions;
  for (int op = 0; op < 600; ++op) {
    const auto dice = rng.next_below(4);
    if (dice == 0) {
      const auto peer = overlay::PeerId(rng.next_below(peers));
      auto hold = alloc.soft_reserve_peer(
          peer,
          service::Resources::cpu_mem(rng.next_double(0, 30),
                                      rng.next_double(0, 30)),
          1e12);
      if (hold.has_value()) live_holds.push_back(*hold);
    } else if (dice == 1 && !live_holds.empty()) {
      const auto idx = rng.next_below(live_holds.size());
      alloc.release_hold(live_holds[idx]);
      live_holds.erase(live_holds.begin() + long(idx));
    } else if (dice == 2 && !live_holds.empty()) {
      const auto idx = rng.next_below(live_holds.size());
      const core::SessionId session = alloc.new_session_id();
      if (alloc.confirm(live_holds[idx], session)) {
        live_sessions.push_back(session);
      }
      live_holds.erase(live_holds.begin() + long(idx));
    } else if (dice == 3 && !live_sessions.empty()) {
      const auto idx = rng.next_below(live_sessions.size());
      alloc.release_session(live_sessions[idx]);
      live_sessions.erase(live_sessions.begin() + long(idx));
    }
    // Invariant: availability never negative, never above capacity.
    for (overlay::PeerId p = 0; p < peers; ++p) {
      const auto avail = alloc.peer_available(p);
      const auto cap = s->deployment->capacity(p);
      EXPECT_TRUE(avail.non_negative()) << "peer " << p << " op " << op;
      EXPECT_LE(avail.cpu(), cap.cpu() + 1e-9);
      EXPECT_LE(avail.memory(), cap.memory() + 1e-9);
    }
  }
  // Releasing everything restores full capacity.
  for (core::HoldId h : live_holds) alloc.release_hold(h);
  for (core::SessionId sess : live_sessions) alloc.release_session(sess);
  for (overlay::PeerId p = 0; p < peers; ++p) {
    EXPECT_NEAR(alloc.peer_available(p).cpu(),
                s->deployment->capacity(p).cpu(), 1e-9);
    EXPECT_NEAR(alloc.peer_available(p).memory(),
                s->deployment->capacity(p).memory(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty, ::testing::Values(11, 22, 33));

// --------------------------------------------------- BCP budget conservation

// β conservation (§4.2): the probing budget is split *exactly* — seeds
// share β, every spawn splits the parent's grant among the children, and
// nothing is ever minted. Externally observable consequences, for any
// request with branches of at most L functions:
//   * at most β probes reach the destination (each arrival carries >= 1
//     budget unit and the per-generation budget sum never exceeds β);
//   * probes_spawned <= β x (L + 1)  (<= β probes per prefix depth);
//   * probe transmissions <= (1 + retx) x (β + 1) x (L + 1): each probe
//     attempts at most `budget` fanout sends per hop plus one final leg,
//     the ack walks <= L + 1 legs, and the fault model retransmits each
//     at most probe_retx_limit times.
// The per-spawn invariant (Σ child budgets <= parent, every child within
// the parent's grant) is asserted by SPIDER_DCHECK at the spawn sites and
// therefore enforced across this whole suite in debug/sanitizer builds.
// Tight budgets (β < seeds) plus commutation-heavy DAG requests exercise
// the refusal path: seeds beyond the β-th must not spawn at all.

class BudgetProperty
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(BudgetProperty, BetaIsAHardCeiling) {
  const auto [seed, beta, loss] = GetParam();
  auto s = spider::testing::small_scenario(std::uint64_t(seed), 48, 12);
  core::BcpConfig config;
  config.probing_budget = beta;
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                      config);
  const fault::LinkFaultModel faults =
      fault::LinkFaultModel::uniform_loss(loss, std::uint64_t(seed));
  if (loss > 0.0) bcp.set_fault_model(&faults);

  // Commutation-heavy random requests: diamond DAGs yield multiple
  // branches and patterns, so seed counts routinely exceed small β.
  workload::RequestProfile profile;
  profile.min_functions = 4;
  profile.max_functions = 6;
  profile.dag_probability = 0.7;
  profile.commutation_probability = 1.0;

  for (int round = 0; round < 6; ++round) {
    auto gen = workload::sample_request(*s, profile);
    const std::uint64_t legs = gen.request.graph.node_count() + 1;
    core::ComposeResult r = bcp.compose(gen.request, s->rng);

    EXPECT_LE(r.stats.probes_arrived, std::uint64_t(beta))
        << "round " << round << ": more probes reached the destination "
        << "than the budget admits";
    EXPECT_LE(r.stats.probes_spawned, std::uint64_t(beta) * legs)
        << "round " << round;
    const std::uint64_t attempts = 1 + std::uint64_t(config.probe_retx_limit);
    EXPECT_LE(r.stats.probe_messages,
              attempts * std::uint64_t(beta + 1) * legs)
        << "round " << round;
    // Terminal accounting still balances under tight budgets and loss.
    EXPECT_EQ(r.stats.probes_spawned,
              r.stats.probes_arrived + r.stats.probes_dropped_total() +
                  r.stats.probes_forwarded);
    for (core::HoldId h : r.best_holds) s->alloc->release_hold(h);
    EXPECT_EQ(s->alloc->active_holds(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BudgetProperty,
    ::testing::Combine(::testing::Values(41, 42, 43),
                       ::testing::Values(2, 5, 64),
                       ::testing::Values(0.0, 0.15)));

// Two-tier variant: with a community map attached, β is conserved
// *across* the coarse and fine tiers — coarse probes are paid out of the
// same budget the fine tier seeds from, so coarse + arrived can never
// exceed β, and each coarse probe adds exactly two transmissions
// (summary request + reply) on top of the fine-tier message bound.
// Tiny budgets (β < 4) run flat by design, so those cells double as the
// degenerate-β equivalence check.
TEST_P(BudgetProperty, BetaIsConservedAcrossCoarseAndFineTiers) {
  const auto [seed, beta, loss] = GetParam();
  workload::SimScenarioConfig scfg;
  scfg.seed = std::uint64_t(seed);
  scfg.ip_nodes = 300;
  scfg.peers = 48;
  scfg.function_count = 12;
  scfg.overlay_degree = 4;
  scfg.use_communities = true;
  scfg.community_count = 6;
  auto s = workload::build_sim_scenario(scfg);

  core::BcpConfig config;
  config.probing_budget = beta;
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                      config);
  bcp.set_communities(s->communities.get(), s->community_index.get());
  const fault::LinkFaultModel faults =
      fault::LinkFaultModel::uniform_loss(loss, std::uint64_t(seed));
  if (loss > 0.0) bcp.set_fault_model(&faults);

  workload::RequestProfile profile;
  profile.min_functions = 4;
  profile.max_functions = 6;
  profile.dag_probability = 0.7;
  profile.commutation_probability = 1.0;

  for (int round = 0; round < 6; ++round) {
    auto gen = workload::sample_request(*s, profile);
    const std::uint64_t legs = gen.request.graph.node_count() + 1;
    core::ComposeResult r = bcp.compose(gen.request, s->rng);

    EXPECT_LE(r.stats.coarse_probes, std::uint64_t(beta)) << "round " << round;
    EXPECT_LE(r.stats.coarse_probes + r.stats.probes_arrived,
              std::uint64_t(beta))
        << "round " << round << ": the two tiers overspent β";
    if (beta < 4) {
      EXPECT_EQ(r.stats.coarse_probes, 0u) << "tiny budgets must run flat";
    }
    EXPECT_LE(r.stats.communities_pruned, r.stats.coarse_probes);
    EXPECT_LE(r.stats.probes_spawned, std::uint64_t(beta) * legs)
        << "round " << round;
    const std::uint64_t attempts = 1 + std::uint64_t(config.probe_retx_limit);
    EXPECT_LE(r.stats.probe_messages,
              attempts * std::uint64_t(beta + 1) * legs +
                  2 * r.stats.coarse_probes)
        << "round " << round;
    EXPECT_EQ(r.stats.probes_spawned,
              r.stats.probes_arrived + r.stats.probes_dropped_total() +
                  r.stats.probes_forwarded);
    for (core::HoldId h : r.best_holds) s->alloc->release_hold(h);
    EXPECT_EQ(s->alloc->active_holds(), 0u);
  }
}

// --------------------------------------------------------------------- BCP

class BcpProperty : public ::testing::TestWithParam<int> {};

TEST_P(BcpProperty, ComposeInvariantsAcrossSeeds) {
  const auto seed = std::uint64_t(GetParam());
  auto s = spider::testing::small_scenario(seed, 48, 12);
  core::BcpEngine bcp(*s->deployment, *s->alloc, *s->evaluator, s->sim,
                      core::BcpConfig{});
  Rng rng{seed * 31 + 1};

  for (int round = 0; round < 8; ++round) {
    auto req = spider::testing::easy_request(
        *s, 3, overlay::PeerId(round % 8), overlay::PeerId(8 + round % 8));
    core::ComposeResult r = bcp.compose(req, rng);
    // Probe accounting: every spawned probe reaches exactly one terminal
    // outcome (arrival, a drop, or continuation as child probes).
    EXPECT_EQ(r.stats.probes_spawned,
              r.stats.probes_arrived + r.stats.probes_dropped_total() +
                  r.stats.probes_forwarded);
    if (r.success) {
      // QoS soundness: reported QoS satisfies the request bound.
      EXPECT_TRUE(r.best.qos.within(req.qos_req));
      EXPECT_TRUE(r.best.evaluated);
      // Mapping soundness: functions match, peers alive.
      for (service::FnNode n = 0; n < r.best.pattern.node_count(); ++n) {
        EXPECT_EQ(r.best.mapping[n].function, r.best.pattern.function(n));
        EXPECT_TRUE(s->deployment->peer_alive(r.best.mapping[n].host));
      }
      // Backups ranked at or above the best's psi.
      for (const auto& b : r.backups) {
        EXPECT_GE(b.psi_cost + 1e-9, r.best.psi_cost);
      }
      // Hold hygiene: exactly the best graph's holds stay live.
      EXPECT_EQ(s->alloc->active_holds(), r.best_holds.size());
      for (core::HoldId h : r.best_holds) s->alloc->release_hold(h);
    }
    EXPECT_EQ(s->alloc->active_holds(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BcpProperty,
                         ::testing::Values(5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace spider
