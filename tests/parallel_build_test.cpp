// Determinism of parallel world construction (§5k): every build phase
// must produce byte-identical output at any job count — landmark
// selection (speculative waves), overlay link pricing, the scenario's
// sharded component sampling, and the DHT bulk load. Churn after a
// parallel build must replay bit-for-bit too (deterministic revive
// bootstrap), so a kill/revive sequence is compared across job counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/generator.hpp"
#include "net/landmark.hpp"
#include "net/router.hpp"
#include "overlay/overlay.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace spider {
namespace {

net::Topology test_topology(std::uint64_t seed, std::size_t nodes) {
  Rng rng(seed);
  return net::power_law(nodes, 3, rng);
}

TEST(ParallelBuildTest, LandmarkTableIsIdenticalAtAnyJobCount) {
  const net::Topology topo = test_topology(5, 240);
  std::vector<net::NodeIdx> targets;
  for (net::NodeIdx t = 0; t < 240; t += 3) targets.push_back(t);

  const net::LandmarkTable serial =
      net::build_ip_landmarks(topo, targets, 12, /*jobs=*/1);
  for (std::size_t jobs : {2, 4, 7}) {
    const net::LandmarkTable parallel =
        net::build_ip_landmarks(topo, targets, 12, jobs);
    ASSERT_EQ(serial.landmark_count(), parallel.landmark_count())
        << "jobs=" << jobs;
    ASSERT_EQ(serial.target_count(), parallel.target_count());
    for (std::uint32_t u = 0; u < targets.size(); ++u) {
      for (std::uint32_t v = 0; v < targets.size(); ++v) {
        EXPECT_EQ(serial.upper_bound_ms(u, v), parallel.upper_bound_ms(u, v))
            << "jobs=" << jobs << " pair (" << u << "," << v << ")";
        EXPECT_EQ(serial.lower_bound_ms(u, v), parallel.lower_bound_ms(u, v));
      }
    }
  }
}

TEST(ParallelBuildTest, EstimatedOverlayIsIdenticalAtAnyJobCount) {
  const net::Topology topo = test_topology(9, 300);
  std::vector<net::NodeIdx> peers;
  for (net::NodeIdx t = 0; t < 300; t += 2) peers.push_back(t);

  auto build = [&](std::size_t jobs) {
    Rng rng(77);
    overlay::OverlayNetwork ov = overlay::OverlayNetwork::from_topology_estimated(
        topo, peers, overlay::OverlayKind::kNearestMesh, 5, rng, 8, jobs);
    ov.build_estimator(8, jobs);
    return ov;
  };
  overlay::OverlayNetwork serial = build(1);
  overlay::OverlayNetwork parallel = build(4);

  ASSERT_EQ(serial.link_count(), parallel.link_count());
  for (overlay::OverlayLinkId l = 0; l < serial.link_count(); ++l) {
    const overlay::OverlayLink& a = serial.link(l);
    const overlay::OverlayLink& b = parallel.link(l);
    EXPECT_EQ(a.a, b.a) << "link " << l;
    EXPECT_EQ(a.b, b.b) << "link " << l;
    EXPECT_EQ(a.delay_ms, b.delay_ms) << "link " << l;
    EXPECT_EQ(a.capacity_kbps, b.capacity_kbps) << "link " << l;
    EXPECT_EQ(a.ip_hops, b.ip_hops) << "link " << l;
  }
  for (overlay::PeerId p = 0; p < serial.peer_count(); p += 7) {
    for (overlay::PeerId q = 0; q < serial.peer_count(); q += 11) {
      EXPECT_EQ(serial.estimated_delay_ms(p, q),
                parallel.estimated_delay_ms(p, q))
          << "pair (" << p << "," << q << ")";
    }
  }
}

TEST(ParallelBuildTest, ExactOverlayIsIdenticalAtAnyJobCount) {
  const net::Topology topo = test_topology(9, 300);
  std::vector<net::NodeIdx> peers;
  for (net::NodeIdx t = 0; t < 300; t += 2) peers.push_back(t);

  for (overlay::OverlayKind kind : {overlay::OverlayKind::kNearestMesh,
                                    overlay::OverlayKind::kRandom}) {
    auto build = [&](std::size_t jobs, net::Router& router) {
      Rng rng(77);
      return overlay::OverlayNetwork::from_topology(topo, router, peers, kind,
                                                    5, rng, jobs);
    };
    net::Router serial_router(topo), parallel_router(topo);
    const overlay::OverlayNetwork serial = build(1, serial_router);
    const overlay::OverlayNetwork parallel = build(4, parallel_router);

    ASSERT_EQ(serial.link_count(), parallel.link_count());
    for (overlay::OverlayLinkId l = 0; l < serial.link_count(); ++l) {
      const overlay::OverlayLink& a = serial.link(l);
      const overlay::OverlayLink& b = parallel.link(l);
      EXPECT_EQ(a.a, b.a) << "link " << l;
      EXPECT_EQ(a.b, b.b) << "link " << l;
      EXPECT_EQ(a.delay_ms, b.delay_ms) << "link " << l;
      EXPECT_EQ(a.capacity_kbps, b.capacity_kbps) << "link " << l;
      EXPECT_EQ(a.ip_hops, b.ip_hops) << "link " << l;
    }
    EXPECT_EQ(serial.underwired_peers(), parallel.underwired_peers());
    // One search per peer, counted once after the fan-out.
    EXPECT_EQ(serial_router.recomputes(), peers.size());
    EXPECT_EQ(parallel_router.recomputes(), peers.size());
    EXPECT_EQ(serial_router.nodes_settled(), parallel_router.nodes_settled());
  }
}

workload::SimScenarioConfig scenario_config(std::size_t build_jobs) {
  workload::SimScenarioConfig config;
  config.seed = 1234;
  config.ip_nodes = 2400;
  config.peers = 1100;  // spans two 1024-peer component-sampling shards
  config.function_count = 40;
  config.overlay_degree = 4;
  config.use_latency_estimator = true;
  config.landmark_count = 8;
  config.build_jobs = build_jobs;
  return config;
}

void expect_same_world(workload::Scenario& a, workload::Scenario& b) {
  auto& da = *a.deployment;
  auto& db = *b.deployment;
  ASSERT_EQ(da.peer_count(), db.peer_count());
  ASSERT_EQ(da.component_count(), db.component_count());
  for (overlay::PeerId p = 0; p < da.peer_count(); ++p) {
    const auto& ca = da.components_on(p);
    const auto& cb = db.components_on(p);
    ASSERT_EQ(ca, cb) << "component ids on peer " << p;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      const auto& x = da.component(ca[i]);
      const auto& y = db.component(cb[i]);
      EXPECT_EQ(x.function, y.function);
      EXPECT_EQ(x.perf.delay_ms(), y.perf.delay_ms());
      EXPECT_EQ(x.failure_prob, y.failure_prob);
    }
  }
  EXPECT_EQ(da.dht().messages_sent(), db.dht().messages_sent());
}

TEST(ParallelBuildTest, SimScenarioIsIdenticalAtAnyBuildJobCount) {
  auto serial = workload::build_sim_scenario(scenario_config(1));
  auto parallel = workload::build_sim_scenario(scenario_config(4));
  expect_same_world(*serial, *parallel);

  // DHT state too: spot-check leaf sets and routed lookups.
  for (overlay::PeerId p = 0; p < serial->deployment->peer_count(); p += 97) {
    std::vector<dht::NodeId> ma = serial->deployment->dht().leaf_set(p).members();
    std::vector<dht::NodeId> mb =
        parallel->deployment->dht().leaf_set(p).members();
    EXPECT_EQ(ma, mb) << "leaf set of peer " << p;
  }
  for (std::uint64_t k = 0; k < 16; ++k) {
    const dht::NodeId key = dht::NodeId::hash_of("pb:" + std::to_string(k));
    EXPECT_EQ(serial->deployment->dht().route_readonly(0, key).path,
              parallel->deployment->dht().route_readonly(0, key).path)
        << "key " << k;
  }
}

TEST(ParallelBuildTest, ExactSimScenarioIsIdenticalAtAnyBuildJobCount) {
  workload::SimScenarioConfig serial_config = scenario_config(1);
  workload::SimScenarioConfig parallel_config = scenario_config(4);
  for (auto* config : {&serial_config, &parallel_config}) {
    config->use_latency_estimator = false;
    config->ip_nodes = 1200;
    config->peers = 500;
    config->router_cache_limit = 8;
  }
  auto serial = workload::build_sim_scenario(serial_config);
  auto parallel = workload::build_sim_scenario(parallel_config);
  expect_same_world(*serial, *parallel);

  const overlay::OverlayNetwork& oa = serial->deployment->overlay();
  const overlay::OverlayNetwork& ob = parallel->deployment->overlay();
  ASSERT_EQ(oa.link_count(), ob.link_count());
  for (overlay::OverlayLinkId l = 0; l < oa.link_count(); ++l) {
    EXPECT_EQ(oa.link(l).a, ob.link(l).a) << "link " << l;
    EXPECT_EQ(oa.link(l).b, ob.link(l).b) << "link " << l;
    EXPECT_EQ(oa.link(l).delay_ms, ob.link(l).delay_ms) << "link " << l;
    EXPECT_EQ(oa.link(l).capacity_kbps, ob.link(l).capacity_kbps);
    EXPECT_EQ(oa.link(l).ip_hops, ob.link(l).ip_hops);
  }
  EXPECT_EQ(serial->router->recomputes(), serial_config.peers);
  EXPECT_EQ(parallel->router->recomputes(), serial_config.peers);
  EXPECT_EQ(serial->router->nodes_settled(), parallel->router->nodes_settled());
  EXPECT_EQ(oa.nodes_settled(), ob.nodes_settled());
  for (overlay::PeerId p = 0; p < serial->deployment->peer_count(); p += 97) {
    EXPECT_EQ(serial->deployment->dht().leaf_set(p).members(),
              parallel->deployment->dht().leaf_set(p).members())
        << "leaf set of peer " << p;
  }
}

TEST(ParallelBuildTest, KillReviveReplaysBitForBitAcrossBuildJobCounts) {
  auto serial = workload::build_sim_scenario(scenario_config(1));
  auto parallel = workload::build_sim_scenario(scenario_config(4));

  const std::vector<overlay::PeerId> victims{3, 97, 512, 1033};
  for (auto& s : {std::ref(*serial), std::ref(*parallel)}) {
    for (overlay::PeerId v : victims) s.get().deployment->kill_peer(v);
    s.get().deployment->revive_peer(victims[1]);
    s.get().deployment->revive_peer(victims[3]);
  }

  ASSERT_EQ(serial->deployment->live_peers(), parallel->deployment->live_peers());
  EXPECT_EQ(serial->deployment->dht().messages_sent(),
            parallel->deployment->dht().messages_sent());
  for (overlay::PeerId p : {overlay::PeerId(0), victims[1], victims[3]}) {
    std::vector<dht::NodeId> ma = serial->deployment->dht().leaf_set(p).members();
    std::vector<dht::NodeId> mb =
        parallel->deployment->dht().leaf_set(p).members();
    EXPECT_EQ(ma, mb) << "leaf set of peer " << p;
  }
  // Routed lookups (with lazy repair active) must walk the same paths.
  for (std::uint64_t k = 0; k < 24; ++k) {
    const dht::NodeId key = dht::NodeId::hash_of("kr:" + std::to_string(k));
    const auto from = overlay::PeerId(100 + k);  // avoids the dead victims
    const auto ra = serial->deployment->dht().route(from, key);
    const auto rb = parallel->deployment->dht().route(from, key);
    EXPECT_EQ(ra.path, rb.path) << "key " << k;
  }
}

}  // namespace
}  // namespace spider
