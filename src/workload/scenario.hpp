// Scenario builders: canned deployments matching the paper's two testbeds.
//
//  * Simulation testbed (§6.1): an Inet-style power-law IP network with a
//    subset of nodes forming the service overlay; each peer provides 1–3
//    components whose functions are drawn from a 200-function catalog.
//  * Prototype testbed (§6.2): 102 PlanetLab-like hosts, 6 multimedia
//    functions, one component per host (≈17 replicas per function).
//
// A Scenario owns the full object graph (simulator, topology, router,
// deployment, allocator, evaluator) in construction order so that
// everything tears down cleanly.
#pragma once

#include <memory>

#include "core/allocator.hpp"
#include "core/deployment.hpp"
#include "core/evaluator.hpp"
#include "discovery/community_index.hpp"
#include "net/generator.hpp"
#include "net/planetlab.hpp"
#include "net/router.hpp"
#include "service/service_graph.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace spider::workload {

/// Fully wired testbed.
struct Scenario {
  /// Wall-clock spent in each world-construction phase of the builder
  /// (milliseconds; zero for phases a scenario kind skips). Benchmarks
  /// report these so build-parallelism regressions are visible per layer.
  struct BuildTimings {
    double topology_ms = 0.0;
    double overlay_ms = 0.0;
    double estimator_ms = 0.0;
    double dht_ms = 0.0;
    double deploy_ms = 0.0;
    double communities_ms = 0.0;
  };

  Rng rng{1};
  sim::Simulator sim;
  BuildTimings build_timings;
  // IP substrate (null for PlanetLab-matrix scenarios).
  std::unique_ptr<net::Topology> topology;
  std::unique_ptr<net::Router> router;
  std::unique_ptr<net::PlanetLabModel> planetlab;
  std::unique_ptr<core::Deployment> deployment;
  std::unique_ptr<core::AllocationManager> alloc;
  std::unique_ptr<core::GraphEvaluator> evaluator;
  // Community partition + per-community discovery index (null unless
  // SimScenarioConfig::use_communities; attach to a BcpEngine via
  // set_communities to switch it to two-tier probing).
  std::unique_ptr<overlay::CommunityMap> communities;
  std::unique_ptr<discovery::CommunityIndex> community_index;
};

/// §6.1-style simulation testbed.
struct SimScenarioConfig {
  std::uint64_t seed = 42;
  std::size_t ip_nodes = 4000;  ///< paper: 10,000 (scaled for bench speed)
  std::size_t ip_links_per_node = 3;
  std::size_t peers = 400;  ///< paper: 1,000
  overlay::OverlayKind overlay_kind = overlay::OverlayKind::kNearestMesh;
  std::size_t overlay_degree = 6;
  std::size_t function_count = 200;  ///< paper: 200 pre-defined functions
  std::size_t min_components_per_peer = 1;  ///< paper: [1, 3]
  std::size_t max_components_per_peer = 3;
  /// Function popularity skew: components pick functions Zipf(s)-ish so
  /// replica counts vary (0 = uniform).
  double function_zipf_s = 0.0;
  /// Max Q_in/Q_out quality level assigned to components (0 disables the
  /// §2.2 level-matching dimension: every component accepts everything).
  std::uint32_t max_quality_level = 0;
  /// Per-component jitter contribution range; > 0 makes components carry a
  /// third additive QoS metric (multi-constrained composition).
  double min_jitter_ms = 0.0, max_jitter_ms = 0.0;
  // Component property ranges (uniform).
  double min_perf_delay_ms = 5.0, max_perf_delay_ms = 40.0;
  double min_loss = 0.0, max_loss = 0.01;
  double min_cpu = 4.0, max_cpu = 12.0;
  double min_mem = 4.0, max_mem = 12.0;
  double min_fail_prob = 0.0, max_fail_prob = 0.05;
  // Peer capacities.
  double peer_cpu_capacity = 100.0, peer_mem_capacity = 100.0;
  /// Route-cache caps (see net::Router::set_cache_limit and
  /// overlay::OverlayNetwork::set_route_cache_limit) applied before the
  /// overlay is built. Cached shortest-path state is the only O(N²)
  /// memory in a scenario, so large-N sweeps must cap it; the default
  /// keeps the exact historical unbounded behaviour. The exact overlay
  /// build caches no IP tree (its searches are net::Router::search), so
  /// router_cache_limit bounds only trees callers ask the Router for
  /// later, not build work.
  std::size_t router_cache_limit = std::size_t(-1);
  std::size_t route_cache_limit = std::size_t(-1);
  /// Cap on materialized per-(src,dst) overlay paths (min 2; see
  /// overlay::OverlayNetwork::set_route_path_cache_limit).
  std::size_t route_path_cache_limit = std::size_t(1) << 16;
  /// Landmark latency estimation (§5h). Off by default: the scenario then
  /// builds the overlay exactly, from one bounded IP search per peer, and
  /// answers every delay query exactly — byte-identical to the historical
  /// behaviour. On, the overlay is built via
  /// overlay::OverlayNetwork::from_topology_estimated (O(n·degree·k)
  /// construction, bounded RSS) and proximity/discovery hints come from
  /// k-landmark triangulation; exact routes are still computed lazily
  /// for candidate service graphs.
  bool use_latency_estimator = false;
  std::size_t landmark_count = 16;
  /// Community partitioning (§5l). Off by default: flat BCP, bit-for-bit
  /// the historical outputs. On, the builder partitions the overlay into
  /// `community_count` latency communities after deployment and indexes
  /// replicas per community; engines opt in via BcpEngine::set_communities.
  bool use_communities = false;
  std::size_t community_count = 8;
  /// World-construction parallelism (§5k): landmark SSSP columns, overlay
  /// link pricing (per-peer IP searches in exact worlds, table reads in
  /// estimated ones), the DHT bulk load and component registration spread
  /// over this many workers. Output is identical at any value — component
  /// sampling draws from hash-derived per-shard RNG streams (fixed
  /// 1024-peer shards), not the sequential scenario RNG, precisely so the
  /// result cannot depend on scheduling. 1 (default) builds serially.
  std::size_t build_jobs = 1;
};

/// §6.2-style prototype testbed over a synthetic PlanetLab delay matrix.
struct PlanetLabScenarioConfig {
  std::uint64_t seed = 42;
  std::size_t hosts = 102;  ///< paper: 102 PlanetLab hosts
  std::size_t overlay_degree = 8;
  overlay::OverlayKind overlay_kind = overlay::OverlayKind::kNearestMesh;
  /// Paper: 6 multimedia functions, one component per host -> ~17 replicas.
  std::size_t function_count = 6;
  std::size_t components_per_peer = 1;
  double min_perf_delay_ms = 10.0, max_perf_delay_ms = 80.0;
  double min_cpu = 4.0, max_cpu = 12.0;
  double min_mem = 4.0, max_mem = 12.0;
  double min_fail_prob = 0.0, max_fail_prob = 0.02;
  double peer_cpu_capacity = 200.0, peer_mem_capacity = 200.0;
};

std::unique_ptr<Scenario> build_sim_scenario(const SimScenarioConfig& config);
std::unique_ptr<Scenario> build_planetlab_scenario(
    const PlanetLabScenarioConfig& config);

/// The six multimedia functions of the paper's prototype (§6.2), in the
/// order they are interned by build_planetlab_scenario when
/// function_count == 6.
extern const char* const kMultimediaFunctions[6];

/// Request sampling profile.
struct RequestProfile {
  std::size_t min_functions = 2;
  std::size_t max_functions = 4;
  /// Request-side function popularity skew: > 0 draws each requested
  /// function Zipf(s) by catalog rank (function 0 hottest — matching the
  /// deployment-side skew SimScenarioConfig::function_zipf_s applies), so
  /// open-loop traffic concentrates on popular services. 0 (default) is
  /// the uniform seed behaviour, draw-for-draw identical.
  double function_zipf_s = 0.0;
  /// Probability a request's graph is a diamond DAG instead of a chain
  /// (requires >= 4 functions).
  double dag_probability = 0.25;
  /// Probability of declaring a commutation link between two adjacent
  /// interior functions.
  double commutation_probability = 0.3;
  /// QoS delay bound = slack × (graph length × typical per-hop budget).
  double delay_slack_min = 1.2, delay_slack_max = 2.5;
  double per_hop_delay_budget_ms = 80.0;
  double loss_bound = 0.05;            ///< loss-rate bound (transformed)
  /// Jitter bound per expected hop; > 0 adds a third QoS constraint (the
  /// scenario must then deploy jittery components, see SimScenarioConfig).
  double per_hop_jitter_budget_ms = 0.0;
  double bandwidth_kbps = 300.0;       ///< stream rate on service links
  double max_failure_prob = 0.25;      ///< F^req
  double mean_session_duration = 50.0; ///< virtual time units
  /// §2.2 levels on requests (only meaningful when the scenario deploys
  /// leveled components).
  std::uint32_t source_level = 0;
  std::uint32_t min_dest_level = 0;
};

/// One sampled composite request plus its session duration.
struct GeneratedRequest {
  service::CompositeRequest request;
  double duration = 0.0;
};

GeneratedRequest sample_request(Scenario& scenario,
                                const RequestProfile& profile);

}  // namespace spider::workload
