#include "workload/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"

namespace spider::workload {

const char* const kMultimediaFunctions[6] = {
    "media/weather-ticker", "media/stock-ticker", "media/up-scale",
    "media/down-scale",     "media/sub-image",    "media/re-quantify",
};

namespace {

using BuildClock = std::chrono::steady_clock;

double ms_since(BuildClock::time_point start) {
  return std::chrono::duration<double, std::milli>(BuildClock::now() - start)
      .count();
}

/// Component sampling runs in fixed 1024-peer shards, each drawing from
/// its own RNG stream derived from (seed, tag, shard). The shard size and
/// tag are part of the output contract: components depend only on the
/// scenario seed, never on build_jobs or worker scheduling.
constexpr std::size_t kComponentShardPeers = 1024;
constexpr std::uint64_t kComponentStreamTag = 0xc0317ull;

service::ServiceComponent sample_component(Rng& rng, overlay::PeerId host,
                                           service::FunctionId fn,
                                           double min_delay, double max_delay,
                                           double min_loss, double max_loss,
                                           double min_cpu, double max_cpu,
                                           double min_mem, double max_mem,
                                           double min_fail, double max_fail) {
  service::ServiceComponent c;
  c.host = host;
  c.function = fn;
  c.perf = service::Qos::delay_loss(
      rng.next_double(min_delay, max_delay),
      service::loss_to_additive(rng.next_double(min_loss, max_loss)));
  c.required = service::Resources::cpu_mem(rng.next_double(min_cpu, max_cpu),
                                           rng.next_double(min_mem, max_mem));
  c.failure_prob = rng.next_double(min_fail, max_fail);
  return c;
}

}  // namespace

std::unique_ptr<Scenario> build_sim_scenario(const SimScenarioConfig& config) {
  auto s = std::make_unique<Scenario>();
  s->rng.reseed(config.seed);

  auto t0 = BuildClock::now();
  s->topology = std::make_unique<net::Topology>(
      net::power_law(config.ip_nodes, config.ip_links_per_node, s->rng));
  s->router = std::make_unique<net::Router>(*s->topology);
  s->router->set_cache_limit(config.router_cache_limit);
  s->build_timings.topology_ms = ms_since(t0);

  // Pick the overlay peers among the IP nodes.
  SPIDER_REQUIRE(config.peers >= 2 && config.peers <= config.ip_nodes);
  std::vector<net::NodeIdx> peer_nodes;
  for (std::size_t idx :
       s->rng.sample_indices(config.ip_nodes, config.peers)) {
    peer_nodes.push_back(net::NodeIdx(idx));
  }
  std::sort(peer_nodes.begin(), peer_nodes.end());

  t0 = BuildClock::now();
  overlay::OverlayNetwork ov =
      config.use_latency_estimator
          ? overlay::OverlayNetwork::from_topology_estimated(
                *s->topology, std::move(peer_nodes), config.overlay_kind,
                config.overlay_degree, s->rng, config.landmark_count,
                config.build_jobs)
          : overlay::OverlayNetwork::from_topology(
                *s->topology, *s->router, std::move(peer_nodes),
                config.overlay_kind, config.overlay_degree, s->rng,
                config.build_jobs);
  ov.set_route_cache_limit(config.route_cache_limit);
  ov.set_route_path_cache_limit(config.route_path_cache_limit);
  s->build_timings.overlay_ms = ms_since(t0);
  if (config.use_latency_estimator) {
    // Overlay-layer landmarks for delay hints (DHT proximity, discovery
    // timing); built before the Deployment so the DHT bulk load sees them.
    t0 = BuildClock::now();
    ov.build_estimator(config.landmark_count, config.build_jobs);
    s->build_timings.estimator_ms = ms_since(t0);
  }
  t0 = BuildClock::now();
  s->deployment =
      std::make_unique<core::Deployment>(std::move(ov), config.build_jobs);
  s->build_timings.dht_ms = ms_since(t0);
  s->alloc =
      std::make_unique<core::AllocationManager>(*s->deployment, s->sim);
  s->evaluator =
      std::make_unique<core::GraphEvaluator>(*s->deployment, *s->alloc);

  // Function catalog.
  auto& catalog = s->deployment->catalog();
  for (std::size_t f = 0; f < config.function_count; ++f) {
    catalog.intern("fn/" + std::to_string(f));
  }

  // Components: each peer provides [min, max] components whose functions
  // are drawn from the catalog (optionally Zipf-skewed popularity).
  // Sampling runs per 1024-peer shard on its own hash-derived RNG stream
  // (see kComponentStreamTag) so shards can run concurrently without the
  // result depending on build_jobs; deployment bookkeeping then replays
  // serially in shard order.
  t0 = BuildClock::now();
  for (overlay::PeerId p = 0; p < config.peers; ++p) {
    s->deployment->set_capacity(
        p, service::Resources::cpu_mem(config.peer_cpu_capacity,
                                       config.peer_mem_capacity));
  }
  const std::size_t shard_count =
      (config.peers + kComponentShardPeers - 1) / kComponentShardPeers;
  std::vector<std::vector<service::ServiceComponent>> shard_components(
      shard_count);
  util::parallel_for_each(
      config.build_jobs, shard_count, [&](std::size_t shard) {
        Rng rng(util::hash_values(config.seed, kComponentStreamTag,
                                  std::uint64_t(shard)));
        const std::size_t begin = shard * kComponentShardPeers;
        const std::size_t end =
            std::min(config.peers, begin + kComponentShardPeers);
        std::vector<service::ServiceComponent>& out = shard_components[shard];
        for (std::size_t p = begin; p < end; ++p) {
          const std::size_t count = std::size_t(
              rng.next_int(std::int64_t(config.min_components_per_peer),
                           std::int64_t(config.max_components_per_peer)));
          for (std::size_t k = 0; k < count; ++k) {
            const auto fn = service::FunctionId(
                config.function_zipf_s > 0.0
                    ? rng.next_zipf(config.function_count,
                                    config.function_zipf_s)
                    : rng.next_below(config.function_count));
            service::ServiceComponent component = sample_component(
                rng, overlay::PeerId(p), fn, config.min_perf_delay_ms,
                config.max_perf_delay_ms, config.min_loss, config.max_loss,
                config.min_cpu, config.max_cpu, config.min_mem, config.max_mem,
                config.min_fail_prob, config.max_fail_prob);
            if (config.max_quality_level > 0) {
              component.input_level = std::uint32_t(
                  rng.next_below(config.max_quality_level + 1));
              component.output_level = std::uint32_t(
                  rng.next_below(config.max_quality_level + 1));
            }
            if (config.max_jitter_ms > 0.0) {
              component.perf = service::Qos::delay_loss_jitter(
                  component.perf.delay_ms(), component.perf.loss_log(),
                  rng.next_double(config.min_jitter_ms, config.max_jitter_ms));
            }
            out.push_back(std::move(component));
          }
        }
      });
  std::vector<service::ServiceComponent> all_components;
  for (std::vector<service::ServiceComponent>& shard : shard_components) {
    for (service::ServiceComponent& component : shard) {
      all_components.push_back(std::move(component));
    }
  }
  s->deployment->deploy_components(std::move(all_components),
                                   config.build_jobs);
  s->build_timings.deploy_ms = ms_since(t0);

  if (config.use_communities) {
    // Partition after deployment so the per-community index sees the
    // final replica set. Both phases shard over the WorkerPool and are
    // byte-identical at any build_jobs (DESIGN.md §5l).
    t0 = BuildClock::now();
    s->communities = std::make_unique<overlay::CommunityMap>(
        overlay::CommunityMap::build(s->deployment->overlay(),
                                     config.community_count,
                                     config.build_jobs));
    std::vector<service::ComponentMetadata> metas;
    metas.reserve(s->deployment->component_count());
    for (overlay::PeerId p = 0; p < config.peers; ++p) {
      for (service::ComponentId id : s->deployment->components_on(p)) {
        metas.push_back(
            service::ComponentMetadata::from(s->deployment->component(id)));
      }
    }
    s->community_index = std::make_unique<discovery::CommunityIndex>(
        discovery::CommunityIndex::build(metas, *s->communities,
                                         config.build_jobs));
    s->build_timings.communities_ms = ms_since(t0);
  }
  return s;
}

std::unique_ptr<Scenario> build_planetlab_scenario(
    const PlanetLabScenarioConfig& config) {
  auto s = std::make_unique<Scenario>();
  s->rng.reseed(config.seed);

  net::PlanetLabConfig pl;
  pl.hosts = config.hosts;
  s->planetlab = std::make_unique<net::PlanetLabModel>(pl, s->rng);

  overlay::OverlayNetwork ov = overlay::OverlayNetwork::from_planetlab(
      *s->planetlab, config.overlay_kind, config.overlay_degree, s->rng);
  s->deployment = std::make_unique<core::Deployment>(std::move(ov));
  s->alloc =
      std::make_unique<core::AllocationManager>(*s->deployment, s->sim);
  s->evaluator =
      std::make_unique<core::GraphEvaluator>(*s->deployment, *s->alloc);

  auto& catalog = s->deployment->catalog();
  for (std::size_t f = 0; f < config.function_count; ++f) {
    catalog.intern(f < 6 && config.function_count <= 6
                       ? kMultimediaFunctions[f]
                       : "fn/" + std::to_string(f));
  }

  // One component per host, function chosen uniformly — the paper's
  // deployment: 102 hosts / 6 functions ≈ 17 replicas per function.
  for (overlay::PeerId p = 0; p < config.hosts; ++p) {
    s->deployment->set_capacity(
        p, service::Resources::cpu_mem(config.peer_cpu_capacity,
                                       config.peer_mem_capacity));
    for (std::size_t k = 0; k < config.components_per_peer; ++k) {
      const auto fn =
          service::FunctionId(s->rng.next_below(config.function_count));
      s->deployment->deploy_component(sample_component(
          s->rng, p, fn, config.min_perf_delay_ms, config.max_perf_delay_ms,
          0.0, 0.0, config.min_cpu, config.max_cpu, config.min_mem,
          config.max_mem, config.min_fail_prob, config.max_fail_prob));
    }
  }
  return s;
}

GeneratedRequest sample_request(Scenario& scenario,
                                const RequestProfile& profile) {
  Rng& rng = scenario.rng;
  auto& deployment = *scenario.deployment;
  const std::size_t catalog_size = deployment.catalog().size();
  SPIDER_REQUIRE(catalog_size >= profile.min_functions);

  GeneratedRequest out;
  service::CompositeRequest& req = out.request;

  // Choose k distinct functions that actually have live replicas.
  const std::size_t k = std::size_t(
      rng.next_int(std::int64_t(profile.min_functions),
                   std::int64_t(std::min(profile.max_functions,
                                         catalog_size))));
  std::vector<service::FunctionId> fns;
  std::size_t guard = 0;
  while (fns.size() < k && guard++ < 64 * k + 256) {
    const auto fn = service::FunctionId(
        profile.function_zipf_s > 0.0
            ? rng.next_zipf(catalog_size, profile.function_zipf_s)
            : rng.next_below(catalog_size));
    if (std::find(fns.begin(), fns.end(), fn) != fns.end()) continue;
    bool has_live = false;
    for (service::ComponentId id : deployment.replicas_oracle(fn)) {
      if (deployment.component_alive(id)) {
        has_live = true;
        break;
      }
    }
    if (has_live) fns.push_back(fn);
  }
  if (fns.size() < k) {
    // The rejection loop above is bounded; under heavy Zipf skew with a
    // small catalog it can exhaust its guard with nearly every draw
    // landing on an already-chosen function. Deterministic fallback:
    // scan the catalog in ascending id order for unused live functions.
    // No RNG draws happen here, so whenever the loop succeeds on its own
    // the stream is untouched and sampling is bit-for-bit the historical
    // behaviour.
    for (service::FunctionId fn = 0;
         fns.size() < k && fn < service::FunctionId(catalog_size); ++fn) {
      if (std::find(fns.begin(), fns.end(), fn) != fns.end()) continue;
      bool has_live = false;
      for (service::ComponentId id : deployment.replicas_oracle(fn)) {
        if (deployment.component_alive(id)) {
          has_live = true;
          break;
        }
      }
      if (has_live) fns.push_back(fn);
    }
  }
  SPIDER_REQUIRE_MSG(fns.size() == k, "not enough live functions");

  // Graph shape: chain, or a diamond DAG over >= 4 functions.
  const bool dag = k >= 4 && rng.next_bool(profile.dag_probability);
  if (dag) {
    // F0 -> {F1, F2, ...} -> F(k-1): first and last shared, interior
    // functions split across two parallel branches.
    service::FunctionGraph g;
    for (service::FunctionId fn : fns) g.add_function(fn);
    const service::FnNode first = 0, last = service::FnNode(k - 1);
    service::FnNode prev_a = first, prev_b = first;
    for (service::FnNode n = 1; n < last; ++n) {
      if (n % 2 == 1) {
        g.add_dependency(prev_a, n);
        prev_a = n;
      } else {
        g.add_dependency(prev_b, n);
        prev_b = n;
      }
    }
    g.add_dependency(prev_a, last);
    if (prev_b != first || prev_a == first) g.add_dependency(prev_b, last);
    // Commutation across the two branch heads, when present.
    if (k >= 4 && rng.next_bool(profile.commutation_probability)) {
      g.add_commutation(1, 2);
    }
    req.graph = std::move(g);
  } else {
    req.graph = service::make_linear_graph(fns);
    if (k >= 3 && rng.next_bool(profile.commutation_probability)) {
      const auto i = service::FnNode(
          1 + rng.next_below(std::uint64_t(k - 2)));
      req.graph.add_commutation(i, i + 1);
    }
  }
  SPIDER_REQUIRE(req.graph.is_dag());

  // QoS requirements: delay bound proportional to graph depth.
  const double slack =
      rng.next_double(profile.delay_slack_min, profile.delay_slack_max);
  const double bound =
      slack * double(k + 1) * profile.per_hop_delay_budget_ms;
  if (profile.per_hop_jitter_budget_ms > 0.0) {
    req.qos_req = service::Qos::delay_loss_jitter(
        bound, service::loss_to_additive(profile.loss_bound),
        slack * double(k + 1) * profile.per_hop_jitter_budget_ms);
  } else {
    req.qos_req = service::Qos::delay_loss(
        bound, service::loss_to_additive(profile.loss_bound));
  }
  req.bandwidth_kbps = profile.bandwidth_kbps;
  req.max_failure_prob = profile.max_failure_prob;
  req.source_level = profile.source_level;
  req.min_dest_level = profile.min_dest_level;

  // Random live source/destination pair.
  const std::vector<overlay::PeerId> live = deployment.live_peers();
  SPIDER_REQUIRE(live.size() >= 2);
  req.source = live[rng.next_below(live.size())];
  do {
    req.dest = live[rng.next_below(live.size())];
  } while (req.dest == req.source);

  out.duration = rng.next_exponential(profile.mean_session_duration);
  return out;
}

}  // namespace spider::workload
