// Shared helpers for core-layer tests: small deterministic scenarios and
// request builders.
#pragma once

#include <memory>

#include "core/bcp.hpp"
#include "workload/scenario.hpp"

namespace spider::testing {

/// Small §6.1-style scenario: fast to build, enough replicas to compose.
inline std::unique_ptr<workload::Scenario> small_scenario(
    std::uint64_t seed = 7, std::size_t peers = 48,
    std::size_t functions = 12) {
  workload::SimScenarioConfig config;
  config.seed = seed;
  config.ip_nodes = 300;
  config.peers = peers;
  config.function_count = functions;
  config.min_components_per_peer = 1;
  config.max_components_per_peer = 3;
  config.overlay_degree = 4;
  return workload::build_sim_scenario(config);
}

/// A generous linear request over the first `k` catalog functions that is
/// guaranteed deployable in a fresh small_scenario.
inline service::CompositeRequest easy_request(workload::Scenario& s,
                                              std::size_t k = 3,
                                              overlay::PeerId source = 0,
                                              overlay::PeerId dest = 1) {
  // Choose the k functions with the most live replicas so composition has
  // room to work with.
  std::vector<std::pair<std::size_t, service::FunctionId>> by_replicas;
  const auto& deployment = *s.deployment;
  for (service::FunctionId f = 0; f < deployment.catalog().size(); ++f) {
    std::size_t live = 0;
    for (auto id : deployment.replicas_oracle(f)) {
      live += deployment.component_alive(id) ? 1 : 0;
    }
    if (live > 0) by_replicas.emplace_back(live, f);
  }
  std::sort(by_replicas.rbegin(), by_replicas.rend());
  SPIDER_REQUIRE(by_replicas.size() >= k);

  std::vector<service::FunctionId> fns;
  for (std::size_t i = 0; i < k; ++i) fns.push_back(by_replicas[i].second);

  service::CompositeRequest req;
  req.graph = service::make_linear_graph(fns);
  req.qos_req = service::Qos::delay_loss(100000.0, 1.0);  // generous
  req.bandwidth_kbps = 10.0;
  req.max_failure_prob = 1.0;
  req.source = source;
  req.dest = dest;
  return req;
}

/// easy_request with its bounds tightened around what one compose of it
/// delivers: 2x the delay, the loss + 1 on the loss scale and 2x the
/// failure probability. Margins that close make Eq. 2 prescribe backups.
/// The probing compose's holds are released again.
inline service::CompositeRequest backup_request(workload::Scenario& s,
                                                core::BcpEngine& engine,
                                                Rng& rng) {
  service::CompositeRequest req = easy_request(s);
  core::ComposeResult r = engine.compose(req, rng);
  SPIDER_REQUIRE(r.success);
  for (core::HoldId h : r.best_holds) s.alloc->release_hold(h);
  req.qos_req = service::Qos::delay_loss(2.0 * r.best.qos.delay_ms(),
                                         r.best.qos.loss_log() + 1.0);
  req.max_failure_prob = 2.0 * r.best.failure_prob;
  return req;
}

}  // namespace spider::testing
