#include "core/evaluator.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/keys.hpp"
#include "util/require.hpp"

namespace spider::core {

using service::FnNode;
using service::ServiceGraph;
using service::ServiceLinkHop;

namespace {

constexpr double kHugeCost = 1e9;

/// Key for hop lookup: (from node, to node) with kEndpoint sentinels.
using HopKey = util::PairKey<FnNode, FnNode>;

HopKey hop_key(FnNode from, FnNode to) { return HopKey{from, to}; }

}  // namespace

bool GraphEvaluator::resolve(ServiceGraph& graph) const {
  auto& ov = deployment_->overlay();
  graph.hops.clear();
  graph.evaluated = false;

  if (!ov.alive(graph.source) || !ov.alive(graph.dest)) return false;
  SPIDER_REQUIRE(graph.mapping.size() == graph.pattern.node_count());
  for (const auto& meta : graph.mapping) {
    if (!ov.alive(meta.host)) return false;
  }

  auto add_hop = [&](FnNode from, FnNode to, PeerId from_peer,
                     PeerId to_peer) -> bool {
    ServiceLinkHop hop;
    hop.from = from;
    hop.to = to;
    hop.from_peer = from_peer;
    hop.to_peer = to_peer;
    if (from_peer != to_peer) {
      const overlay::OverlayPathRef path = ov.route(from_peer, to_peer);
      if (!path->valid) return false;
      hop.path = *path;  // copy out: hop outlives the route cache entry
    } else {
      hop.path.valid = true;
      hop.path.delay_ms = 0.0;
    }
    graph.hops.push_back(std::move(hop));
    return true;
  };

  for (FnNode entry : graph.pattern.sources()) {
    if (!add_hop(ServiceLinkHop::kEndpoint, entry, graph.source,
                 graph.mapping[entry].host)) {
      return false;
    }
  }
  for (const auto& [u, v] : graph.pattern.dependencies()) {
    if (!add_hop(u, v, graph.mapping[u].host, graph.mapping[v].host)) {
      return false;
    }
  }
  for (FnNode exit : graph.pattern.sinks()) {
    if (!add_hop(exit, ServiceLinkHop::kEndpoint, graph.mapping[exit].host,
                 graph.dest)) {
      return false;
    }
  }
  return true;
}

void GraphEvaluator::evaluate(ServiceGraph& graph,
                              const service::CompositeRequest& request,
                              AvailabilityView* view) const {
  SPIDER_REQUIRE_MSG(!graph.hops.empty(), "resolve() must run first");
  AvailabilityView& avail_view = view != nullptr ? *view : *alloc_;

  std::unordered_map<HopKey, const ServiceLinkHop*, util::PairKeyHash>
      hops;
  for (const ServiceLinkHop& hop : graph.hops) {
    hops[hop_key(hop.from, hop.to)] = &hop;
  }
  auto link_delay = [&](FnNode from, FnNode to) {
    auto it = hops.find(hop_key(from, to));
    SPIDER_REQUIRE_MSG(it != hops.end(), "missing resolved hop");
    return it->second->path.delay_ms;
  };

  // End-to-end QoS: worst branch sum per metric.
  const std::size_t metrics = request.qos_req.size();
  service::Qos worst(metrics);
  for (const auto& branch : graph.pattern.branches()) {
    service::Qos sum(metrics);
    sum[service::Qos::kDelay] += link_delay(ServiceLinkHop::kEndpoint,
                                            branch.front());
    for (std::size_t i = 0; i < branch.size(); ++i) {
      // Component perf vectors may carry fewer metrics than the request
      // constrains (missing dimensions contribute zero).
      sum += graph.mapping[branch[i]].perf.resized(metrics);
      if (i + 1 < branch.size()) {
        sum[service::Qos::kDelay] += link_delay(branch[i], branch[i + 1]);
      }
    }
    sum[service::Qos::kDelay] += link_delay(branch.back(),
                                            ServiceLinkHop::kEndpoint);
    for (std::size_t m = 0; m < metrics; ++m) {
      worst[m] = std::max(worst[m], sum[m]);
    }
  }
  graph.qos = worst;

  // Failure probability: independent peer failures; a peer's failure
  // estimate is the max over its components in this graph.
  std::unordered_map<PeerId, double> peer_fail;
  for (const auto& meta : graph.mapping) {
    auto [it, inserted] = peer_fail.emplace(meta.host, meta.failure_prob);
    if (!inserted) it->second = std::max(it->second, meta.failure_prob);
  }
  double survive = 1.0;
  for (const auto& [peer, p] : peer_fail) survive *= (1.0 - p);
  graph.failure_prob = 1.0 - survive;

  // ψ_λ (Eq. 1) against current availability.
  double psi = 0.0;
  for (const auto& meta : graph.mapping) {
    const service::Resources avail = avail_view.peer_available(meta.host);
    for (std::size_t i = 0; i < service::Resources::kTypes; ++i) {
      const double need = meta.required.v[i];
      if (need <= 0.0) continue;
      psi += avail.v[i] > 0.0 ? weights_.resource[i] * need / avail.v[i]
                              : kHugeCost;
    }
  }
  if (request.bandwidth_kbps > 0.0) {
    for (const ServiceLinkHop& hop : graph.hops) {
      if (hop.path.links.empty()) continue;  // co-located peers
      const double avail = avail_view.path_available_kbps(hop.path);
      psi += avail > 0.0
                 ? weights_.bandwidth * request.bandwidth_kbps / avail
                 : kHugeCost;
    }
  }
  graph.psi_cost = psi;
  graph.evaluated = true;
}

bool GraphEvaluator::qos_qualified(
    const ServiceGraph& graph, const service::CompositeRequest& request) const {
  SPIDER_REQUIRE(graph.evaluated);
  return graph.qos.within(request.qos_req);
}

bool GraphEvaluator::levels_compatible(
    const ServiceGraph& graph, const service::CompositeRequest& request) const {
  SPIDER_REQUIRE(graph.mapping.size() == graph.pattern.node_count());
  for (FnNode entry : graph.pattern.sources()) {
    if (request.source_level < graph.mapping[entry].input_level) return false;
  }
  for (const auto& [u, v] : graph.pattern.dependencies()) {
    if (graph.mapping[u].output_level < graph.mapping[v].input_level) {
      return false;
    }
  }
  for (FnNode exit : graph.pattern.sinks()) {
    if (graph.mapping[exit].output_level < request.min_dest_level) {
      return false;
    }
  }
  return true;
}

bool GraphEvaluator::resource_feasible(
    const ServiceGraph& graph, const service::CompositeRequest& request,
    AvailabilityView* view) const {
  AvailabilityView& avail_view = view != nullptr ? *view : *alloc_;
  return avail_view.fits(service::GraphDemand(graph, request.bandwidth_kbps));
}

double GraphEvaluator::ack_time_ms(const ServiceGraph& graph) const {
  SPIDER_REQUIRE(!graph.hops.empty());
  std::unordered_map<HopKey, double, util::PairKeyHash> delay;
  for (const ServiceLinkHop& hop : graph.hops) {
    delay[hop_key(hop.from, hop.to)] = hop.path.delay_ms;
  }
  double worst = 0.0;
  for (const auto& branch : graph.pattern.branches()) {
    double sum = delay[hop_key(ServiceLinkHop::kEndpoint, branch.front())];
    for (std::size_t i = 0; i + 1 < branch.size(); ++i) {
      sum += delay[hop_key(branch[i], branch[i + 1])];
    }
    sum += delay[hop_key(branch.back(), ServiceLinkHop::kEndpoint)];
    worst = std::max(worst, sum);
  }
  return worst;
}

}  // namespace spider::core
