#include "service/service_graph.hpp"

namespace spider::service {

std::unordered_set<ComponentId> ServiceGraph::component_set() const {
  std::unordered_set<ComponentId> out;
  out.reserve(mapping.size());
  for (const ComponentMetadata& m : mapping) out.insert(m.id);
  return out;
}

bool ServiceGraph::uses_component(ComponentId id) const {
  for (const ComponentMetadata& m : mapping) {
    if (m.id == id) return true;
  }
  return false;
}

bool ServiceGraph::uses_peer(overlay::PeerId peer) const {
  for (const ComponentMetadata& m : mapping) {
    if (m.host == peer) return true;
  }
  return false;
}

std::size_t ServiceGraph::overlap(const ServiceGraph& other) const {
  const auto theirs = other.component_set();
  std::size_t shared = 0;
  for (const ComponentMetadata& m : mapping) {
    shared += theirs.count(m.id);
  }
  return shared;
}

bool ServiceGraph::same_mapping(const ServiceGraph& other) const {
  if (mapping.size() != other.mapping.size()) return false;
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    if (mapping[i].id != other.mapping[i].id) return false;
  }
  return true;
}

GraphDemand::GraphDemand(const ServiceGraph& graph, double kbps) {
  for (const ComponentMetadata& meta : graph.mapping) {
    auto [it, inserted] = peers.emplace(meta.host, meta.required);
    if (!inserted) it->second += meta.required;
  }
  if (kbps <= 0.0) return;
  for (const ServiceLinkHop& hop : graph.hops) {
    for (overlay::OverlayLinkId link : hop.path.links) links[link] += kbps;
  }
}

}  // namespace spider::service
