#include "core/deployment.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/require.hpp"

namespace spider::core {

namespace {

dht::NodeId peer_node_id(PeerId peer) {
  return dht::NodeId::hash_of("spidernet-peer:" + std::to_string(peer));
}

}  // namespace

Deployment::Deployment(overlay::OverlayNetwork overlay_net,
                       std::size_t build_jobs, int leaf_set_size,
                       int replication)
    : overlay_(std::move(overlay_net)),
      dht_(leaf_set_size, replication),
      registry_(dht_, catalog_) {
  const std::size_t n = overlay_.peer_count();
  by_peer_.resize(n);
  capacity_.assign(n, service::Resources::cpu_mem(100.0, 100.0));
  next_local_id_.assign(n, 0);

  // Pastry locality: contested routing-table cells keep the entry with
  // the lower overlay delay. A proximity *hint* — estimated when the
  // overlay carries a landmark table (exact otherwise, where answering it
  // walks the overlay route cache).
  dht_.set_proximity(
      [this](PeerId a, PeerId b) { return overlay_.estimated_delay_ms(a, b); });

  // Initial world construction bulk-loads canonical routing state from
  // the sorted id space instead of N routed joins. Live join() stays the
  // path for revive_peer/churn. Without an estimator the proximity hint
  // mutates overlay route caches, so the parallel fill must stay serial.
  std::vector<std::pair<dht::NodeId, PeerId>> entries;
  entries.reserve(n);
  for (PeerId p = 0; p < n; ++p) entries.emplace_back(peer_node_id(p), p);
  std::sort(entries.begin(), entries.end());
  if (n > 0) {
    dht_.bulk_load(entries,
                   overlay_.has_estimator() ? build_jobs : std::size_t{1});
  }
}

const service::ServiceComponent& Deployment::add_component(
    service::ServiceComponent component) {
  const PeerId host = component.host;
  SPIDER_REQUIRE(host < peer_count());
  SPIDER_REQUIRE(component.function != service::kInvalidFunction);
  component.id = service::make_component_id(host, next_local_id_[host]++);
  const service::ComponentId id = component.id;
  by_peer_[host].push_back(id);
  by_function_[component.function].push_back(id);
  auto [it, inserted] = components_.emplace(id, std::move(component));
  SPIDER_REQUIRE(inserted);
  return it->second;
}

const service::ServiceComponent& Deployment::deploy_component(
    service::ServiceComponent component) {
  const service::ServiceComponent& stored =
      add_component(std::move(component));
  registry_.register_component(service::ComponentMetadata::from(stored));
  return stored;
}

void Deployment::deploy_components(
    std::vector<service::ServiceComponent> components, std::size_t jobs) {
  std::vector<service::ComponentMetadata> metas;
  metas.reserve(components.size());
  for (service::ServiceComponent& component : components) {
    metas.push_back(
        service::ComponentMetadata::from(add_component(std::move(component))));
  }
  registry_.bulk_register(metas, jobs);
}

const service::ServiceComponent& Deployment::component(
    service::ComponentId id) const {
  auto it = components_.find(id);
  SPIDER_REQUIRE_MSG(it != components_.end(), "unknown component");
  return it->second;
}

bool Deployment::component_alive(service::ComponentId id) const {
  auto it = components_.find(id);
  if (it == components_.end()) return false;
  return overlay_.alive(it->second.host);
}

const std::vector<service::ComponentId>& Deployment::components_on(
    PeerId peer) const {
  SPIDER_REQUIRE(peer < peer_count());
  return by_peer_[peer];
}

const std::vector<service::ComponentId>& Deployment::replicas_oracle(
    service::FunctionId function) const {
  static const std::vector<service::ComponentId> kEmpty;
  auto it = by_function_.find(function);
  return it == by_function_.end() ? kEmpty : it->second;
}

void Deployment::set_capacity(PeerId peer, const service::Resources& capacity) {
  SPIDER_REQUIRE(peer < peer_count());
  capacity_[peer] = capacity;
}

const service::Resources& Deployment::capacity(PeerId peer) const {
  SPIDER_REQUIRE(peer < peer_count());
  return capacity_[peer];
}

void Deployment::kill_peer(PeerId peer) {
  SPIDER_REQUIRE(peer < peer_count());
  if (!overlay_.alive(peer)) return;
  ++liveness_epoch_;
  overlay_.set_alive(peer, false);
  dht_.fail(peer);
}

void Deployment::revive_peer(PeerId peer) {
  SPIDER_REQUIRE(peer < peer_count());
  if (overlay_.alive(peer)) return;
  ++liveness_epoch_;
  overlay_.set_alive(peer, true);
  // Fresh DHT identity (a rejoining peer is a new DHT node in practice —
  // its old id may still linger as a dead ring entry). The bootstrap is
  // the lowest live PeerId — a deterministic choice, so a kill/revive
  // sequence replays bit-for-bit regardless of build parallelism.
  PeerId bootstrap = overlay::kInvalidPeer;
  for (PeerId p = 0; p < peer_count(); ++p) {
    if (p != peer && dht_.alive(p)) {
      bootstrap = p;
      break;
    }
  }
  SPIDER_REQUIRE_MSG(bootstrap != overlay::kInvalidPeer,
                     "no live bootstrap peer");
  dht_.join(peer,
            dht::NodeId::hash_of("spidernet-peer:" + std::to_string(peer) +
                                 ":rejoin:" +
                                 std::to_string(revive_counter_++)),
            bootstrap);
  // Re-register this peer's components (soft-state re-announcement).
  for (service::ComponentId id : by_peer_[peer]) {
    registry_.register_component(
        service::ComponentMetadata::from(components_.at(id)));
  }
}

std::vector<PeerId> Deployment::live_peers() const {
  std::vector<PeerId> out;
  out.reserve(peer_count());
  for (PeerId p = 0; p < peer_count(); ++p) {
    if (overlay_.alive(p)) out.push_back(p);
  }
  return out;
}

}  // namespace spider::core
