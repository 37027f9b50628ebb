// Deployment: one instantiated P2P service overlay.
//
// Ties together the substrates a SpiderNet run needs — the overlay graph,
// the Pastry DHT (one node per peer), the service registry, the function
// catalog, the deployed component instances and per-peer resource
// capacities — and owns peer lifecycle (failure / rejoin) so that all
// layers stay consistent: killing a peer marks it dead in the overlay,
// fails its DHT node and invalidates its components.
//
// Construction is done by the scenario builders in `src/workload`; this
// class is the runtime container.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dht/pastry.hpp"
#include "discovery/registry.hpp"
#include "overlay/overlay.hpp"
#include "service/component.hpp"

namespace spider::core {

using overlay::PeerId;

class Deployment {
 public:
  /// Takes ownership of a built overlay; peers' DHT nodes are bulk-loaded
  /// with ids derived from the peer index (canonical state straight from
  /// the sorted id space — see PastryNetwork::bulk_load). `build_jobs`
  /// spreads the per-node fill over a WorkerPool. State is identical at
  /// any job count; jobs > 1 needs the estimator-backed proximity hint
  /// (thread-safe), so the fill silently runs serial when the overlay has
  /// no estimator. `leaf_set_size`/`replication` are forwarded to the
  /// Pastry network.
  explicit Deployment(overlay::OverlayNetwork overlay_net,
                      std::size_t build_jobs = 1, int leaf_set_size = 16,
                      int replication = 3);

  // Self-referential (the DHT proximity callback captures `this`).
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  Deployment(Deployment&&) = delete;
  Deployment& operator=(Deployment&&) = delete;

  // ----- components -----

  /// Deploys a component on its host peer and registers it in the DHT.
  /// Returns the stored instance (id assigned from the host's counter).
  const service::ServiceComponent& deploy_component(
      service::ServiceComponent component);

  /// Deploys a batch: bookkeeping runs serially in vector order (ids and
  /// oracle lists come out exactly as repeated deploy_component calls),
  /// then all DHT registrations go through the registry's bulk path with
  /// route computation across `jobs` workers. Requires an all-live DHT —
  /// use during world construction, before any churn.
  void deploy_components(std::vector<service::ServiceComponent> components,
                         std::size_t jobs = 1);

  const service::ServiceComponent& component(service::ComponentId id) const;
  bool component_alive(service::ComponentId id) const;
  /// All components deployed on a peer (including those on dead peers).
  const std::vector<service::ComponentId>& components_on(PeerId peer) const;
  /// Ground-truth replica list for a function — the global-view oracle
  /// used ONLY by the centralized/optimal baselines and tests.
  const std::vector<service::ComponentId>& replicas_oracle(
      service::FunctionId function) const;
  std::size_t component_count() const { return components_.size(); }

  // ----- resources -----

  void set_capacity(PeerId peer, const service::Resources& capacity);
  const service::Resources& capacity(PeerId peer) const;

  // ----- peer lifecycle -----

  bool peer_alive(PeerId peer) const { return overlay_.alive(peer); }
  /// Abrupt peer failure: overlay + DHT + components go down.
  void kill_peer(PeerId peer);
  /// Brings a previously killed peer back (fresh DHT join through any live
  /// bootstrap; its components re-register).
  void revive_peer(PeerId peer);
  std::vector<PeerId> live_peers() const;
  /// Bumped on every effective kill/revive. Consumers that cache anything
  /// derived from the live-peer set (e.g. the allocator's aggregate
  /// capacity snapshot) compare epochs to recompute lazily instead of
  /// subscribing to lifecycle callbacks.
  std::uint64_t liveness_epoch() const { return liveness_epoch_; }

  // ----- accessors -----

  std::size_t peer_count() const { return overlay_.peer_count(); }
  overlay::OverlayNetwork& overlay() { return overlay_; }
  const overlay::OverlayNetwork& overlay() const { return overlay_; }
  dht::PastryNetwork& dht() { return dht_; }
  discovery::ServiceRegistry& registry() { return registry_; }
  service::FunctionCatalog& catalog() { return catalog_; }
  const service::FunctionCatalog& catalog() const { return catalog_; }

 private:
  overlay::OverlayNetwork overlay_;
  dht::PastryNetwork dht_;
  service::FunctionCatalog catalog_;
  discovery::ServiceRegistry registry_;

  std::unordered_map<service::ComponentId, service::ServiceComponent>
      components_;
  std::vector<std::vector<service::ComponentId>> by_peer_;
  std::unordered_map<service::FunctionId, std::vector<service::ComponentId>>
      by_function_;
  std::vector<service::Resources> capacity_;
  std::vector<std::uint32_t> next_local_id_;
  std::uint64_t revive_counter_ = 0;
  std::uint64_t liveness_epoch_ = 0;

  /// Deploy bookkeeping shared by the single and batch paths: assigns the
  /// id from the host's counter, files it under its peer and function,
  /// and stores it. Returns the stored instance; registration is the
  /// caller's.
  const service::ServiceComponent& add_component(
      service::ServiceComponent component);
};

}  // namespace spider::core
