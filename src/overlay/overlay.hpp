// Peer-to-peer service overlay (§2.3).
//
// The overlay is a directed-graph abstraction G = (V, E) over a set of
// peers.  Each overlay link corresponds to an IP-layer path; its delay is
// the underlying shortest-path delay and its capacity is the bottleneck
// bandwidth of that path.  The paper notes the composition system is
// orthogonal to the overlay topology (§2.3); we provide the two topologies
// it names — a topologically-aware mesh (k nearest peers by IP delay, after
// Ratnasamy et al. [20]) and a random/power-law wiring — plus a full mesh
// for prototype-scale (PlanetLab) runs.
//
// Two-tier latency API (§5h): `estimated_delay_ms` answers cheap
// triangulated estimates from a k-landmark table (exact when no estimator
// is attached — the byte-identical legacy mode); `route` computes exact
// min-delay paths lazily, per source, caching Dijkstra *trees* in a
// bounded LRU and materializing per-(src,dst) paths on demand.  Million-
// peer worlds are built through `from_topology_estimated`, which never
// runs a per-peer IP Dijkstra: overlay link metrics come from real
// through-landmark paths and the nearest-mesh scan is sharded by nearest
// landmark instead of scanning all n peers.
//
// Peers can be marked dead (churn).  Overlay routing is min-delay Dijkstra
// over live peers; route caches are invalidated on liveness changes.
// Bandwidth *capacity* lives here; availability accounting (soft/confirmed
// reservations) is the core allocator's job.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "net/landmark.hpp"
#include "net/planetlab.hpp"
#include "net/router.hpp"
#include "net/shortest_paths.hpp"
#include "net/topology.hpp"
#include "util/keys.hpp"
#include "util/lru_cache.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace spider::overlay {

/// Dense overlay peer index (not the IP node index).
using PeerId = std::uint32_t;
using OverlayLinkId = std::uint32_t;

constexpr PeerId kInvalidPeer = static_cast<PeerId>(-1);
constexpr OverlayLinkId kInvalidOverlayLink = static_cast<OverlayLinkId>(-1);

/// Undirected {a, b} dedup key for overlay links (struct key, not the
/// shift-packed uint64 of the PR 1 / PR 4 collision family).
using PeerPairKey = util::UnorderedPairKey<PeerId>;
using PeerPairKeyHash = util::UnorderedPairKeyHash;

/// Undirected overlay link with metrics inherited from the IP path.
struct OverlayLink {
  PeerId a = kInvalidPeer;
  PeerId b = kInvalidPeer;
  double delay_ms = 0.0;
  double capacity_kbps = 0.0;
  std::uint32_t ip_hops = 1;

  PeerId other(PeerId p) const { return p == a ? b : a; }
};

struct OverlayAdjacency {
  PeerId neighbor = kInvalidPeer;
  OverlayLinkId link = kInvalidOverlayLink;
};

/// An overlay path: ordered link list plus aggregate metrics.
struct OverlayPath {
  std::vector<OverlayLinkId> links;  ///< empty for src == dst
  double delay_ms = std::numeric_limits<double>::infinity();
  double capacity_kbps = std::numeric_limits<double>::infinity();
  bool valid = false;
};

class OverlayNetwork;

/// Checked handle to a cached OverlayPath returned by route(). The
/// pointee lives in the overlay's bounded path cache: it stays valid
/// until the cache evicts it, which cannot happen while the handle is
/// the most recently returned one (the LRU never evicts the entry just
/// touched) but can once enough *other* pairs are routed. The handle
/// snapshots the cache epoch and checks it on every dereference (one
/// integer compare — noise next to the cache lookup that produced it),
/// so holding a handle across an eviction aborts in every build type
/// instead of silently reading freed memory — the footgun the old
/// `const OverlayPath&` return invited.
class OverlayPathRef {
 public:
  OverlayPathRef() = default;

  const OverlayPath& get() const;
  const OverlayPath& operator*() const { return get(); }
  const OverlayPath* operator->() const { return &get(); }
  bool has_value() const { return path_ != nullptr; }

 private:
  friend class OverlayNetwork;
  OverlayPathRef(const OverlayPath* path, const OverlayNetwork* net,
                 std::uint64_t epoch)
      : path_(path), net_(net), epoch_(epoch) {}

  const OverlayPath* path_ = nullptr;
  const OverlayNetwork* net_ = nullptr;
  std::uint64_t epoch_ = 0;  // path cache epoch at hand-out time
};

enum class OverlayKind {
  kNearestMesh,  ///< k nearest live peers by IP delay (topology-aware mesh)
  kRandom,       ///< k random neighbors
};

class OverlayNetwork {
 public:
  /// Builds an overlay over `peer_nodes` (IP node index per peer) using the
  /// given wiring; overlay link metrics come from shortest IP paths.
  static OverlayNetwork from_topology(const net::Topology& topo,
                                      net::Router& router,
                                      std::vector<net::NodeIdx> peer_nodes,
                                      OverlayKind kind, std::size_t degree,
                                      Rng& rng);

  /// Landmark-estimated build for large worlds: no per-peer IP Dijkstra
  /// is ever run. `landmark_count` IP-layer landmarks are sampled over
  /// the peer nodes; overlay link metrics are the real through-landmark
  /// paths (triangulation upper bound — admissible, never optimistic),
  /// and the nearest-mesh candidate scan is sharded by nearest landmark
  /// so construction is O(n · degree · k) instead of O(n²).
  /// `jobs > 1` shards construction across a WorkerPool — landmark SSSP
  /// columns in speculative waves, then nearest-landmark bucket
  /// assignment, candidate ranking and link pricing in per-peer slots
  /// merged in bucket order — with byte-identical links at any job count
  /// (DESIGN.md §5k). Random wiring and the connectivity ring stay serial
  /// (they consume the sequential RNG stream).
  static OverlayNetwork from_topology_estimated(
      const net::Topology& topo, std::vector<net::NodeIdx> peer_nodes,
      OverlayKind kind, std::size_t degree, Rng& rng,
      std::size_t landmark_count, std::size_t jobs = 1);

  /// Builds a degree-bounded overlay over a PlanetLab-style delay matrix
  /// (hosts == peers; IP hop count is 1 per link).
  static OverlayNetwork from_planetlab(const net::PlanetLabModel& model,
                                       OverlayKind kind, std::size_t degree,
                                       Rng& rng);

  std::size_t peer_count() const { return peer_node_.size(); }
  std::size_t link_count() const { return links_.size(); }

  /// IP node this peer sits on (peer index itself for PlanetLab builds).
  net::NodeIdx ip_node(PeerId p) const { return peer_node_.at(p); }

  const OverlayLink& link(OverlayLinkId l) const { return links_.at(l); }
  std::span<const OverlayAdjacency> neighbors(PeerId p) const;

  bool alive(PeerId p) const { return alive_.at(p); }

  /// True if a and b share an overlay link; returns the link's delay via
  /// `out_delay` when provided.
  bool are_neighbors(PeerId a, PeerId b, double* out_delay = nullptr) const;

  /// Mean delay of a peer's live overlay links (0 if none) — the coarse
  /// "how far is the world" yardstick a peer can derive locally.
  double mean_neighbor_delay(PeerId p) const;
  std::size_t live_count() const { return live_count_; }
  /// Marks a peer dead/alive and invalidates route caches.
  void set_alive(PeerId p, bool alive);

  /// Peers whose random wiring ended up below the requested degree even
  /// after the deterministic unused-pair fallback (i.e. they were already
  /// adjacent to every other peer). Zero in every non-degenerate world.
  std::size_t underwired_peers() const { return underwired_peers_; }

  /// Min-delay overlay path across live peers. Dead endpoints or a
  /// partitioned pair yield `valid == false`. The handle points into a
  /// bounded per-pair LRU cache; see OverlayPathRef for its lifetime.
  OverlayPathRef route(PeerId src, PeerId dst);

  /// Caps the number of sources with cached Dijkstra trees (util::LruCache
  /// policy, minimum 1, default unbounded). Memory/recompute cost only.
  void set_route_cache_limit(std::size_t max_sources) {
    tree_cache_.set_capacity(max_sources);
  }

  /// Caps the per-(src,dst) materialized-path LRU (min 2, so the path
  /// just returned survives the next pair's insertion).
  void set_route_path_cache_limit(std::size_t max_paths) {
    path_cache_.set_capacity(std::max<std::size_t>(max_paths, 2));
  }

  /// Recompute/regression counters: Dijkstra trees built and paths
  /// materialized since construction. A thrashing capped cache shows up
  /// as trees_computed growing with queries instead of distinct sources.
  std::uint64_t route_trees_computed() const { return tree_cache_.misses(); }
  std::uint64_t route_paths_materialized() const {
    return path_cache_.misses();
  }
  /// Epoch of the path cache: bumped whenever a cached path is evicted or
  /// the caches are cleared. OverlayPathRef checks against it.
  std::uint64_t route_epoch() const {
    return route_cache_clears_ + path_cache_.evictions();
  }

  /// Exact direct-delay lookup: the routed min-delay path's delay
  /// (infinity if unreachable). Computes a Dijkstra tree on a cache miss.
  double delay_ms(PeerId src, PeerId dst);

  /// Two-tier estimate: with an estimator attached, the O(k) landmark
  /// triangulation upper bound (the delay of a real path through the
  /// best landmark, computed over the full overlay at build time and
  /// unaware of later churn); without one, exactly delay_ms(). This is
  /// the call for proximity hints (DHT locality, discovery timing) —
  /// anything that ends up in a candidate service graph must route().
  double estimated_delay_ms(PeerId src, PeerId dst);

  /// Attaches a k-landmark estimator over the *overlay* graph (farthest-
  /// point sampling over peers, one overlay Dijkstra per landmark).
  /// `jobs > 1` computes columns in parallel speculative waves — same
  /// table at any job count (the per-column Dijkstra is const and touches
  /// no caches).
  void build_estimator(std::size_t landmark_count, std::size_t jobs = 1);
  bool has_estimator() const { return estimator_ != nullptr; }
  const net::LandmarkTable* estimator() const { return estimator_.get(); }

  /// Single-source min-delay column over live peers. Computes a fresh
  /// Dijkstra tree without touching the route caches, so concurrent calls
  /// are safe; build_estimator and CommunityMap::build both feed it to
  /// net::LandmarkTable::build.
  net::LandmarkTable::Column sssp_column(PeerId target) const;

  /// True if the overlay graph restricted to live peers is connected.
  bool live_connected() const;

 private:
  OverlayNetwork() = default;
  void build_adjacency();

  /// Single-source Dijkstra over live peers: parallel dist/parent arrays.
  using RouteTree = net::ShortestPathTree<OverlayLinkId>;

  RouteTree compute_tree(PeerId src) const;
  OverlayPath materialize(PeerId dst, const RouteTree& tree) const;

  std::vector<net::NodeIdx> peer_node_;
  std::vector<OverlayLink> links_;
  std::vector<std::uint32_t> offsets_;
  std::vector<OverlayAdjacency> adj_;
  std::vector<bool> alive_;
  std::size_t live_count_ = 0;
  std::size_t underwired_peers_ = 0;

  // Lazy exact routing state: per-source Dijkstra trees (12 bytes/peer,
  // not n OverlayPath objects) in a source-LRU, plus a bounded LRU of
  // materialized per-pair paths. Both cleared on liveness changes.
  util::LruCache<PeerId, RouteTree> tree_cache_;
  util::LruCache<util::PairKey<PeerId, PeerId>, OverlayPath, util::PairKeyHash>
      path_cache_{std::size_t(1) << 16};
  std::uint64_t route_cache_clears_ = 0;

  std::unique_ptr<net::LandmarkTable> estimator_;
};

inline const OverlayPath& OverlayPathRef::get() const {
  SPIDER_REQUIRE(path_ != nullptr);
  SPIDER_REQUIRE_MSG(net_ == nullptr || epoch_ == net_->route_epoch(),
                     "OverlayPathRef outlived a route-cache eviction");
  return *path_;
}

}  // namespace spider::overlay
