// Pastry DHT network (§3's decentralized service discovery substrate).
//
// PastryNetwork simulates a population of Pastry nodes, one per overlay
// peer, and executes the protocol's control flows:
//
//  * prefix routing with leaf-set delivery (route),
//  * the join protocol (routing-table rows harvested from the join path,
//    leaf set copied from the numerically closest node, announcements to
//    all acquired contacts),
//  * graceful leave (key handoff + removal notices) and abrupt failure
//    (lazy detection and repair during subsequent routing),
//  * replicated key/value storage (put/get with k-replication to leaf-set
//    successors, soft-state `refresh_replicas` for post-churn healing).
//
// Simulation shortcut (documented in DESIGN.md): protocol state changes
// are applied synchronously; *latency* is derived by the caller from the
// returned hop paths (each hop is one overlay message).  Message counts
// are tracked for the overhead experiments.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dht/routing_state.hpp"
#include "overlay/overlay.hpp"

namespace spider::obs {
class MetricsRegistry;
class Counter;
}  // namespace spider::obs

namespace spider::dht {

using overlay::PeerId;

/// Result of a routed operation: the peer hop sequence, starting at the
/// requester and ending at the delivery node.
struct RouteResult {
  std::vector<PeerId> path;
  bool ok = false;
  PeerId target() const { return path.empty() ? overlay::kInvalidPeer : path.back(); }
  std::size_t hops() const { return path.empty() ? 0 : path.size() - 1; }
};

struct GetResult {
  std::vector<std::string> values;
  std::vector<PeerId> path;
  bool found = false;
  std::size_t hops() const { return path.empty() ? 0 : path.size() - 1; }
};

class PastryNetwork {
 public:
  /// leaf_set_size is L (split into L/2 per side); replication is the
  /// number of nodes holding each key (owner + replicas).
  explicit PastryNetwork(int leaf_set_size = 16, int replication = 3);

  /// Enables Pastry's proximity-aware routing table maintenance: when a
  /// canonical cell is contested, the entry closer to the owner (by this
  /// metric, e.g. overlay delay) wins. Routing stays prefix-correct; the
  /// heuristic only lowers per-hop transit cost.
  void set_proximity(std::function<double(PeerId, PeerId)> proximity_fn) {
    proximity_fn_ = std::move(proximity_fn);
  }

  // ----- membership -----

  /// Adds the first node (no routing possible yet).
  void bootstrap(PeerId peer, NodeId id);

  /// Joins `peer` through `bootstrap_peer`. Returns the join route.
  RouteResult join(PeerId peer, NodeId id, PeerId bootstrap_peer);

  /// Offline world construction: loads every (id, peer) pair at once and
  /// builds canonical routing state straight from the sorted id space —
  /// leaf sets are the exact L/2 ring-closest per side, and each routing
  /// cell holds the proximity-argmin (first-in-id-order without a
  /// proximity metric) over its candidate subrange — instead of N routed
  /// joins. Construction is out-of-band, so no protocol messages are
  /// counted. Requires an empty network and ids sorted ascending,
  /// distinct.
  ///
  /// `jobs > 1` fills per-node state on a WorkerPool (each node writes
  /// only itself; the sorted array is shared read-only) — identical state
  /// at any job count, but the proximity callback must then be
  /// thread-safe. `candidate_budget` caps how many candidates a contested
  /// cell scans (the window of the subrange numerically closest to the
  /// owner); 0 scans the full subrange, which is what the join-parity
  /// oracle test uses.
  void bulk_load(const std::vector<std::pair<NodeId, PeerId>>& entries,
                 std::size_t jobs = 1, std::size_t candidate_budget = 8);

  /// Graceful departure: keys handed to the ring successor, contacts
  /// notified.
  void leave(PeerId peer);

  /// Abrupt failure: state and stored keys on `peer` are lost; other nodes
  /// discover the failure lazily while routing.
  void fail(PeerId peer);

  bool alive(PeerId peer) const;
  std::size_t live_count() const { return live_count_; }
  NodeId id_of(PeerId peer) const;
  std::optional<PeerId> peer_of(NodeId id) const;

  // ----- routing -----

  /// Routes a message from `from` toward `key`; delivers at the live node
  /// numerically closest to the key (per protocol state). Repairs stale
  /// entries encountered on the way.
  RouteResult route(PeerId from, NodeId key);

  /// Route computation with no side effects — no lazy repair, no message
  /// or metric accounting. On an all-live network route() mutates no
  /// protocol state either, so both return identical paths there; this
  /// variant is additionally safe to call concurrently. bulk_put's
  /// parallel phase runs on it.
  RouteResult route_readonly(PeerId from, NodeId key) const;

  // ----- replicated storage -----

  /// Appends `value` to the list stored under `key` (idempotent for equal
  /// values), replicating to the owner's leaf-set successors.
  RouteResult put(PeerId from, NodeId key, const std::string& value);

  /// Fetches the value list under `key`. Falls back to the delivery node's
  /// leaf set replicas if the owner lost the key to churn.
  GetResult get(PeerId from, NodeId key);

  struct BulkPutItem {
    PeerId from = 0;
    NodeId key;
    std::string value;
  };

  /// Byte-equivalent to calling put() for each item in order — same
  /// stores, same message and metric totals — but the route computations
  /// run read-only across `jobs` workers first (routing state never
  /// depends on stores, so precomputed routes equal the sequential ones).
  /// Requires every node alive: lazy repair must have nothing to do.
  void bulk_put(const std::vector<BulkPutItem>& items, std::size_t jobs = 1);

  /// Removes `value` from `key`'s list on all live replicas holding it.
  void erase(NodeId key, const std::string& value);

  /// Soft-state anti-entropy: every live node re-replicates the keys it
  /// stores to the current owner + successors and drops keys it no longer
  /// has any claim to. Call periodically under churn (the paper's service
  /// registrations are soft state refreshed by their owners).
  void refresh_replicas();

  /// Periodic leaf-set maintenance (Pastry's leaf set exchange): every
  /// live node prunes dead entries and pulls replacements from surviving
  /// members' leaf sets for `rounds` gossip rounds. Heals the routing
  /// state after bursts of simultaneous failures that lazy per-lookup
  /// repair alone cannot absorb.
  void stabilize(int rounds = 2);

  // ----- introspection / verification -----

  /// Ground-truth owner: live node numerically closest to the key. Used by
  /// tests to validate protocol routing; never used by the protocol.
  PeerId owner_oracle(NodeId key) const;

  std::uint64_t messages_sent() const { return messages_; }
  void reset_message_counter() { messages_ = 0; }

  /// Attaches a metrics registry (null detaches). Publishes cumulative
  /// "dht.*" counters: routed operations and the hops they took.
  void set_metrics(obs::MetricsRegistry* metrics);

  const LeafSet& leaf_set(PeerId peer) const;
  const RoutingTable& routing_table(PeerId peer) const;

 private:
  struct Node {
    NodeId id;
    PeerId peer;
    bool alive = true;
    LeafSet leaves;
    RoutingTable table;
    // key -> list of distinct values (the paper's metadata lists).
    std::unordered_map<NodeId, std::vector<std::string>, NodeIdHash> store;

    Node(NodeId node_id, PeerId p, int leaf_half)
        : id(node_id), peer(p), leaves(node_id, leaf_half), table(node_id) {}
  };

  Node& node(PeerId peer);
  const Node& node(PeerId peer) const;
  Node& node_by_id(NodeId id);
  const Node& node_by_id(NodeId id) const;
  bool alive_id(NodeId id) const;

  /// One protocol routing step at `cur` toward `key`; returns the next
  /// node id or nullopt when `cur` is the delivery node. Lazy repair is
  /// chosen at compile time by the constness of `self`: a mutable
  /// network (route) removes the dead entries it trips over, a const one
  /// (route_readonly) only reads. With every node alive the repair
  /// branches are unreachable, so both decide identically.
  template <class Self, class N>
  static std::optional<NodeId> next_hop(Self& self, N& cur, NodeId key);
  /// The hop-by-hop route walk over next_hop, with no accounting.
  template <class Self>
  static RouteResult walk(Self& self, PeerId from, NodeId key);
  /// Counts one routed operation: its hop messages and dht.* metrics.
  void count_route(const RouteResult& route);
  /// Fills one bulk-loaded node's leaf set and routing table from the
  /// sorted id array (bulk_load's per-node worker body).
  void bulk_fill_node(Node& x,
                      const std::vector<std::pair<NodeId, PeerId>>& entries,
                      std::size_t index, std::size_t candidate_budget);

  /// Inserts `who` into `target`'s routing table, applying the proximity
  /// preference when the canonical cell is already occupied.
  void table_insert(Node& target, NodeId who);
  /// Introduces `who` into `target`'s leaf set and routing table.
  void introduce(Node& target, NodeId who);
  /// Removes `who` from `target`'s state and repairs the leaf set from
  /// surviving members' leaf sets.
  void expel(Node& target, NodeId who);
  void repair_leafset(Node& n);

  /// Stores value at the owner node and its replication-1 successors.
  void store_at_replicas(Node& owner, NodeId key, const std::string& value);
  static void append_unique(std::vector<std::string>& list,
                            const std::string& value);

  int leaf_half_;
  int replication_;
  std::function<double(PeerId, PeerId)> proximity_fn_;
  std::unordered_map<PeerId, Node> nodes_;
  std::map<NodeId, PeerId> ring_;  // all (incl. dead) for oracle + id map
  std::size_t live_count_ = 0;
  std::uint64_t messages_ = 0;

  // Observability (all null when no registry is attached).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_routes_ = nullptr;
  obs::Counter* m_route_hops_ = nullptr;
};

}  // namespace spider::dht
