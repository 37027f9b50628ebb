// Composite keys for the BCP soft-hold dedup maps.
//
// During probing, sibling probes of one request routinely need the same
// reservation — the same component on the same host, or the same overlay
// path between the same pair of service-graph nodes. The engine dedupes
// those through per-request maps so one request never double-reserves.
// The maps are also the one record of the request's holds: the selected
// graph's holds are read back from them by its nodes and hops.
//
// The seed implementation packed each tuple into a single uint64 with
// overlapping shifts (e.g. `(from << 48) ^ (to << 32) ^ (a << 16) ^ b`),
// which aliases distinct tuples: two different (node, peer, peer) triples
// could produce one key, silently REUSING a hold made for a different
// path/component and under-reserving bandwidth or peer resources. These
// struct keys carry every field at full width with field-wise equality,
// so a collision in the map requires an actual hash-table collision,
// which the map resolves correctly.
#pragma once

#include <cstddef>

#include "overlay/overlay.hpp"
#include "service/component.hpp"
#include "service/service_graph.hpp"
#include "util/hash.hpp"

namespace spider::core {

/// A request-shared bandwidth reservation: the overlay path carrying the
/// service link (from -> to) between two concrete peers.
struct SharedPathKey {
  service::FnNode from = 0;
  service::FnNode to = 0;
  overlay::PeerId src = 0;
  overlay::PeerId dst = 0;

  bool operator==(const SharedPathKey& o) const {
    return from == o.from && to == o.to && src == o.src && dst == o.dst;
  }
};

/// A request-shared component reservation: one replica bound to a
/// function-graph node.
struct SharedPeerKey {
  service::FnNode node = 0;
  service::ComponentId component = service::kInvalidComponent;

  bool operator==(const SharedPeerKey& o) const {
    return node == o.node && component == o.component;
  }
};

struct SharedPathKeyHash {
  std::size_t operator()(const SharedPathKey& k) const {
    return util::hash_values(k.from, k.to, k.src, k.dst);
  }
};

struct SharedPeerKeyHash {
  std::size_t operator()(const SharedPeerKey& k) const {
    return util::hash_values(k.node, k.component);
  }
};

}  // namespace spider::core
