// Service graph (§2.2) and composite service request (§2.1).
//
// A service graph is the concrete half of the two-dimensional mapping: a
// composition pattern (function graph variant) whose nodes are bound to
// specific component replicas on specific peers, with every service link
// resolved to an overlay network path.  Aggregate QoS / failure / cost
// fields are filled in by the evaluator in `core` (they depend on overlay
// metrics and current resource availability).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "overlay/overlay.hpp"
#include "service/component.hpp"
#include "service/function_graph.hpp"
#include "service/qos.hpp"

namespace spider::service {

/// The user's composite service request: function graph + QoS and resource
/// requirements (§2.1).
struct CompositeRequest {
  FunctionGraph graph;
  Qos qos_req = Qos::delay_loss(0.0);  ///< upper bound per additive metric
  double bandwidth_kbps = 0.0;         ///< stream bandwidth on service links
  double max_failure_prob = 1.0;       ///< F^req for backup sizing (Eq. 2)
  overlay::PeerId source = overlay::kInvalidPeer;
  overlay::PeerId dest = overlay::kInvalidPeer;
  /// Application quality level of the raw stream the source provides
  /// (§2.2's Q_in/Q_out model: a component accepts inputs whose level is
  /// >= its input_level and emits its output_level).
  std::uint32_t source_level = 0;
  /// Minimum quality level the destination accepts.
  std::uint32_t min_dest_level = 0;
};

/// One resolved data link of a service graph: either between two function
/// nodes, from the source peer into an entry node, or from an exit node to
/// the destination peer.
struct ServiceLinkHop {
  static constexpr FnNode kEndpoint = static_cast<FnNode>(-1);
  FnNode from = kEndpoint;  ///< kEndpoint == the session source peer
  FnNode to = kEndpoint;    ///< kEndpoint == the session destination peer
  overlay::PeerId from_peer = overlay::kInvalidPeer;
  overlay::PeerId to_peer = overlay::kInvalidPeer;
  overlay::OverlayPath path;  ///< resolved overlay route (may be empty if
                              ///< from_peer == to_peer)
};

/// A fully instantiated composition candidate.
struct ServiceGraph {
  FunctionGraph pattern;                   ///< composition pattern used
  std::vector<ComponentMetadata> mapping;  ///< per function node
  overlay::PeerId source = overlay::kInvalidPeer;
  overlay::PeerId dest = overlay::kInvalidPeer;
  std::vector<ServiceLinkHop> hops;  ///< all resolved data links

  // --- filled by core::GraphEvaluator ---
  Qos qos = Qos::delay_loss(0.0);  ///< accumulated end-to-end QoS
  double failure_prob = 0.0;       ///< estimated session failure probability
  double psi_cost = 0.0;           ///< Eq. 1 load-balancing cost
  bool evaluated = false;

  /// Set of component instances used (for backup disjointness tests).
  std::unordered_set<ComponentId> component_set() const;
  bool uses_component(ComponentId id) const;
  bool uses_peer(overlay::PeerId peer) const;
  /// Number of components shared with `other`.
  std::size_t overlap(const ServiceGraph& other) const;
  /// True when both graphs bind every shared function to the same replica.
  bool same_mapping(const ServiceGraph& other) const;
};

/// What a resolved service graph asks of its peers and links while a
/// session holds it: the summed component resources per hosting peer
/// (a peer may host several of the graph's components) and the stream
/// rate summed per overlay link (several hops may cross one link). The
/// soft allocation of §4.2 step 2.1, its direct-grant twin and the §5
/// backup switch all admit exactly this. Peers are inserted in mapping
/// order and links in hop order, so iteration order is a pure function
/// of the graph; a zero stream rate demands no link at all.
struct GraphDemand {
  GraphDemand() = default;
  GraphDemand(const ServiceGraph& graph, double kbps);

  std::unordered_map<overlay::PeerId, Resources> peers;
  std::unordered_map<overlay::OverlayLinkId, double> links;
};

}  // namespace spider::service
