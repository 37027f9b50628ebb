// Fault injection: lossy links, delay jitter and reordering.
//
// The paper's recovery claims (§5, Fig 9) are only meaningful when the
// network misbehaves: a BCP probe can vanish, a liveness probe can time
// out without the peer being dead, a failure notification can get lost.
// The LinkFaultModel gives every overlay link a fault profile — message
// loss probability, uniform delay jitter, and a reorder probability that
// delays a message into a bounded window so later messages can overtake
// it — and the protocol layers (BCP probing, session liveness probing)
// consult it per message.
//
// Determinism: outcomes are NOT drawn from a shared RNG stream. Every
// sample is a pure hash of (model seed, caller-supplied message key,
// link id), so the outcome of a given message is independent of the
// order messages are sampled in. BCP decisions therefore do not depend on
// the order probes are processed in (same guarantee the engine's hashed
// metric noise provides, see core/bcp.cpp), and runs stay reproducible
// under refactors that reorder event processing.
//
// Zero-cost when clean: `active()` is false while every profile is
// all-zero, and callers skip sampling entirely — a run with a clean
// model attached is bit-identical to a run with no model at all.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>

#include "overlay/overlay.hpp"

namespace spider::obs {
class MetricsRegistry;
class Counter;
}  // namespace spider::obs

namespace spider::fault {

using overlay::OverlayLinkId;
using overlay::PeerId;

/// Fault knobs of one overlay link (or the model-wide default).
struct LinkFaultProfile {
  /// Probability a message traversing the link is dropped.
  double loss = 0.0;
  /// Max uniform extra one-way delay added by the link, in ms.
  double jitter_ms = 0.0;
  /// Probability the link delays a message into the reorder window,
  /// letting messages sent later overtake it.
  double reorder = 0.0;
  /// Extra delay (uniform in [0, window]) applied to reordered messages.
  double reorder_window_ms = 50.0;

  bool clean() const { return loss <= 0.0 && jitter_ms <= 0.0 && reorder <= 0.0; }
};

/// Outcome of one sampled message transmission.
struct DeliveryOutcome {
  bool delivered = true;
  double extra_delay_ms = 0.0;  ///< jitter + reorder delay (0 when lost)
  bool reordered = false;
};

/// Per-overlay-link fault model with deterministic hash-based sampling.
class LinkFaultModel {
 public:
  LinkFaultModel() = default;
  explicit LinkFaultModel(LinkFaultProfile default_profile,
                          std::uint64_t seed = 0xfa17u)
      : default_(default_profile), seed_(seed) {}

  /// Convenience: uniform loss on every link, no jitter/reorder.
  static LinkFaultModel uniform_loss(double loss, std::uint64_t seed = 0xfa17u) {
    LinkFaultProfile p;
    p.loss = loss;
    return LinkFaultModel(p, seed);
  }

  void set_default(const LinkFaultProfile& profile) { default_ = profile; }
  const LinkFaultProfile& default_profile() const { return default_; }

  /// Overrides the profile of one link (wins over the default).
  void set_link(OverlayLinkId link, const LinkFaultProfile& profile) {
    overrides_[link] = profile;
  }
  void clear_link(OverlayLinkId link) { overrides_.erase(link); }
  const LinkFaultProfile& profile(OverlayLinkId link) const {
    auto it = overrides_.find(link);
    return it == overrides_.end() ? default_ : it->second;
  }

  /// True if any profile can affect a message. Callers skip sampling
  /// (and therefore behave bit-identically to a fault-free run) when
  /// this is false.
  bool active() const;

  /// Samples delivery of one message across an overlay path. `msg_key`
  /// must identify the message (and transmission attempt) uniquely to
  /// the caller; the same key always yields the same outcome. An empty
  /// path (local delivery) always succeeds.
  DeliveryOutcome sample_path(std::span<const OverlayLinkId> links,
                              std::uint64_t msg_key) const;

  /// Single-link convenience.
  DeliveryOutcome sample_link(OverlayLinkId link, std::uint64_t msg_key) const {
    return sample_path(std::span<const OverlayLinkId>(&link, 1), msg_key);
  }

  /// One request/response round trip over `links`: the request and its
  /// ack are independent transmissions (ack key derived from `msg_key`).
  /// `delivered` means both legs survived; `extra_delay_ms` sums both
  /// legs' jitter. Used by session liveness probes and the lifecycle
  /// control legs (confirm / teardown / switch-activation).
  DeliveryOutcome sample_round_trip(std::span<const OverlayLinkId> links,
                                    std::uint64_t msg_key) const;

  /// Samples one message over a single virtual link carrying the default
  /// profile — for traffic whose concrete route is not modeled, e.g. a
  /// failure notification originating at a crashed peer's neighborhood
  /// (the crashed peer itself has no routable path).
  DeliveryOutcome sample_default(std::uint64_t msg_key) const;

  /// Publishes "fault.msg_*" counters (null detaches).
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  /// One link's draws for a message under draw key `k`: loss, jitter,
  /// reorder. Adds jitter and reorder delay to `out`; on loss resets
  /// `out` to undelivered, counts it and returns false.
  bool draw(const LinkFaultProfile& p, std::uint64_t k,
            DeliveryOutcome& out) const;
  /// Counts a message that survived every link and returns it.
  DeliveryOutcome delivered(DeliveryOutcome out) const;

  LinkFaultProfile default_;
  std::unordered_map<OverlayLinkId, LinkFaultProfile> overrides_;
  std::uint64_t seed_ = 0xfa17u;

  // Cached instruments (sample_path is logically const; counting
  // delivery outcomes does not change the model).
  mutable obs::Counter* m_delivered_ = nullptr;
  mutable obs::Counter* m_lost_ = nullptr;
  mutable obs::Counter* m_delayed_ = nullptr;
  mutable obs::Counter* m_reordered_ = nullptr;
};

}  // namespace spider::fault
