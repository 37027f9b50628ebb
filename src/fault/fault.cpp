#include "fault/fault.hpp"

#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace spider::fault {
namespace {

/// mix64 output folded to a uniform double in [0, 1).
double unit_hash(std::uint64_t x) {
  return double(util::mix64(x) >> 11) * 0x1.0p-53;
}

}  // namespace

bool LinkFaultModel::active() const {
  if (!default_.clean()) return true;
  for (const auto& [link, profile] : overrides_) {
    if (!profile.clean()) return true;
  }
  return false;
}

bool LinkFaultModel::draw(const LinkFaultProfile& p, std::uint64_t k,
                          DeliveryOutcome& out) const {
  // Three independent draws per (message, link): loss, jitter, reorder.
  if (p.loss > 0.0 && unit_hash(k) < p.loss) {
    out = DeliveryOutcome{false, 0.0, false};
    if (m_lost_ != nullptr) m_lost_->inc();
    return false;
  }
  if (p.jitter_ms > 0.0) {
    const double extra = p.jitter_ms * unit_hash(k + 1);
    out.extra_delay_ms += extra;
    if (extra > 0.0 && m_delayed_ != nullptr) m_delayed_->inc();
  }
  if (p.reorder > 0.0 && unit_hash(k + 2) < p.reorder) {
    out.extra_delay_ms += p.reorder_window_ms * unit_hash(k + 3);
    out.reordered = true;
  }
  return true;
}

DeliveryOutcome LinkFaultModel::delivered(DeliveryOutcome out) const {
  if (out.reordered && m_reordered_ != nullptr) m_reordered_->inc();
  if (m_delivered_ != nullptr) m_delivered_->inc();
  return out;
}

DeliveryOutcome LinkFaultModel::sample_path(
    std::span<const OverlayLinkId> links, std::uint64_t msg_key) const {
  DeliveryOutcome out;
  const std::uint64_t base = seed_ ^ util::mix64(msg_key);
  for (OverlayLinkId link : links) {
    const LinkFaultProfile& p = profile(link);
    if (p.clean()) continue;
    const std::uint64_t k =
        base ^ (std::uint64_t(link) + 1) * 0x9e3779b97f4a7c15ULL;
    if (!draw(p, k, out)) return out;
  }
  return delivered(out);
}

DeliveryOutcome LinkFaultModel::sample_round_trip(
    std::span<const OverlayLinkId> links, std::uint64_t msg_key) const {
  // Request and ack legs are independent transmissions. The ack is only
  // sampled when the request survives (the receiver never saw it
  // otherwise), which also keeps fault.msg_* counts identical to callers
  // that short-circuited the two sample_path calls by hand.
  DeliveryOutcome request = sample_path(links, msg_key);
  if (!request.delivered) return request;
  DeliveryOutcome ack =
      sample_path(links, util::hash_values(msg_key, std::uint64_t{0xacu}));
  ack.extra_delay_ms += request.extra_delay_ms;
  ack.reordered = ack.reordered || request.reordered;
  return ack;
}

DeliveryOutcome LinkFaultModel::sample_default(std::uint64_t msg_key) const {
  DeliveryOutcome out;
  if (default_.clean()) return out;
  // The path draws of one link, with a link-independent key.
  if (!draw(default_, seed_ ^ util::mix64(msg_key), out)) return out;
  return delivered(out);
}

void LinkFaultModel::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_delivered_ = m_lost_ = m_delayed_ = m_reordered_ = nullptr;
    return;
  }
  m_delivered_ = &metrics->counter("fault.msg_delivered");
  m_lost_ = &metrics->counter("fault.msg_lost");
  m_delayed_ = &metrics->counter("fault.msg_delayed");
  m_reordered_ = &metrics->counter("fault.msg_reordered");
}

}  // namespace spider::fault
