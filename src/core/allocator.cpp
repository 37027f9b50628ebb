#include "core/allocator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"

namespace spider::core {

void AllocationManager::set_metrics(obs::MetricsRegistry* metrics) {
  m_reserved_ = obs::counter_handle(metrics, "alloc.holds_reserved");
  m_reserve_failures_ = obs::counter_handle(metrics, "alloc.reserve_failures");
  m_confirmed_ = obs::counter_handle(metrics, "alloc.holds_confirmed");
  m_confirm_failures_ = obs::counter_handle(metrics, "alloc.confirm_failures");
  m_released_ = obs::counter_handle(metrics, "alloc.holds_released");
  m_expired_ = obs::counter_handle(metrics, "alloc.holds_expired");
  m_direct_grants_ = obs::counter_handle(metrics, "alloc.direct_grants");
  m_direct_grant_failures_ =
      obs::counter_handle(metrics, "alloc.direct_grant_failures");
  m_holds_outstanding_ = obs::gauge_handle(metrics, "alloc.holds_outstanding");
  m_grants_outstanding_ =
      obs::gauge_handle(metrics, "alloc.grants_outstanding");
  m_lease_renewals_ = obs::counter_handle(metrics, "alloc.lease_renewals");
  m_lease_expirations_ =
      obs::counter_handle(metrics, "alloc.lease_expirations");
  m_lease_reclaimed_kbps_ =
      obs::counter_handle(metrics, "alloc.lease_reclaimed_kbps");
  m_admission_rejects_ =
      obs::counter_handle(metrics, "alloc.admission_rejects");
  m_admission_queued_ = obs::counter_handle(metrics, "alloc.admission_queued");
  m_admission_queue_wait_ms_ =
      obs::counter_handle(metrics, "alloc.admission_queue_wait_ms");
  m_admission_queue_wait_hist_ = obs::histogram_handle(
      metrics, "alloc.admission_queue_wait",
      {5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
       10000.0, 20000.0});
  m_admission_queue_depth_ =
      obs::gauge_handle(metrics, "alloc.admission_queue_depth");
  m_admission_mark_ = obs::gauge_handle(metrics, "alloc.admission_mark");
  update_outstanding_gauges();
}

void AllocationManager::update_outstanding_gauges() {
  if (m_holds_outstanding_ != nullptr) {
    m_holds_outstanding_->set(double(holds_.size()));
  }
  if (m_grants_outstanding_ != nullptr) {
    m_grants_outstanding_->set(double(grants_.size()));
  }
}

std::optional<AllocationManager::Hold> AllocationManager::remove_hold(
    HoldId hold_id, obs::Counter* outcome) {
  // A path hold spans several links and its expiry may be observed from
  // any of them; remove it from *every* structure it touches at once so
  // no link/peer keeps a dangling entry (and the outstanding-hold gauge
  // never disagrees with availability).
  auto it = holds_.find(hold_id);
  if (it == holds_.end()) return std::nullopt;
  Hold hold = std::move(it->second);
  holds_.erase(it);
  if (hold.peer != overlay::kInvalidPeer) {
    peer_state_[hold.peer].soft.erase(hold_id);
  }
  for (overlay::OverlayLinkId link : hold.links) {
    link_state_[link].soft.erase(hold_id);
  }
  if (outcome != nullptr) outcome->inc();
  return hold;
}

template <class HoldMap>
void AllocationManager::purge_expired(const HoldMap& holds) {
  const sim::Time now = sim_->now();
  // Collect first: remove_hold mutates `holds`.
  std::vector<HoldId> expired;
  for (const auto& [id, hold] : holds) {
    if (hold.expire_at <= now) expired.push_back(id);
  }
  if (expired.empty()) return;
  for (HoldId id : expired) remove_hold(id, m_expired_);
  update_outstanding_gauges();
}

void AllocationManager::sweep_expired() { purge_expired(holds_); }

service::Resources AllocationManager::peer_available(PeerId peer) {
  SPIDER_REQUIRE(peer < peer_state_.size());
  PeerState& state = peer_state_[peer];
  purge_expired(state.soft);
  service::Resources avail = deployment_->capacity(peer) - state.confirmed;
  for (const auto& [hold, ph] : state.soft) avail -= ph.amount;
  return avail;
}

double AllocationManager::link_available_kbps(overlay::OverlayLinkId link) {
  SPIDER_REQUIRE(link < link_state_.size());
  LinkState& state = link_state_[link];
  purge_expired(state.soft);
  double avail =
      deployment_->overlay().link(link).capacity_kbps - state.confirmed_kbps;
  for (const auto& [hold, lh] : state.soft) avail -= lh.kbps;
  return avail;
}

std::optional<HoldId> AllocationManager::soft_reserve_peer(
    PeerId peer, const service::Resources& amount, sim::Time expire_at) {
  SPIDER_REQUIRE(amount.non_negative());
  if (!amount.fits_within(peer_available(peer))) {
    if (m_reserve_failures_ != nullptr) m_reserve_failures_->inc();
    return std::nullopt;
  }
  const HoldId id = next_hold_id_++;
  peer_state_[peer].soft.emplace(id, PeerHold{amount, expire_at});
  Hold hold;
  hold.peer = peer;
  hold.peer_amount = amount;
  hold.expire_at = expire_at;
  holds_.emplace(id, std::move(hold));
  if (m_reserved_ != nullptr) {
    m_reserved_->inc();
    update_outstanding_gauges();
  }
  return id;
}

std::optional<HoldId> AllocationManager::soft_reserve_path(
    const overlay::OverlayPath& path, double kbps, sim::Time expire_at) {
  SPIDER_REQUIRE(kbps >= 0.0);
  for (overlay::OverlayLinkId link : path.links) {
    if (link_available_kbps(link) < kbps) {
      if (m_reserve_failures_ != nullptr) m_reserve_failures_->inc();
      return std::nullopt;
    }
  }
  const HoldId id = next_hold_id_++;
  for (overlay::OverlayLinkId link : path.links) {
    link_state_[link].soft.emplace(id, LinkHold{kbps, expire_at});
  }
  Hold hold;
  hold.links = path.links;
  hold.kbps = kbps;
  hold.expire_at = expire_at;
  holds_.emplace(id, std::move(hold));
  if (m_reserved_ != nullptr) {
    m_reserved_->inc();
    update_outstanding_gauges();
  }
  return id;
}

bool AllocationManager::confirm(HoldId hold_id, SessionId session) {
  auto it = holds_.find(hold_id);
  if (it == holds_.end() || it->second.expire_at <= sim_->now()) {
    if (it != holds_.end()) release_hold(hold_id);
    if (m_confirm_failures_ != nullptr) m_confirm_failures_->inc();
    return false;
  }
  Hold hold = *remove_hold(hold_id, nullptr);
  add_grant(Grant{session, hold.peer, hold.peer_amount, std::move(hold.links),
                  hold.kbps});
  stamp_lease(session);
  if (m_confirmed_ != nullptr) {
    m_confirmed_->inc();
    update_outstanding_gauges();
  }
  return true;
}

bool AllocationManager::confirm_all(const std::vector<HoldId>& holds,
                                    SessionId session) {
  for (std::size_t i = 0; i < holds.size(); ++i) {
    if (confirm(holds[i], session)) continue;
    // confirm() already dropped the failed hold if it still existed.
    release_session(session);
    for (std::size_t j = i + 1; j < holds.size(); ++j) release_hold(holds[j]);
    return false;
  }
  return true;
}

void AllocationManager::add_grant(Grant grant) {
  if (grant.peer != overlay::kInvalidPeer) {
    peer_state_[grant.peer].confirmed += grant.peer_amount;
    granted_total_ += grant.peer_amount;
  }
  for (overlay::OverlayLinkId link : grant.links) {
    link_state_[link].confirmed_kbps += grant.kbps;
  }
  grants_[grant.session].push_back(std::move(grant));
}

void AllocationManager::refresh_capacity_snapshot() {
  capacity_epoch_ = deployment_->liveness_epoch();
  capacity_total_ = service::Resources{};
  for (PeerId p = 0; p < PeerId(peer_state_.size()); ++p) {
    if (deployment_->peer_alive(p)) capacity_total_ += deployment_->capacity(p);
  }
}

void AllocationManager::set_admission(const AdmissionConfig& config) {
  const std::size_t new_classes =
      config.classes.empty() ? 1 : config.classes.size();
  for (const AdmissionClassConfig& cls : config.classes) {
    SPIDER_REQUIRE_MSG(cls.weight > 0.0,
                       "admission class weights must be positive");
  }
  if (new_classes != class_state_.size()) {
    SPIDER_REQUIRE_MSG(admission_queue_depth_ == 0,
                       "cannot change admission class count while queued");
    class_state_.assign(new_classes, AdmissionClassState{});
    drr_cursor_ = 0;
  }
  admission_ = config;
  admission_mark_ =
      admission_.adaptive
          ? std::clamp(admission_.high_water_utilization, admission_.mark_floor,
                       admission_.mark_ceiling)
          : admission_.high_water_utilization;
  window_attempts_ = window_failures_ = window_setup_count_ = 0;
  window_setup_sum_ms_ = 0.0;
  refresh_capacity_snapshot();
}

double AllocationManager::grant_utilization() {
  if (capacity_epoch_ != deployment_->liveness_epoch()) {
    refresh_capacity_snapshot();
  }
  double util = 0.0;
  for (std::size_t i = 0; i < service::Resources::kTypes; ++i) {
    if (capacity_total_.v[i] > 0.0) {
      util = std::max(util, granted_total_.v[i] / capacity_total_.v[i]);
    }
  }
  return util;
}

AllocationManager::AdmissionDecision AllocationManager::admit_setup(
    std::size_t cls) {
  if (admission_.high_water_utilization < 0.0) {
    return AdmissionDecision::kAdmit;
  }
  SPIDER_REQUIRE(cls < class_state_.size());
  if (admission_queue_depth_ == 0 && admission_open()) {
    return AdmissionDecision::kAdmit;
  }
  AdmissionClassState& state = class_state_[cls];
  if (state.depth < class_queue_capacity(cls)) {
    ++state.depth;
    ++state.queued;
    ++admission_queue_depth_;
    ++admission_queued_count_;
    if (m_admission_queued_ != nullptr) {
      m_admission_queued_->inc();
      m_admission_queue_depth_->set(double(admission_queue_depth_));
    }
    return AdmissionDecision::kQueue;
  }
  ++state.rejects;
  ++admission_rejects_;
  if (m_admission_rejects_ != nullptr) m_admission_rejects_->inc();
  return AdmissionDecision::kReject;
}

void AllocationManager::admission_dequeued(double wait_ms, std::size_t cls) {
  SPIDER_REQUIRE(cls < class_state_.size());
  SPIDER_REQUIRE(class_state_[cls].depth > 0);
  --class_state_[cls].depth;
  --admission_queue_depth_;
  admission_queue_wait_ms_ += wait_ms;
  if (m_admission_queue_wait_ms_ != nullptr) {
    m_admission_queue_wait_ms_->inc(std::uint64_t(std::llround(wait_ms)));
    m_admission_queue_wait_hist_->observe(wait_ms);
    m_admission_queue_depth_->set(double(admission_queue_depth_));
  }
}

std::optional<std::size_t> AllocationManager::admission_next_class() {
  if (admission_queue_depth_ == 0 || !admission_open()) return std::nullopt;
  const std::size_t n = class_state_.size();
  if (n == 1) return 0;  // plain FIFO: no deficit arithmetic, ever
  // Deficit round robin, one served request per call (cost 1.0). The
  // cursor stays on a class while its credit lasts; a visited backlogged
  // class without credit earns its weight and, if still short, records a
  // starvation skip and yields the pass. Positive weights bound the
  // number of passes any backlogged class can be skipped by ~1/weight.
  double min_weight = admission_.classes[0].weight;
  for (const AdmissionClassConfig& cls : admission_.classes) {
    min_weight = std::min(min_weight, cls.weight);
  }
  const std::size_t guard =
      n * (2 + std::size_t(std::ceil(1.0 / min_weight)));
  for (std::size_t pass = 0; pass < guard; ++pass) {
    const std::size_t cls = drr_cursor_;
    AdmissionClassState& state = class_state_[cls];
    if (state.depth == 0) {
      state.deficit = 0.0;  // idle classes do not bank credit
      drr_cursor_ = (drr_cursor_ + 1) % n;
      continue;
    }
    if (state.deficit < 1.0) {
      state.deficit += admission_.classes[cls].weight;
      if (state.deficit < 1.0) {
        ++state.skips;
        drr_cursor_ = (drr_cursor_ + 1) % n;
        continue;
      }
    }
    state.deficit -= 1.0;
    // Burst over (credit spent): yield the rest of the round to the next
    // class, else a backlogged heavy class would re-earn its quantum on
    // every call and starve everyone behind it.
    if (state.deficit < 1.0) drr_cursor_ = (drr_cursor_ + 1) % n;
    return cls;
  }
  SPIDER_REQUIRE_MSG(false, "DRR failed to pick a backlogged class");
  return std::nullopt;
}

bool AllocationManager::admission_open() {
  return admission_.high_water_utilization < 0.0 ||
         grant_utilization() < admission_mark_;
}

void AllocationManager::admission_observe_setup(bool success,
                                                double setup_ms) {
  ++window_attempts_;
  if (success) {
    ++window_setup_count_;
    window_setup_sum_ms_ += setup_ms;
  } else {
    ++window_failures_;
  }
}

void AllocationManager::admission_controller_tick() {
  if (!admission_.adaptive || admission_.high_water_utilization < 0.0) return;
  if (window_attempts_ > 0) {
    bool breach = false;
    if (admission_.target_failure_rate >= 0.0) {
      breach |= double(window_failures_) / double(window_attempts_) >
                admission_.target_failure_rate;
    }
    if (admission_.target_setup_ms > 0.0 && window_setup_count_ > 0) {
      breach |= window_setup_sum_ms_ / double(window_setup_count_) >
                admission_.target_setup_ms;
    }
    admission_mark_ =
        breach ? std::max(admission_.mark_floor,
                          admission_mark_ * admission_.decrease_factor)
               : std::min(admission_.mark_ceiling,
                          admission_mark_ + admission_.increase_step);
  }
  window_attempts_ = window_failures_ = window_setup_count_ = 0;
  window_setup_sum_ms_ = 0.0;
  if (m_admission_mark_ != nullptr) m_admission_mark_->set(admission_mark_);
}

void AllocationManager::stamp_lease(SessionId session) {
  if (lease_ttl_ms_ <= 0.0) return;
  lease_renew_by_[session] = sim_->now() + lease_ttl_ms_;
}

void AllocationManager::renew_session(SessionId session) {
  if (lease_ttl_ms_ <= 0.0) return;
  auto it = lease_renew_by_.find(session);
  if (it == lease_renew_by_.end()) return;
  it->second = sim_->now() + lease_ttl_ms_;
  ++lease_renewals_;
  if (m_lease_renewals_ != nullptr) m_lease_renewals_->inc();
}

std::optional<sim::Time> AllocationManager::lease_renew_by(
    SessionId session) const {
  auto it = lease_renew_by_.find(session);
  if (it == lease_renew_by_.end()) return std::nullopt;
  return it->second;
}

void AllocationManager::count_lease_reclaim(const std::vector<Grant>& grants) {
  double kbps = 0.0;
  for (const Grant& grant : grants) {
    kbps += grant.kbps * double(grant.links.size());
  }
  lease_reclaimed_kbps_ += kbps;
  ++lease_expirations_;
  if (m_lease_expirations_ != nullptr) {
    m_lease_expirations_->inc();
    m_lease_reclaimed_kbps_->inc(std::uint64_t(std::llround(kbps)));
  }
}

std::size_t AllocationManager::reclaim_expired_leases() {
  if (lease_ttl_ms_ <= 0.0) return 0;
  const sim::Time now = sim_->now();
  std::vector<SessionId> expired;
  for (const auto& [session, renew_by] : lease_renew_by_) {
    if (renew_by <= now) expired.push_back(session);
  }
  // Deterministic reclaim order (the map iterates in hash order).
  std::sort(expired.begin(), expired.end());
  for (SessionId session : expired) {
    if (auto it = grants_.find(session); it != grants_.end()) {
      count_lease_reclaim(it->second);
    }
    release_session(session);
  }
  return expired.size();
}

void AllocationManager::release_hold(HoldId hold_id) {
  if (remove_hold(hold_id, m_released_)) update_outstanding_gauges();
}

void AllocationManager::release_session(SessionId session) {
  lease_renew_by_.erase(session);
  auto it = grants_.find(session);
  if (it == grants_.end()) return;
  for (const Grant& grant : it->second) {
    if (grant.peer != overlay::kInvalidPeer) {
      peer_state_[grant.peer].confirmed -= grant.peer_amount;
      granted_total_ -= grant.peer_amount;
    }
    for (overlay::OverlayLinkId link : grant.links) {
      link_state_[link].confirmed_kbps -= grant.kbps;
    }
  }
  grants_.erase(it);
  update_outstanding_gauges();
}

bool AllocationManager::grant_direct(SessionId session,
                                     const service::GraphDemand& demand) {
  if (!fits(demand)) {
    if (m_direct_grant_failures_ != nullptr) m_direct_grant_failures_->inc();
    return false;
  }
  for (const auto& [peer, amount] : demand.peers) {
    add_grant(Grant{session, peer, amount, {}, 0.0});
  }
  for (const auto& [link, kbps] : demand.links) {
    add_grant(Grant{session, overlay::kInvalidPeer, {}, {link}, kbps});
  }
  stamp_lease(session);
  if (m_direct_grants_ != nullptr) {
    m_direct_grants_->inc();
    update_outstanding_gauges();
  }
  return true;
}

std::vector<SessionId> AllocationManager::granted_sessions() const {
  std::vector<SessionId> ids;
  ids.reserve(grants_.size());
  for (const auto& [session, grant_list] : grants_) ids.push_back(session);
  std::sort(ids.begin(), ids.end());
  return ids;
}

AllocationManager::SessionGrantTotals AllocationManager::session_grant_totals(
    SessionId session) const {
  SessionGrantTotals totals;
  auto it = grants_.find(session);
  if (it == grants_.end()) return totals;
  for (const Grant& grant : it->second) {
    if (grant.peer != overlay::kInvalidPeer) {
      totals.peer_total += grant.peer_amount;
    }
    totals.link_kbps_total += grant.kbps * double(grant.links.size());
    ++totals.grant_count;
  }
  return totals;
}

std::size_t AllocationManager::dangling_soft_entries() const {
  std::size_t dangling = 0;
  for (const PeerState& state : peer_state_) {
    for (const auto& [id, ph] : state.soft) dangling += holds_.count(id) == 0;
  }
  for (const LinkState& state : link_state_) {
    for (const auto& [id, lh] : state.soft) dangling += holds_.count(id) == 0;
  }
  return dangling;
}

}  // namespace spider::core
