#include "core/session.hpp"

#include <algorithm>
#include <cmath>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "util/hash.hpp"
#include "util/require.hpp"

namespace spider::core {

using service::ServiceGraph;

namespace {

// Message-kind tags namespacing the fault-sampling keys of lifecycle
// control legs (arbitrary distinct constants).
constexpr std::uint64_t kCtrlConfirm = 0xc0f1u;
constexpr std::uint64_t kCtrlTeardown = 0x7ead0u;
constexpr std::uint64_t kCtrlSwitch = 0x5a17c4u;
constexpr std::uint64_t kCtrlRenew = 0x1ea5eu;

}  // namespace

void SessionManager::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  for (std::size_t i = 0; i < m_counters_.size(); ++i) {
    m_counters_[i] = obs::counter_handle(metrics, kSessionCounters[i].metric);
  }
  m_active_sessions_ = obs::gauge_handle(metrics, "session.active");
  update_active_gauge();
}

void SessionManager::count(std::uint64_t SessionStats::*field,
                           std::uint64_t n) {
  stats_.*field += n;
  if (metrics_ == nullptr) return;
  for (std::size_t i = 0; i < m_counters_.size(); ++i) {
    if (kSessionCounters[i].field == field) m_counters_[i]->inc(n);
  }
}

void SessionManager::update_active_gauge() {
  if (m_active_sessions_ != nullptr) {
    m_active_sessions_->set(double(sessions_.size()));
  }
}

std::vector<overlay::OverlayLinkId> SessionManager::graph_route(
    const ServiceGraph& graph) {
  std::vector<overlay::OverlayLinkId> links;
  for (const auto& hop : graph.hops) {
    links.insert(links.end(), hop.path.links.begin(), hop.path.links.end());
  }
  return links;
}

void SessionManager::erase_session(SessionId id) {
  std::erase_if(ctrl_applied_,
                [id](const CtrlKey& k) { return k.session == id; });
  sessions_.erase(id);
}

SessionManager::CtrlOutcome SessionManager::send_control(
    Session& session, std::uint64_t tag,
    const std::vector<overlay::OverlayLinkId>& links) {
  CtrlOutcome out;
  if (fault_ == nullptr || !fault_->active()) {
    // Reliable network: one attempt, delivered and acked. Nothing is
    // counted, keeping fault-free runs bit-identical to the seed.
    out.acked = out.applied = true;
    return out;
  }
  const CtrlKey op{session.id, session.epoch, session.ctrl_seq++};
  const std::uint64_t op_key =
      util::hash_values(tag, op.session, op.epoch, op.seq);
  const int max_attempts = 1 + kCtrlRetryLimit;
  double rto = kCtrlMinRtoMs;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff between attempts. The exchange is synchronous
      // in the simulation, so the backoff is latency bookkeeping, not a
      // scheduled event.
      count(&SessionStats::ctrl_retransmits);
      stats_.ctrl_backoff_ms += rto;
      rto *= 2.0;
    }
    out.attempts = attempt + 1;
    const std::uint64_t key = util::hash_values(op_key, std::uint64_t(attempt));
    if (!fault_->sample_path(links, key).delivered) continue;  // request lost
    // The request arrived. The first delivery applies the operation; any
    // retransmitted duplicate hits the (session, epoch, seq) dedup set
    // and is merely re-acked — the operation is idempotent.
    if (!ctrl_applied_.insert(op).second) count(&SessionStats::ctrl_duplicates);
    out.applied = true;
    const std::uint64_t ack_key = util::hash_values(key, std::uint64_t{0xacu});
    if (fault_->sample_path(links, ack_key).delivered) {
      out.acked = true;
      return out;
    }
  }
  // Retry budget exhausted without an ack: the caller must degrade to
  // abort-and-release (or strand-and-let-leases-reclaim), never hang.
  return out;
}

int SessionManager::backup_count(const ServiceGraph& graph,
                                 const service::CompositeRequest& request,
                                 std::size_t qualified_total) const {
  SPIDER_REQUIRE(graph.evaluated);
  // Eq. 2: γ = min( ⌊U · (Σ qᵢ^λ/qᵢ^req + F^λ/F^req)⌋, C − 1 ).
  // A graph operating close to its QoS bounds (ratios near 1) or close to
  // the acceptable failure probability needs more backups.
  double margin = graph.qos.ratio_sum(request.qos_req);
  if (request.max_failure_prob > 0.0) {
    margin += graph.failure_prob / request.max_failure_prob;
  } else if (graph.failure_prob > 0.0) {
    margin += double(config_.backup_upper_bound);
  }
  const double scaled = config_.backup_aggressiveness * margin;
  int gamma = int(std::floor(std::min(scaled, 1e9)));
  gamma = std::min(gamma, config_.backup_upper_bound);
  if (qualified_total > 0) {
    gamma = std::min<int>(gamma, int(qualified_total) - 1);
  }
  return std::max(gamma, 0);
}

std::vector<ServiceGraph> SessionManager::select_backups(
    const ServiceGraph& current, std::vector<ServiceGraph> pool,
    std::size_t count, BackupPolicy policy, Rng* rng,
    std::vector<ServiceGraph>* leftover) {
  std::vector<ServiceGraph> selected;
  std::vector<bool> taken(pool.size(), false);
  // Every exit path funnels through here: selected graphs have been moved
  // out of the pool; whatever remains keeps its original pool order and is
  // handed to the caller's replenishment pool instead of being dropped.
  // Qualified sets can contain mapping-duplicates (same components reached
  // via different patterns); a leftover that duplicates a selected backup
  // is dead weight and is dropped here.
  auto drain_leftover = [&]() {
    if (leftover == nullptr) return;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i]) continue;
      bool duplicate = false;
      for (const ServiceGraph& b : selected) {
        if (b.same_mapping(pool[i])) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) leftover->push_back(std::move(pool[i]));
    }
  };
  if (count == 0 || pool.empty()) {
    drain_leftover();
    return selected;
  }

  if (policy == BackupPolicy::kRandom) {
    SPIDER_REQUIRE_MSG(rng != nullptr, "kRandom needs an Rng");
    std::vector<std::size_t> idx(pool.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    rng->shuffle(idx);
    for (std::size_t i = 0; i < std::min(count, idx.size()); ++i) {
      taken[idx[i]] = true;
      selected.push_back(std::move(pool[idx[i]]));
    }
    drain_leftover();
    return selected;
  }
  if (policy == BackupPolicy::kMostDisjoint) {
    // Sort indices, not the pool: the leftover must keep its ψ-ranked
    // pool order for later refills.
    std::vector<std::size_t> idx(pool.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                       return pool[a].overlap(current) <
                              pool[b].overlap(current);
                     });
    for (std::size_t i = 0; i < std::min(count, idx.size()); ++i) {
      taken[idx[i]] = true;
      selected.push_back(std::move(pool[idx[i]]));
    }
    drain_leftover();
    return selected;
  }

  // Components of the current graph ordered by failure probability,
  // highest first — bottleneck components get covered first (§5.2).
  struct Target {
    service::ComponentId id;
    double fail;
  };
  std::vector<Target> targets;
  targets.reserve(current.mapping.size());
  for (const auto& meta : current.mapping) {
    targets.push_back(Target{meta.id, meta.failure_prob});
  }
  std::stable_sort(targets.begin(), targets.end(),
                   [](const Target& a, const Target& b) {
                     if (a.fail != b.fail) return a.fail > b.fail;
                     return a.id < b.id;
                   });

  // Pass 1 (§5.2 bullet 1): for each component s_i, pick the qualified
  // graph that does NOT include s_i and has the largest overlap with the
  // current graph.
  auto pick_avoiding = [&](const std::vector<service::ComponentId>& avoid) {
    std::size_t best_idx = pool.size();
    std::size_t best_overlap = 0;
    double best_psi = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i]) continue;
      bool excludes_all = true;
      for (service::ComponentId id : avoid) {
        if (pool[i].uses_component(id)) {
          excludes_all = false;
          break;
        }
      }
      if (!excludes_all) continue;
      const std::size_t ov = pool[i].overlap(current);
      if (best_idx == pool.size() || ov > best_overlap ||
          (ov == best_overlap && pool[i].psi_cost < best_psi)) {
        best_idx = i;
        best_overlap = ov;
        best_psi = pool[i].psi_cost;
      }
    }
    if (best_idx < pool.size()) {
      taken[best_idx] = true;
      selected.push_back(std::move(pool[best_idx]));
      return true;
    }
    return false;
  };

  for (const Target& t : targets) {
    if (selected.size() >= count) break;
    pick_avoiding({t.id});
  }
  // Pass 2 (§5.2 bullet 2): cover concurrent failures of component pairs.
  for (std::size_t i = 0; i < targets.size() && selected.size() < count; ++i) {
    for (std::size_t j = i + 1; j < targets.size() && selected.size() < count;
         ++j) {
      pick_avoiding({targets[i].id, targets[j].id});
    }
  }
  // Fill any remaining slots with the best remaining qualified graphs.
  for (std::size_t i = 0; i < pool.size() && selected.size() < count; ++i) {
    if (!taken[i]) {
      taken[i] = true;
      selected.push_back(std::move(pool[i]));
    }
  }
  drain_leftover();
  return selected;
}

SessionId SessionManager::establish(const service::CompositeRequest& request,
                                    ComposeResult&& composed) {
  SPIDER_REQUIRE(composed.success);
  const SessionId id = alloc_->new_session_id();

  // Confirm every hold backing the best graph; if any expired, nothing
  // stays granted or held.
  if (!alloc_->confirm_all(composed.best_holds, id)) return kInvalidSession;
  return activate(id, request, std::move(composed.best),
                  std::move(composed.backups));
}

SessionId SessionManager::establish_direct(
    const service::CompositeRequest& request, service::ServiceGraph graph,
    std::vector<service::ServiceGraph> backup_pool) {
  SPIDER_REQUIRE(graph.evaluated);
  const SessionId id = alloc_->new_session_id();
  if (!alloc_->grant_direct(
          id, service::GraphDemand(graph, request.bandwidth_kbps))) {
    return kInvalidSession;
  }
  return activate(id, request, std::move(graph), std::move(backup_pool));
}

SessionId SessionManager::activate(SessionId id,
                                   const service::CompositeRequest& request,
                                   ServiceGraph graph,
                                   std::vector<ServiceGraph> backup_pool) {
  Session session;
  session.id = id;
  session.request = request;
  session.active = std::move(graph);

  // Confirm leg: the source tells the graph's peers their grants are now
  // a session. Under the fault model this is a retried round-trip;
  // without one it trivially succeeds.
  const CtrlOutcome confirm =
      send_control(session, kCtrlConfirm, graph_route(session.active));
  if (!confirm.acked) {
    count(&SessionStats::confirms_lost);
    if (!confirm.applied) {
      // No peer ever saw the confirm: in the real protocol the holds
      // would simply expire unconverted; release the grants now.
      alloc_->release_session(id);
    }
    // else: the peers applied the confirm but every ack was lost — the
    // source aborts, and the grants strand until a lease expires or an
    // audit() pass reclaims the orphan.
    erase_session(id);  // drops dedup residue; no session was registered
    return kInvalidSession;
  }
  session.state = SessionState::kActive;

  if (config_.proactive) {
    const int gamma =
        backup_count(session.active, request, backup_pool.size() + 1);
    // Non-selected qualified graphs flow straight into the replenishment
    // pool; nothing is copied and nothing needs a same_mapping rescan.
    session.backups = select_backups(session.active, std::move(backup_pool),
                                     std::size_t(gamma),
                                     config_.backup_policy, &policy_rng_,
                                     &session.pool);
    stats_.backup_count_sum += double(session.backups.size());
    ++stats_.backup_count_samples;
  }

  sessions_.emplace(id, std::move(session));
  count(&SessionStats::established);
  update_active_gauge();
  return id;
}

void SessionManager::teardown(SessionId id) {
  auto it = sessions_.find(id);
  if (it != sessions_.end()) {
    Session& session = it->second;
    session.state = SessionState::kTornDown;
    const CtrlOutcome out =
        send_control(session, kCtrlTeardown, graph_route(session.active));
    if (!out.applied) {
      // No teardown request ever arrived: the peers keep the grants
      // (stranded until lease expiry or audit() reclaims them), but the
      // source still forgets the session.
      count(&SessionStats::teardowns_lost);
      erase_session(id);
      count(&SessionStats::teardowns);
      update_active_gauge();
      return;
    }
  }
  alloc_->release_session(id);
  if (it != sessions_.end()) {
    erase_session(id);
    count(&SessionStats::teardowns);
  }
  update_active_gauge();
}

std::size_t SessionManager::on_source_crashed(PeerId source) {
  std::vector<SessionId> dead;
  for (const auto& [id, session] : sessions_) {
    if (session.active.source == source) dead.push_back(id);
  }
  std::sort(dead.begin(), dead.end());
  for (SessionId id : dead) {
    sessions_.at(id).state = SessionState::kTornDown;
    count(&SessionStats::source_crashes);
    // Deliberately no release_session: the crashed source cannot tear
    // anything down. Its grants are exactly what leases and the
    // anti-entropy audit exist to reclaim.
    erase_session(id);
  }
  update_active_gauge();
  return dead.size();
}

bool SessionManager::admit(Session& session, ServiceGraph graph) {
  // Re-resolve against the current overlay (routes change under churn).
  if (!evaluator_->resolve(graph)) return false;
  evaluator_->evaluate(graph, session.request);
  if (!evaluator_->qos_qualified(graph, session.request)) return false;

  const service::GraphDemand demand(graph, session.request.bandwidth_kbps);
  // Free the broken graph's grants first, then grant the replacement.
  alloc_->release_session(session.id);
  if (!alloc_->grant_direct(session.id, demand)) return false;
  session.active = std::move(graph);
  return true;
}

RecoveryOutcome SessionManager::recover(Session& session, Rng& rng) {
  count(&SessionStats::breaks);
  if (config_.proactive) {
    // Fast path: first surviving, admissible backup.
    session.state = SessionState::kSwitching;
    while (!session.backups.empty()) {
      ServiceGraph candidate = std::move(session.backups.front());
      session.backups.erase(session.backups.begin());
      bool alive = true;
      for (const auto& meta : candidate.mapping) {
        if (!deployment_->peer_alive(meta.host)) {
          alive = false;
          break;
        }
      }
      if (!alive) continue;
      // Switch-activation leg: the source must reach the candidate's
      // peers to activate the backup graph. An unacked activation skips
      // the candidate — nothing was granted yet, so an applied-but-
      // unacked activation strands nothing in the allocator.
      const CtrlOutcome activation =
          send_control(session, kCtrlSwitch, graph_route(candidate));
      if (!activation.acked) {
        count(&SessionStats::switch_activations_lost);
        continue;
      }
      const double disruption =
          double(session.active.mapping.size()) -
          double(candidate.overlap(session.active));
      if (admit(session, std::move(candidate))) {
        ++session.epoch;
        session.state = SessionState::kActive;
        count(&SessionStats::backup_switches);
        stats_.switch_disruption_sum += disruption;
        refill_backups(session);
        return RecoveryOutcome::kSwitchedToBackup;
      }
    }
  }
  // Slow path: reactive re-composition via BCP.
  session.state = SessionState::kRecovering;
  ComposeResult re = bcp_->compose(session.request, rng);
  if (re.success) {
    // Convert the re-composition's holds into grants.
    alloc_->release_session(session.id);
    if (alloc_->confirm_all(re.best_holds, session.id)) {
      session.active = std::move(re.best);
      ++session.epoch;
      session.state = SessionState::kActive;
      if (config_.proactive) {
        session.backups.clear();
        session.pool = std::move(re.backups);
        refill_backups(session);
      }
      count(&SessionStats::reactive_recoveries);
      return RecoveryOutcome::kReactiveRecovered;
    }
  }
  session.state = SessionState::kTornDown;  // caller tears the session down
  count(&SessionStats::losses);
  return RecoveryOutcome::kLost;
}

std::vector<RecoveryOutcome> SessionManager::on_peer_failed(PeerId peer,
                                                            Rng& rng) {
  std::vector<RecoveryOutcome> outcomes;
  // Collect affected session ids first: recovery mutates the map's values
  // but not its keys, and lost sessions are torn down after the loop.
  std::vector<SessionId> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  const bool faults_active = fault_ != nullptr && fault_->active();
  std::vector<SessionId> lost;
  for (SessionId id : ids) {
    Session& session = sessions_.at(id);
    if (faults_active && session.active.uses_peer(peer)) {
      // The failure notification to this session's source is one message
      // subject to the default fault profile (the crashed peer has no
      // routable path, so a concrete route cannot be sampled). If it is
      // lost the source learns nothing now — no pruning, no recovery —
      // and the liveness monitor's miss threshold must time the peer out.
      const std::uint64_t key = util::hash_values(
          std::uint64_t{0x4f71fu}, std::uint64_t(peer), notify_nonce_++);
      if (!fault_->sample_default(key).delivered) {
        count(&SessionStats::notifications_lost);
        outcomes.push_back(RecoveryOutcome::kNotificationLost);
        continue;
      }
    }
    // Backups using the failed peer are silently pruned (their liveness
    // probe would discover it; we prune eagerly and recount maintenance
    // at the next tick).
    std::erase_if(session.backups, [&](const ServiceGraph& g) {
      return g.uses_peer(peer);
    });
    std::erase_if(session.pool, [&](const ServiceGraph& g) {
      return g.uses_peer(peer);
    });
    if (!session.active.uses_peer(peer)) {
      outcomes.push_back(RecoveryOutcome::kNotAffected);
      continue;
    }
    const RecoveryOutcome outcome = recover(session, rng);
    session.probe_misses.clear();  // fresh graph, fresh suspicion state
    outcomes.push_back(outcome);
    if (outcome == RecoveryOutcome::kLost) lost.push_back(id);
  }
  for (SessionId id : lost) teardown(id);
  return outcomes;
}

bool SessionManager::probe_responds(PeerId source, PeerId peer) {
  if (!deployment_->peer_alive(peer)) return false;
  if (fault_ == nullptr || !fault_->active()) return true;
  const std::uint64_t key = util::hash_values(
      std::uint64_t{0x11feu}, std::uint64_t(peer), probe_nonce_++);
  if (source == peer) return true;  // self-probe, no network traversal
  const overlay::OverlayPathRef path =
      deployment_->overlay().route(source, peer);
  if (!path->valid) return false;  // partitioned: the probe cannot reach
  // Round trip: the probe and its ack are independent transmissions.
  return fault_->sample_round_trip(path->links, key).delivered;
}

std::vector<RecoveryOutcome> SessionManager::monitor_active_sessions(
    Rng& rng) {
  std::vector<RecoveryOutcome> outcomes;
  std::vector<SessionId> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  std::vector<SessionId> lost;
  for (SessionId id : ids) {
    Session& session = sessions_.at(id);
    // Liveness probes along the active graph (maintenance traffic).
    count(&SessionStats::maintenance_messages, session.active.hops.size());
    // Each monitored peer gets one probe round-trip per pass. A peer is
    // declared dead only after `liveness_miss_threshold` consecutive
    // misses, so a single probe lost by the fault model does not trigger
    // spurious recovery; with a reliable network and the default
    // threshold of 1 this degenerates to a plain aliveness check.
    std::vector<PeerId> monitored;
    monitored.push_back(session.active.source);
    auto add = [&](PeerId p) {
      if (std::find(monitored.begin(), monitored.end(), p) == monitored.end()) {
        monitored.push_back(p);
      }
    };
    add(session.active.dest);
    for (const auto& meta : session.active.mapping) add(meta.host);

    bool broken = false;
    for (PeerId peer : monitored) {
      if (probe_responds(session.active.source, peer)) {
        session.probe_misses.erase(peer);
        continue;
      }
      count(&SessionStats::liveness_probe_misses);
      if (deployment_->peer_alive(peer)) count(&SessionStats::false_suspicions);
      if (++session.probe_misses[peer] >= config_.liveness_miss_threshold) {
        broken = true;
      }
    }
    // Stale backups referencing dead peers are pruned by run_maintenance;
    // here we only react to an active-graph break.
    if (!broken) continue;
    const RecoveryOutcome outcome = recover(session, rng);
    session.probe_misses.clear();
    outcomes.push_back(outcome);
    if (outcome == RecoveryOutcome::kLost) lost.push_back(id);
  }
  for (SessionId id : lost) teardown(id);
  return outcomes;
}

void SessionManager::refill_backups(Session& session) {
  const int gamma = backup_count(session.active, session.request,
                                 session.pool.size() + session.backups.size() +
                                     1);
  while (int(session.backups.size()) < gamma && !session.pool.empty()) {
    // Re-select from the pool against the *new* active graph; the pool
    // cycles through select_backups by move and comes back without the
    // picked graph, in its original order.
    std::vector<ServiceGraph> remainder;
    std::vector<ServiceGraph> pick =
        select_backups(session.active, std::move(session.pool), 1,
                       config_.backup_policy, &policy_rng_, &remainder);
    session.pool = std::move(remainder);
    if (pick.empty()) break;
    session.backups.push_back(std::move(pick.front()));
  }
}

void SessionManager::run_maintenance() {
  const bool leased = alloc_->lease_ttl_ms() > 0.0;
  const bool faults_active = fault_ != nullptr && fault_->active();
  for (auto& [id, session] : sessions_) {
    if (leased) {
      // Lease renewal piggybacks on the maintenance beat: one renewal
      // message per session per pass. It is fire-and-forget soft state —
      // a lost renewal is simply retried by the next pass, so the only
      // penalty of loss is a closer brush with the ttl deadline.
      count(&SessionStats::lease_renew_messages);
      count(&SessionStats::maintenance_messages);
      bool delivered = true;
      if (faults_active) {
        const std::uint64_t key =
            util::hash_values(kCtrlRenew, id, session.ctrl_seq++);
        delivered =
            fault_->sample_path(graph_route(session.active), key).delivered;
      }
      if (delivered) alloc_->renew_session(id);
    }
    std::vector<ServiceGraph> kept;
    kept.reserve(session.backups.size());
    for (ServiceGraph& backup : session.backups) {
      // Low-rate liveness probe along the backup graph: one message per
      // service link hop (the paper's maintenance overhead).
      count(&SessionStats::maintenance_messages, backup.hops.size());
      bool alive = deployment_->peer_alive(backup.source) &&
                   deployment_->peer_alive(backup.dest);
      for (const auto& meta : backup.mapping) {
        alive = alive && deployment_->peer_alive(meta.host);
      }
      if (!alive) continue;
      // QoS re-validation with current routes/availability.
      ServiceGraph refreshed = backup;
      if (!evaluator_->resolve(refreshed)) continue;
      evaluator_->evaluate(refreshed, session.request);
      if (!evaluator_->qos_qualified(refreshed, session.request)) continue;
      kept.push_back(std::move(refreshed));
    }
    session.backups = std::move(kept);
    refill_backups(session);
  }
}

SessionManager::AuditReport SessionManager::audit() {
  AuditReport report;
  // 1. Sweep probe-time soft state: expired holds leave availability and
  //    the outstanding-hold gauge in agreement right now.
  const std::size_t holds_before = alloc_->active_holds();
  alloc_->sweep_expired();
  report.expired_holds = holds_before - alloc_->active_holds();
  // 2. Sweep session-time soft state: leases that missed their deadline.
  report.leases_reclaimed = alloc_->reclaim_expired_leases();
  // 3. Reclaim orphans: grant sets whose session is not live here —
  //    crashed sources, lost teardowns, confirm legs whose ack vanished.
  for (SessionId id : alloc_->granted_sessions()) {
    if (sessions_.find(id) != sessions_.end()) continue;
    const auto totals = alloc_->session_grant_totals(id);
    report.orphan_kbps += totals.link_kbps_total;
    ++report.orphan_sessions;
    count(&SessionStats::orphans_reclaimed);
    alloc_->release_session(id);
  }
  // 4. Conservation: what the allocator holds for each live session must
  //    equal that session's active-graph demand. A live session with no
  //    grants at all lost its lease (every renewal was lost, or the ttl
  //    is shorter than the maintenance period): its peers already
  //    reclaimed the capacity, so the session is dead — tear it down
  //    locally rather than flag a violation.
  std::vector<SessionId> lapsed;
  for (const auto& [id, session] : sessions_) {
    const auto totals = alloc_->session_grant_totals(id);
    if (alloc_->lease_ttl_ms() > 0.0 && totals.grant_count == 0) {
      lapsed.push_back(id);
      continue;
    }
    const service::GraphDemand demand(session.active,
                                      session.request.bandwidth_kbps);
    service::Resources peer_total;
    for (const auto& [peer, need] : demand.peers) peer_total += need;
    double link_kbps = 0.0;
    for (const auto& [link, kbps] : demand.links) link_kbps += kbps;
    constexpr double kTol = 1e-6;
    bool ok = std::abs(totals.link_kbps_total - link_kbps) <= kTol;
    for (std::size_t i = 0; i < service::Resources::kTypes && ok; ++i) {
      ok = std::abs(totals.peer_total.v[i] - peer_total.v[i]) <= kTol;
    }
    if (!ok) report.conserved = false;
    SPIDER_DCHECK(ok);
  }
  std::sort(lapsed.begin(), lapsed.end());
  for (SessionId id : lapsed) {
    sessions_.at(id).state = SessionState::kTornDown;
    count(&SessionStats::losses);
    erase_session(id);
  }
  if (!lapsed.empty()) update_active_gauge();
  return report;
}

void SessionManager::enable_periodic_audit(double period_ms,
                                           double first_delay_ms) {
  audit_timer_.reset();
  if (period_ms <= 0.0) return;
  audit_timer_ = std::make_unique<sim::PeriodicTimer>(*sim_, period_ms,
                                                      [this] { audit(); });
  // Default phase: half a period, so the audit interleaves with
  // maintenance timers of the same period instead of colliding.
  audit_timer_->start(first_delay_ms >= 0.0 ? first_delay_ms
                                            : period_ms * 0.5);
}

SessionState SessionManager::session_state(SessionId session) const {
  auto it = sessions_.find(session);
  return it == sessions_.end() ? SessionState::kTornDown : it->second.state;
}

const service::ServiceGraph* SessionManager::active_graph(
    SessionId session) const {
  auto it = sessions_.find(session);
  return it == sessions_.end() ? nullptr : &it->second.active;
}

std::size_t SessionManager::backup_count_of(SessionId session) const {
  auto it = sessions_.find(session);
  return it == sessions_.end() ? 0 : it->second.backups.size();
}

}  // namespace spider::core
