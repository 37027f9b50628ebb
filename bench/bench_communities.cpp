// Community-partitioned two-tier BCP sweep (§5l) — probe-message and
// setup-time scaling versus flat BCP as the community count varies.
//
// Each peer count is one isolated cell (own scenario, engines, RNG
// streams derived from the seed). Within a cell the bench builds ONE
// flat world, then for each community count C constructs the
// CommunityMap + CommunityIndex in-bench (the scenario itself never has
// use_communities set, so the world is bit-for-bit the flat one) and
// replays the same depth-4 request workload:
//  * flat row:   plain BcpEngine, beta = 64 — the baseline;
//  * C = 1 row:  communities attached but the two-tier gate
//                (community_count() > 1) keeps the engine flat; the row
//                runs at the flat beta and the bench asserts its counters
//                are identical to the baseline row — the equivalence
//                oracle for the attach path;
//  * C >= 4 rows: two-tier at a reduced beta — the coarse tier spends a
//                share of it probing community heads, then fine probes
//                run intra-community only. Rows reseed from
//                (seed, peers, beta) — not C — so every same-beta row
//                samples the identical request stream.
//
// Self-asserting (non-zero exit on failure):
//  * C = 1 equivalence (every cell);
//  * at the 10000-peer cell, the best two-tier row must halve the flat
//    row's probe messages at equal-or-better composition success — the
//    headline claim of the partitioning layer.
//
// Output: stdout is deterministic (counters, virtual setup means, map
// fingerprints) and byte-diffable across --jobs/--build-jobs values;
// BENCH_communities.json adds wall-clock build/compose timings.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/bcp.hpp"
#include "discovery/community_index.hpp"
#include "overlay/community.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace spider;
using namespace spider::bench;

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  std::size_t peers = 0;
  std::size_t ip_nodes = 0;
  std::size_t communities = 0;  ///< 0 = flat baseline (no map attached)
  int beta = 0;
  std::size_t requests = 0;
  std::uint64_t successes = 0;
  std::uint64_t probes_spawned = 0;
  std::uint64_t probe_messages = 0;
  std::uint64_t discovery_messages = 0;
  std::uint64_t coarse_probes = 0;
  std::uint64_t communities_pruned = 0;
  double virtual_setup_ms_mean = 0.0;
  std::uint64_t fingerprint = 0;  ///< CommunityMap fingerprint; 0 = flat
  // Wall-clock (JSON only — nondeterministic).
  double scenario_build_ms = 0.0;
  double communities_build_ms = 0.0;
  double compose_wall_ms = 0.0;
};

std::string hex16(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

/// BENCH_communities.json's row columns, in key order.
const RowColumn<Row> kRowColumns[] = {
    {"peers", [](const Row& r) { return count(r.peers); }},
    {"ip_nodes", [](const Row& r) { return count(r.ip_nodes); }},
    {"communities", [](const Row& r) { return count(r.communities); }},
    {"beta", [](const Row& r) { return std::to_string(r.beta); }},
    {"requests", [](const Row& r) { return count(r.requests); }},
    {"successes", [](const Row& r) { return count(r.successes); }},
    {"probes_spawned", [](const Row& r) { return count(r.probes_spawned); }},
    {"probe_messages", [](const Row& r) { return count(r.probe_messages); }},
    {"discovery_messages",
     [](const Row& r) { return count(r.discovery_messages); }},
    {"coarse_probes", [](const Row& r) { return count(r.coarse_probes); }},
    {"communities_pruned",
     [](const Row& r) { return count(r.communities_pruned); }},
    {"virtual_setup_ms_mean",
     [](const Row& r) { return fmt(r.virtual_setup_ms_mean, 3); }},
    {"map_fingerprint",
     [](const Row& r) {
       return std::string(1, '"').append(hex16(r.fingerprint)).append(1, '"');
     }},
    {"scenario_build_ms",
     [](const Row& r) { return fmt(r.scenario_build_ms, 3); }},
    {"communities_build_ms",
     [](const Row& r) { return fmt(r.communities_build_ms, 3); }},
    {"compose_wall_ms", [](const Row& r) { return fmt(r.compose_wall_ms, 3); }},
};

/// Replays the depth-4 linear-chain workload for one row. The RNG is
/// reseeded from (seed, peers, beta) — community count excluded — so
/// rows at the same beta consume the identical request stream.
Row run_row(workload::Scenario& s, const overlay::CommunityMap* map,
            const discovery::CommunityIndex* index, int beta,
            std::size_t requests, std::uint64_t seed, std::size_t peers) {
  Row row;
  row.peers = peers;
  row.communities = map != nullptr ? map->community_count() : 0;
  row.beta = beta;
  row.requests = requests;
  if (map != nullptr) row.fingerprint = map->fingerprint();

  s.rng.reseed(util::hash_values(seed, peers, std::size_t(beta)));
  workload::RequestProfile profile;
  profile.min_functions = 4;
  profile.max_functions = 4;
  profile.dag_probability = 0.0;  // linear chains: depth == functions

  core::BcpConfig bcp_config;
  bcp_config.probing_budget = beta;
  bcp_config.probe_timeout_ms = 60000.0;
  core::BcpEngine bcp(*s.deployment, *s.alloc, *s.evaluator, s.sim,
                      bcp_config);
  if (map != nullptr) bcp.set_communities(map, index);

  SampleStats setup;
  const auto compose_t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    auto gen = workload::sample_request(s, profile);
    core::ComposeResult r = bcp.compose(gen.request, s.rng);
    for (core::HoldId h : r.best_holds) s.alloc->release_hold(h);
    if (r.success) {
      ++row.successes;
      setup.add(r.stats.setup_time_ms);
    }
    row.probes_spawned += r.stats.probes_spawned;
    row.probe_messages += r.stats.probe_messages;
    row.discovery_messages += r.stats.discovery_messages;
    row.coarse_probes += r.stats.coarse_probes;
    row.communities_pruned += r.stats.communities_pruned;
  }
  row.compose_wall_ms = wall_ms_since(compose_t0);
  row.virtual_setup_ms_mean = setup.mean();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args =
      parse_args(argc, argv, kJobsFlag | kJsonOutFlag | kBuildJobsFlag,
                 "BENCH_communities.json");

  const std::vector<std::size_t> peer_counts =
      args.scale == 0 ? std::vector<std::size_t>{1000}
      : args.scale == 2 ? std::vector<std::size_t>{1000, 10000, 50000}
                        : std::vector<std::size_t>{1000, 10000};
  const std::vector<std::size_t> community_counts{1, 4, 8, 16};
  const int flat_beta = 64;
  // Two-tier runs at well under half the flat budget: the coarse tier
  // narrows discovery to <= 4 candidate communities, so the fine tier
  // needs far fewer probes per hop to retain the flat success rate.
  const int twotier_beta = 28;
  const std::size_t requests_per_row = args.scale == 0 ? 20 : 30;

  std::printf("Community-partitioned two-tier BCP: flat beta=%d vs "
              "two-tier beta=%d, %zu requests per row, seed=%llu, jobs=%zu, "
              "build-jobs=%zu\n",
              flat_beta, twotier_beta, requests_per_row,
              (unsigned long long)args.seed, args.jobs, args.build_jobs);
  std::printf("(community maps are built in-bench on one flat world per "
              "cell; wall-clock columns are written to %s)\n\n",
              args.json_out.c_str());

  std::vector<std::vector<Row>> cells(peer_counts.size());

  util::parallel_for_each(args.jobs, peer_counts.size(), [&](std::size_t ci) {
    const std::size_t peers = peer_counts[ci];
    workload::SimScenarioConfig config;
    config.seed = util::hash_values(args.seed, peers);
    config.ip_nodes = std::max<std::size_t>(2 * peers, 4000);
    config.peers = peers;
    config.router_cache_limit = 8;
    config.route_cache_limit = 64;
    config.build_jobs = args.build_jobs;

    const auto build_t0 = std::chrono::steady_clock::now();
    auto s = workload::build_sim_scenario(config);
    const double build_ms = wall_ms_since(build_t0);

    // Shared component snapshot for the per-C index builds.
    std::vector<service::ComponentMetadata> metas;
    metas.reserve(s->deployment->component_count());
    for (overlay::PeerId p = 0; p < config.peers; ++p) {
      for (service::ComponentId id : s->deployment->components_on(p)) {
        metas.push_back(
            service::ComponentMetadata::from(s->deployment->component(id)));
      }
    }

    Row flat = run_row(*s, nullptr, nullptr, flat_beta, requests_per_row,
                       args.seed, peers);
    flat.ip_nodes = config.ip_nodes;
    flat.scenario_build_ms = build_ms;
    cells[ci].push_back(flat);

    for (std::size_t count : community_counts) {
      const auto comm_t0 = std::chrono::steady_clock::now();
      const auto map = overlay::CommunityMap::build(
          s->deployment->overlay(), count, args.build_jobs);
      const auto index =
          discovery::CommunityIndex::build(metas, map, args.build_jobs);
      const double comm_ms = wall_ms_since(comm_t0);

      const int beta = count <= 1 ? flat_beta : twotier_beta;
      Row row = run_row(*s, &map, &index, beta, requests_per_row, args.seed,
                        peers);
      row.ip_nodes = config.ip_nodes;
      row.scenario_build_ms = build_ms;
      row.communities_build_ms = comm_ms;
      cells[ci].push_back(row);
    }
  });

  Table table({"peers", "comm", "beta", "req", "success", "probes",
               "messages", "discovery", "coarse", "pruned", "setup_ms",
               "map_fp"});
  for (const auto& cell : cells) {
    for (const Row& row : cell) {
      table.add_row({std::to_string(row.peers),
                     row.communities == 0 ? "flat"
                                          : std::to_string(row.communities),
                     std::to_string(row.beta), std::to_string(row.requests),
                     std::to_string(row.successes),
                     std::to_string(row.probes_spawned),
                     std::to_string(row.probe_messages),
                     std::to_string(row.discovery_messages),
                     std::to_string(row.coarse_probes),
                     std::to_string(row.communities_pruned),
                     fmt(row.virtual_setup_ms_mean, 3),
                     hex16(row.fingerprint)});
    }
  }
  table.print();
  std::printf(
      "\nexpected shape: the C=1 row is bit-identical to flat (the two-tier "
      "gate needs >1 community); C>=4 rows trade a few coarse head probes "
      "for a much smaller fine budget, cutting probe messages while the "
      "pruned-community discovery keeps success flat.\n");

  FILE* jf = std::fopen(args.json_out.c_str(), "w");
  if (jf == nullptr) {
    std::fprintf(stderr, "communities: failed to write %s\n",
                 args.json_out.c_str());
    return 1;
  }
  std::fprintf(jf,
               "{\n  \"bench\": \"communities\",\n  \"seed\": %llu,\n"
               "  \"jobs\": %zu,\n  \"build_jobs\": %zu,\n  \"rows\": [\n",
               (unsigned long long)args.seed, args.jobs, args.build_jobs);
  write_rows(jf, cells, kRowColumns);
  std::fprintf(jf, "\n  ]\n}\n");
  if (!close_json(jf, "communities", args.json_out)) return 1;

  // Self-assert 1: attaching a single-community map must not change a
  // single counter versus the flat baseline (same beta, same stream).
  bool failed = false;
  for (const auto& cell : cells) {
    const Row& flat = cell.front();
    const Row* one = nullptr;
    for (const Row& row : cell) {
      if (row.communities == 1) one = &row;
    }
    if (one == nullptr) continue;
    if (one->successes != flat.successes ||
        one->probes_spawned != flat.probes_spawned ||
        one->probe_messages != flat.probe_messages ||
        one->discovery_messages != flat.discovery_messages ||
        one->coarse_probes != 0 ||
        one->virtual_setup_ms_mean != flat.virtual_setup_ms_mean) {
      std::fprintf(stderr,
                   "communities: FAIL — C=1 row differs from flat at "
                   "peers=%zu (two-tier gate leak)\n",
                   flat.peers);
      failed = true;
    }
  }

  // Self-assert 2 (the headline claim): at the 10k-peer cell the best
  // two-tier row halves the flat probe messages at equal-or-better
  // success.
  for (const auto& cell : cells) {
    const Row& flat = cell.front();
    if (flat.peers != 10000) continue;
    const Row* best = nullptr;
    for (const Row& row : cell) {
      if (row.communities < 2 || row.successes < flat.successes) continue;
      if (best == nullptr || row.probe_messages < best->probe_messages) {
        best = &row;
      }
    }
    if (best == nullptr) {
      std::fprintf(stderr,
                   "communities: FAIL — no two-tier row matches the flat "
                   "success count (%llu) at 10k peers\n",
                   (unsigned long long)flat.successes);
      failed = true;
    } else if (2 * best->probe_messages > flat.probe_messages) {
      std::fprintf(stderr,
                   "communities: FAIL — best two-tier row (C=%zu) uses %llu "
                   "probe messages; flat uses %llu (< 2x reduction)\n",
                   best->communities,
                   (unsigned long long)best->probe_messages,
                   (unsigned long long)flat.probe_messages);
      failed = true;
    } else {
      std::printf("communities: 10k-peer check OK — C=%zu at %.2fx fewer "
                  "probe messages, success %llu/%llu vs flat %llu/%llu\n",
                  best->communities,
                  double(flat.probe_messages) /
                      double(std::max<std::uint64_t>(best->probe_messages, 1)),
                  (unsigned long long)best->successes,
                  (unsigned long long)best->requests,
                  (unsigned long long)flat.successes,
                  (unsigned long long)flat.requests);
    }
  }
  return failed ? 1 : 0;
}
