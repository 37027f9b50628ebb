#include "net/landmark.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/parallel.hpp"
#include "util/require.hpp"

namespace spider::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

LandmarkTable LandmarkTable::build(
    std::size_t target_count, std::size_t landmark_count,
    const std::function<Column(std::uint32_t target)>& sssp,
    std::size_t jobs) {
  SPIDER_REQUIRE(target_count >= 1);
  SPIDER_REQUIRE(landmark_count >= 1);
  LandmarkTable table;
  table.targets_ = target_count;
  const std::size_t k = std::min(landmark_count, target_count);
  table.cols_.reserve(k);

  // min over chosen landmarks of delay to each target; drives the
  // farthest-point selection of the next landmark.
  std::vector<double> min_delay(target_count, kInf);

  // Merge a column into the frontier and append it to the table.
  auto commit = [&](Column col, std::uint32_t expect) {
    SPIDER_REQUIRE(col.target == expect);
    SPIDER_REQUIRE(col.delay_ms.size() == target_count);
    for (std::size_t t = 0; t < target_count; ++t) {
      min_delay[t] = std::min(min_delay[t], col.delay_ms[t]);
    }
    table.cols_.push_back(std::move(col));
  };
  // Farthest reachable target from the current landmark set; ties go to
  // the lowest index. Unreachable targets (min inf) are skipped — a
  // landmark there could never triangulate the connected component.
  auto select_next = [&](std::uint32_t fallback, double* best_out) {
    double best = -1.0;
    std::uint32_t arg = fallback;
    for (std::size_t t = 0; t < target_count; ++t) {
      if (min_delay[t] == kInf) continue;
      if (min_delay[t] > best) {
        best = min_delay[t];
        arg = std::uint32_t(t);
      }
    }
    *best_out = best;
    return arg;
  };

  std::uint32_t next = 0;  // landmark 0 is target 0 (deterministic)
  if (jobs <= 1) {
    for (std::size_t l = 0; l < k; ++l) {
      commit(sssp(next), next);
      double best = -1.0;
      const std::uint32_t arg = select_next(next, &best);
      if (best <= 0.0) break;  // every target is itself a landmark already
      next = arg;
    }
    return table;
  }

  // Speculative waves: the exact next column plus up to jobs-1 guesses run
  // concurrently, each into its own pre-sized slot. A guess commits only
  // if, after the previous commit merged, it equals the serial selection
  // rule's pick — otherwise the rest of the wave is discarded. Commits
  // therefore replay the serial loop exactly, whatever the hit rate.
  std::size_t committed = 0;
  bool done = false;
  while (committed < k && !done) {
    std::vector<std::uint32_t> wave{next};
    if (committed > 0) {
      // Rank guesses by the current frontier (descending, lowest index on
      // ties): the committed column mostly lowers min_delay near its own
      // landmark, so today's runners-up are likely tomorrow's argmax.
      std::vector<std::pair<double, std::uint32_t>> ranked;
      for (std::size_t t = 0; t < target_count; ++t) {
        if (std::uint32_t(t) == next) continue;
        if (min_delay[t] == kInf || min_delay[t] <= 0.0) continue;
        ranked.emplace_back(min_delay[t], std::uint32_t(t));
      }
      const std::size_t guesses =
          std::min({jobs - 1, k - committed - 1, ranked.size()});
      std::partial_sort(
          ranked.begin(), ranked.begin() + long(guesses), ranked.end(),
          [](const auto& a, const auto& b) {
            if (a.first != b.first) return a.first > b.first;
            return a.second < b.second;
          });
      for (std::size_t g = 0; g < guesses; ++g) {
        wave.push_back(ranked[g].second);
      }
    }
    std::vector<Column> slots(wave.size());
    util::parallel_for_each(jobs, wave.size(), [&](std::size_t i) {
      slots[i] = sssp(wave[i]);
    });
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (i > 0 && wave[i] != next) break;  // misprediction: discard rest
      commit(std::move(slots[i]), wave[i]);
      ++committed;
      double best = -1.0;
      const std::uint32_t arg = select_next(wave[i], &best);
      if (best <= 0.0) {
        done = true;
        break;
      }
      next = arg;
    }
  }
  return table;
}

double LandmarkTable::upper_bound_ms(std::uint32_t u, std::uint32_t v) const {
  SPIDER_REQUIRE(u < targets_ && v < targets_);
  if (u == v) return 0.0;
  double best = kInf;
  for (const Column& col : cols_) {
    best = std::min(best, col.delay_ms[u] + col.delay_ms[v]);
  }
  return best;
}

double LandmarkTable::lower_bound_ms(std::uint32_t u, std::uint32_t v) const {
  SPIDER_REQUIRE(u < targets_ && v < targets_);
  if (u == v) return 0.0;
  double best = 0.0;
  for (const Column& col : cols_) {
    if (col.delay_ms[u] == kInf || col.delay_ms[v] == kInf) continue;
    best = std::max(best, std::abs(col.delay_ms[u] - col.delay_ms[v]));
  }
  return best;
}

PathMetrics LandmarkTable::through_metrics(std::uint32_t u,
                                           std::uint32_t v) const {
  SPIDER_REQUIRE(u < targets_ && v < targets_);
  PathMetrics m;
  if (u == v) {
    m.delay_ms = 0.0;
    m.bottleneck_kbps = kInf;
    m.hops = 0;
    return m;
  }
  std::size_t best_l = cols_.size();
  double best = kInf;
  for (std::size_t l = 0; l < cols_.size(); ++l) {
    const double d = cols_[l].delay_ms[u] + cols_[l].delay_ms[v];
    if (d < best) {
      best = d;
      best_l = l;
    }
  }
  if (best_l == cols_.size()) return m;  // unreachable: default metrics
  const Column& col = cols_[best_l];
  SPIDER_REQUIRE_MSG(!col.bottleneck_kbps.empty() && !col.hops.empty(),
                     "through_metrics needs bottleneck/hop columns");
  m.delay_ms = best;
  m.bottleneck_kbps =
      std::min(col.bottleneck_kbps[u], col.bottleneck_kbps[v]);
  m.hops = col.hops[u] + col.hops[v];
  return m;
}

LandmarkTable build_ip_landmarks(const Topology& topo,
                                 std::span<const NodeIdx> targets,
                                 std::size_t landmark_count,
                                 std::size_t jobs) {
  SPIDER_REQUIRE(!targets.empty());
  const std::size_t n = topo.node_count();
  for (NodeIdx t : targets) SPIDER_REQUIRE(t < n);

  // One Dijkstra over the whole topology per landmark; bottleneck and hop
  // counts ride along the relaxation (the on-improve hook, so they
  // describe the tree path the delays come from), and only the target
  // columns are kept.
  auto sssp = [&](std::uint32_t target) {
    const NodeIdx source = targets[target];
    std::vector<double> btl(n, 0.0);
    std::vector<std::uint32_t> hops(n, 0);
    btl[source] = kInf;
    const ShortestPathTree<LinkIdx> tree = topo.min_delay_tree(
        source, [&](NodeIdx u, NodeIdx v, LinkIdx link) {
          btl[v] = std::min(btl[u], topo.link(link).bandwidth_kbps);
          hops[v] = hops[u] + 1;
        });
    LandmarkTable::Column col;
    col.target = target;
    col.delay_ms.reserve(targets.size());
    col.bottleneck_kbps.reserve(targets.size());
    col.hops.reserve(targets.size());
    for (NodeIdx t : targets) {
      col.delay_ms.push_back(tree.dist[t]);
      col.bottleneck_kbps.push_back(btl[t]);
      col.hops.push_back(hops[t]);
    }
    return col;
  };
  return LandmarkTable::build(targets.size(), landmark_count, sssp, jobs);
}

}  // namespace spider::net
