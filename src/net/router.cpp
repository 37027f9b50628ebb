#include "net/router.hpp"

#include <algorithm>

namespace spider::net {

PathMetrics SingleSourcePaths::metrics_to(NodeIdx dst) const {
  SPIDER_REQUIRE(dst < topo_->node_count());
  PathMetrics m;
  if (!reachable(dst)) return m;
  m.delay_ms = tree_.dist[dst];
  m.bottleneck_kbps = std::numeric_limits<double>::infinity();
  tree_.walk(dst, [&](LinkIdx li, NodeIdx cur) {
    const Link& l = topo_->link(li);
    m.bottleneck_kbps = std::min(m.bottleneck_kbps, l.bandwidth_kbps);
    ++m.hops;
    return l.other(cur);
  });
  return m;
}

std::vector<NodeIdx> SingleSourcePaths::path_to(NodeIdx dst) const {
  SPIDER_REQUIRE(dst < topo_->node_count());
  if (!reachable(dst)) return {};
  std::vector<NodeIdx> path{dst};
  tree_.walk(dst, [&](LinkIdx li, NodeIdx cur) {
    path.push_back(topo_->link(li).other(cur));
    return path.back();
  });
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace spider::net
