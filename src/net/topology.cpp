#include "net/topology.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/keys.hpp"

namespace spider::net {

Topology::Topology(std::size_t node_count, std::vector<Link> links)
    : node_count_(node_count), links_(std::move(links)) {
  SPIDER_REQUIRE(node_count_ > 0);
  // Validate links and reject self loops / duplicates.
  std::unordered_set<util::UnorderedPairKey<NodeIdx>,
                     util::UnorderedPairKeyHash>
      seen;
  seen.reserve(links_.size() * 2);
  for (const Link& l : links_) {
    SPIDER_REQUIRE(l.a < node_count_ && l.b < node_count_);
    SPIDER_REQUIRE_MSG(l.a != l.b, "self loop");
    SPIDER_REQUIRE(l.delay_ms >= 0.0 && l.bandwidth_kbps >= 0.0);
    SPIDER_REQUIRE_MSG(
        seen.insert(util::UnorderedPairKey<NodeIdx>(l.a, l.b)).second,
        "duplicate link");
  }

  // Build CSR adjacency.
  offsets_.assign(node_count_ + 1, 0);
  for (const Link& l : links_) {
    ++offsets_[l.a + 1];
    ++offsets_[l.b + 1];
  }
  for (std::size_t i = 1; i <= node_count_; ++i) offsets_[i] += offsets_[i - 1];
  adj_.resize(links_.size() * 2);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (LinkIdx li = 0; li < links_.size(); ++li) {
    const Link& l = links_[li];
    adj_[cursor[l.a]++] = Adjacency{l.b, li};
    adj_[cursor[l.b]++] = Adjacency{l.a, li};
  }
}

std::span<const Adjacency> Topology::neighbors(NodeIdx n) const {
  SPIDER_REQUIRE(n < node_count_);
  return std::span<const Adjacency>(adj_.data() + offsets_[n],
                                    offsets_[n + 1] - offsets_[n]);
}

bool Topology::connected() const {
  const ShortestPathTree<LinkIdx> tree = min_delay_tree(0);
  for (NodeIdx n = 0; n < node_count_; ++n) {
    if (!tree.reachable(n)) return false;
  }
  return true;
}

}  // namespace spider::net
