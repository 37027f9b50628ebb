// Bulk Pastry loading (§5k): the join-parity oracle and the bulk_put
// equivalence contract.
//
// The oracle pins bulk_load's canonical state to what the live join
// protocol converges to, in the regime where join state is itself
// order-independent: with N <= L+1 every node's leaf set covers the whole
// ring, every pair of nodes gets mutually introduced, and a contested
// routing cell therefore ends at the unique proximity-argmin over its
// full candidate set — exactly what bulk_load computes with
// candidate_budget = 0. Distinct proximity values make that argmin
// unique, so the two constructions must agree cell for cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "dht/pastry.hpp"

namespace spider::dht {
namespace {

/// Deterministic, injective proximity over peer pairs (997 and 131 are
/// coprime and exceed any peer index here, so no two pairs collide).
double test_proximity(PeerId a, PeerId b) {
  return 1.0 + 997.0 * double(a) + 131.0 * double(b);
}

/// N distinct node ids for `seed`, sorted ascending, peer i = i-th id.
std::vector<std::pair<NodeId, PeerId>> make_entries(std::uint64_t seed,
                                                    std::size_t n) {
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(NodeId::hash_of("parity:" + std::to_string(seed) + ":" +
                                  std::to_string(i)));
  }
  std::sort(ids.begin(), ids.end());
  std::vector<std::pair<NodeId, PeerId>> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      EXPECT_NE(ids[i - 1], ids[i]) << "hash collision in test ids";
    }
    entries.emplace_back(ids[i], PeerId(i));
  }
  return entries;
}

PastryNetwork join_built(const std::vector<std::pair<NodeId, PeerId>>& entries,
                         int leaf_set_size) {
  PastryNetwork net(leaf_set_size);
  net.set_proximity(test_proximity);
  net.bootstrap(entries[0].second, entries[0].first);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    net.join(entries[i].second, entries[i].first, entries[0].second);
  }
  return net;
}

PastryNetwork bulk_built(const std::vector<std::pair<NodeId, PeerId>>& entries,
                         int leaf_set_size, std::size_t jobs,
                         std::size_t candidate_budget) {
  PastryNetwork net(leaf_set_size);
  net.set_proximity(test_proximity);
  net.bulk_load(entries, jobs, candidate_budget);
  return net;
}

std::vector<NodeId> sorted_members(const LeafSet& leaves) {
  std::vector<NodeId> m = leaves.members();
  std::sort(m.begin(), m.end());
  return m;
}

void expect_same_state(PastryNetwork& a, PastryNetwork& b, std::size_t n) {
  for (PeerId p = 0; p < n; ++p) {
    EXPECT_EQ(sorted_members(a.leaf_set(p)), sorted_members(b.leaf_set(p)))
        << "leaf set of peer " << p;
    const RoutingTable& ta = a.routing_table(p);
    const RoutingTable& tb = b.routing_table(p);
    for (int row = 0; row < kDigitsPerId; ++row) {
      for (int col = 0; col < kDigitRadix; ++col) {
        EXPECT_EQ(ta.at(row, col), tb.at(row, col))
            << "peer " << p << " cell [" << row << "][" << col << "]";
      }
    }
  }
}

TEST(BulkLoadParityTest, MatchesJoinBuiltStateWhenEveryoneKnowsEveryone) {
  // Leaf-set sizes spanning a routing-row boundary: N = L+1 = 33 > 16
  // forces populated row >= 1 cells (33 ids cannot all differ in the
  // first hex digit), while 9 and 17 exercise digit-0-only tables.
  for (int leaf_set_size : {8, 16, 32}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const std::size_t n = std::size_t(leaf_set_size) + 1;
      const auto entries = make_entries(seed, n);
      PastryNetwork joined = join_built(entries, leaf_set_size);
      PastryNetwork bulk = bulk_built(entries, leaf_set_size, /*jobs=*/1,
                                      /*candidate_budget=*/0);
      SCOPED_TRACE("L=" + std::to_string(leaf_set_size) +
                   " seed=" + std::to_string(seed));
      expect_same_state(joined, bulk, n);

      // Same state must route identically; spot-check delivery targets.
      for (std::uint64_t k = 0; k < 16; ++k) {
        const NodeId key = NodeId::hash_of("key:" + std::to_string(k));
        const PeerId from = PeerId(k % n);
        const RouteResult rj = joined.route_readonly(from, key);
        const RouteResult rb = bulk.route_readonly(from, key);
        EXPECT_EQ(rj.path, rb.path) << "key " << k;
        EXPECT_EQ(rb.target(), bulk.owner_oracle(key)) << "key " << k;
      }
    }
  }
}

TEST(BulkLoadParityTest, FillIsIdenticalAtAnyJobCount) {
  const auto entries = make_entries(11, 200);
  PastryNetwork serial = bulk_built(entries, 16, /*jobs=*/1,
                                    /*candidate_budget=*/8);
  PastryNetwork parallel = bulk_built(entries, 16, /*jobs=*/4,
                                      /*candidate_budget=*/8);
  expect_same_state(serial, parallel, entries.size());
}

TEST(BulkLoadParityTest, LargeBulkLoadDeliversToTheOracleOwner) {
  // Correct delivery needs only leaf-set correctness, not any particular
  // cell occupant — so it must hold at the default candidate budget too.
  const std::size_t n = 300;
  const auto entries = make_entries(23, n);
  PastryNetwork net = bulk_built(entries, 16, /*jobs=*/2,
                                 /*candidate_budget=*/8);
  EXPECT_EQ(net.live_count(), n);
  for (std::uint64_t k = 0; k < 64; ++k) {
    const NodeId key = NodeId::hash_of("lookup:" + std::to_string(k));
    const RouteResult r = net.route(PeerId((k * 37) % n), key);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.target(), net.owner_oracle(key)) << "key " << k;
  }
}

TEST(BulkLoadParityTest, ReadOnlyRouteMatchesRepairingRoute) {
  // bulk_put's parallel phase trusts this: with every node alive, the
  // repairing walk has nothing to repair, so both walks take the same
  // hops. Keys cover hashed lookups and every node id itself (delivery
  // at the key's own node).
  const std::size_t n = 150;
  const auto entries = make_entries(41, n);
  PastryNetwork net = bulk_built(entries, 16, /*jobs=*/1,
                                 /*candidate_budget=*/8);
  std::vector<NodeId> keys;
  for (const auto& [id, peer] : entries) keys.push_back(id);
  for (std::uint64_t k = 0; k < 200; ++k) {
    keys.push_back(NodeId::hash_of("walk:" + std::to_string(k)));
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (const PeerId from : {PeerId(k % n), PeerId((k * 53 + 7) % n)}) {
      const RouteResult readonly = net.route_readonly(from, keys[k]);
      const std::uint64_t before = net.messages_sent();
      const RouteResult routed = net.route(from, keys[k]);
      EXPECT_EQ(routed.path, readonly.path)
          << "key " << k << " from peer " << from;
      EXPECT_EQ(net.messages_sent() - before, routed.hops());
    }
  }
}

TEST(BulkPutTest, MatchesSequentialPutsIncludingMessageTotals) {
  const std::size_t n = 64;
  const auto entries = make_entries(31, n);
  PastryNetwork sequential = bulk_built(entries, 16, 1, 8);
  PastryNetwork bulk = bulk_built(entries, 16, 1, 8);

  std::vector<PastryNetwork::BulkPutItem> items;
  for (std::uint64_t k = 0; k < 48; ++k) {
    items.push_back({PeerId(k % n),
                     NodeId::hash_of("bp-key:" + std::to_string(k % 12)),
                     "value-" + std::to_string(k)});
  }
  for (const auto& item : items) {
    sequential.put(item.from, item.key, item.value);
  }
  bulk.bulk_put(items, /*jobs=*/3);

  EXPECT_EQ(sequential.messages_sent(), bulk.messages_sent());
  for (std::uint64_t k = 0; k < 12; ++k) {
    const NodeId key = NodeId::hash_of("bp-key:" + std::to_string(k));
    const GetResult gs = sequential.get(0, key);
    const GetResult gb = bulk.get(0, key);
    ASSERT_TRUE(gs.found);
    ASSERT_TRUE(gb.found);
    EXPECT_EQ(gs.values, gb.values) << "key " << k;
  }
}

}  // namespace
}  // namespace spider::dht
