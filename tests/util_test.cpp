// Unit tests for src/util: RNG determinism and distribution sanity,
// statistics, SHA-1 known-answer vectors, worker-pool semantics, the LRU
// cache policy.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/hash.hpp"
#include "util/keys.hpp"
#include "util/lru_cache.hpp"
#include "util/parallel.hpp"
#include "util/procstat.hpp"
#include "util/rng.hpp"
#include "util/sha1.hpp"
#include "util/stats.hpp"

namespace spider {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / kDraws, 5.0, 0.1);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.next_normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.next_pareto(3.0, 2.0), 3.0);
}

TEST(Rng, ZipfRanksInRangeAndSkewed) {
  Rng rng(23);
  constexpr std::uint64_t kN = 100;
  int rank0 = 0, rank_tail = 0;
  for (int i = 0; i < 50000; ++i) {
    const auto r = rng.next_zipf(kN, 1.2);
    ASSERT_LT(r, kN);
    if (r == 0) ++rank0;
    if (r >= kN / 2) ++rank_tail;
  }
  // Rank 0 must dominate the entire upper half combined tail-heaviness.
  EXPECT_GT(rank0, rank_tail);
}

TEST(Rng, SampleIndicesDistinctAndComplete) {
  Rng rng(29);
  auto sample = rng.sample_indices(50, 20);
  std::set<std::size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (std::size_t idx : uniq) EXPECT_LT(idx, 50u);

  auto all = rng.sample_indices(10, 10);
  std::set<std::size_t> full(all.begin(), all.end());
  EXPECT_EQ(full.size(), 10u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent() == child()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(SampleStats, BasicMoments) {
  SampleStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(SampleStats, Percentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.2);
}

TEST(SampleStats, PercentileAfterInterleavedAdds) {
  SampleStats s;
  s.add(5);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  s.add(1);  // invalidates sorted cache
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
}

TEST(SampleStats, InterleavedAddsAlwaysSeeTheFullSampleSet) {
  // Regression guard on the lazy percentile cache: the rebuild trigger is
  // a size comparison, which is only sound because add() eagerly clears
  // the cache — any future mutation path that changes samples without
  // clearing would serve stale order statistics. Interleave adds and
  // percentile reads and check every read against a freshly computed
  // expectation.
  SampleStats s;
  for (int i = 1; i <= 64; ++i) {
    // Descending inserts make a stale cache maximally visible: each new
    // sample shifts every low percentile.
    s.add(double(65 - i));
    EXPECT_DOUBLE_EQ(s.percentile(0), double(65 - i)) << "after add " << i;
    EXPECT_DOUBLE_EQ(s.percentile(100), 64.0);
    if (i % 2 == 1) continue;  // also exercise add-after-read-after-add
    const double median = s.percentile(50);
    EXPECT_DOUBLE_EQ(median, (65 - i + 64) / 2.0) << "median after " << i;
  }
  EXPECT_EQ(s.count(), 64u);
}

TEST(ProcStat, AttributedHwmDeltaArithmetic) {
  EXPECT_EQ(util::attributed_hwm_delta(0, 0), 0u);
  EXPECT_EQ(util::attributed_hwm_delta(100, 350), 250u);
  // VmHWM is monotone, so after < before only happens on misuse or a
  // failed /proc read (0); the delta clamps instead of underflowing.
  EXPECT_EQ(util::attributed_hwm_delta(350, 100), 0u);
  EXPECT_EQ(util::attributed_hwm_delta(350, 0), 0u);
  const std::uint64_t big = std::uint64_t(48) << 30;
  EXPECT_EQ(util::attributed_hwm_delta(big, big + 1), 1u);
}

TEST(ProcStat, VmHwmReadsAPositivePeakOnLinux) {
#ifdef __linux__
  const std::uint64_t hwm = util::vm_hwm_bytes();
  EXPECT_GT(hwm, 0u);
  // Monotone: a second read never goes down.
  EXPECT_GE(util::vm_hwm_bytes(), hwm);
#endif
}

TEST(SampleStats, SamplesPreserveInsertionOrder) {
  // Regression: percentile() used to std::sort the live sample buffer,
  // silently reordering what samples() returned afterwards.
  SampleStats s;
  const std::vector<double> order = {9.0, 1.0, 7.0, 3.0, 5.0};
  for (double x : order) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  (void)s.percentile(95);
  EXPECT_EQ(s.samples(), order);
  // A summary after percentiles must also leave the order intact.
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.samples(), order);
}

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  util::WorkerPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.for_each_index(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(WorkerPool, ReusableAcrossBatches) {
  util::WorkerPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.for_each_index(50, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 250u);
  pool.for_each_index(0, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 250u);
}

TEST(WorkerPool, PropagatesFirstException) {
  util::WorkerPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.for_each_index(8,
                                   [&](std::size_t i) {
                                     ran.fetch_add(1);
                                     if (i == 3) throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  // The pool stays usable after an exceptional batch.
  pool.for_each_index(4, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_GE(ran.load(), 4);
}

TEST(ParallelForEach, SerialPathRunsOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  util::parallel_for_each(1, seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelForEach, MatchesSerialResults) {
  auto run = [](std::size_t jobs) {
    std::vector<std::uint64_t> out(64);
    util::parallel_for_each(jobs, out.size(), [&](std::size_t i) {
      Rng rng(util::hash_values(std::uint64_t(42), i));
      std::uint64_t acc = 0;
      for (int k = 0; k < 100; ++k) acc ^= rng();
      out[i] = acc;
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
  EXPECT_EQ(run(1), run(16));
}

TEST(TimeSeriesCounter, AccumulatesPerBucket) {
  TimeSeriesCounter c(10);
  c.add(0);
  c.add(0);
  c.add(9, 5);
  EXPECT_EQ(c.at(0), 2u);
  EXPECT_EQ(c.at(9), 5u);
  EXPECT_EQ(c.total(), 7u);
}

TEST(RatioCounter, ComputesRatio) {
  RatioCounter r;
  r.record(true);
  r.record(false);
  r.record(true);
  r.record(true);
  EXPECT_DOUBLE_EQ(r.ratio(), 0.75);
}

TEST(Sha1, KnownVectors) {
  // FIPS-180 test vectors.
  auto hex = [](const Sha1Digest& d) {
    std::string out;
    char buf[3];
    for (auto b : d) {
      std::snprintf(buf, sizeof(buf), "%02x", b);
      out += buf;
    }
    return out;
  };
  EXPECT_EQ(hex(sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex(sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex(sha1("abcdbcdecdefdefgefghfghighijhijkijkjklmnklmnlmnomnopnopq")),
            "788b8cbe1b91910836f1f581243c4c3e8d06eb64");
  // Block-boundary lengths (55, 56, 64 bytes) exercise the padding paths.
  EXPECT_EQ(hex(sha1(std::string(55, 'a'))),
            "c1c8bbdc22796e28c0e15163d20899b65621d65a");
  EXPECT_EQ(hex(sha1(std::string(56, 'a'))),
            "c2db330f6083854c99d4b5bfb6e8f29f201be699");
  EXPECT_EQ(hex(sha1(std::string(64, 'a'))),
            "0098ba824b5c16427bd7a1122a5a442a25ec644d");
}

TEST(Sha1, Prefix64MatchesDigest) {
  const Sha1Digest d = sha1("abc");
  std::uint64_t expect = 0;
  for (int i = 0; i < 8; ++i) expect = (expect << 8) | d[std::size_t(i)];
  EXPECT_EQ(sha1_prefix64("abc"), expect);
}


TEST(Keys, OrderedPairKeyDistinguishesOrderAndFields) {
  using K = util::PairKey<std::uint32_t, std::uint32_t>;
  EXPECT_EQ((K{1, 2}), (K{1, 2}));
  EXPECT_FALSE((K{1, 2}) == (K{2, 1}));
  // The shift-packed family collided when a field outgrew its 32-bit
  // slice: (a=1, b=0) packed identically to (a=0, b=1<<32). Struct keys
  // keep every field at full width.
  using W = util::PairKey<std::uint64_t, std::uint64_t>;
  const W narrow{1, 0};
  const W wide{0, std::uint64_t(1) << 32};
  EXPECT_FALSE(narrow == wide);
  EXPECT_NE(util::PairKeyHash{}(narrow), util::PairKeyHash{}(wide));
}

TEST(Keys, UnorderedPairKeyNormalizes) {
  using K = util::UnorderedPairKey<std::uint32_t>;
  EXPECT_EQ(K(7, 3), K(3, 7));
  EXPECT_EQ(util::UnorderedPairKeyHash{}(K(7, 3)),
            util::UnorderedPairKeyHash{}(K(3, 7)));
  EXPECT_FALSE(K(3, 7) == K(3, 8));
  std::unordered_set<K, util::UnorderedPairKeyHash> seen;
  EXPECT_TRUE(seen.insert(K(1, 2)).second);
  EXPECT_FALSE(seen.insert(K(2, 1)).second) << "{a,b} and {b,a} are one edge";
}

TEST(Keys, PairKeyWorksAsUnorderedMapKey) {
  std::unordered_map<util::PairKey<std::uint32_t, std::uint16_t>, int,
                     util::PairKeyHash>
      m;
  m[{4, 2}] = 42;
  m[{2, 4}] = 24;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ((m[{4, 2}]), 42);
}

// Returns get(key) on `cache`, computing the value as key * 10.
int& lru_get(util::LruCache<int, int>& cache, int key) {
  return cache.get(key, [key] { return key * 10; });
}

TEST(LruCache, EvictsTheColdestEntry) {
  util::LruCache<int, int> cache(3);
  for (int k : {1, 2, 3}) lru_get(cache, k);
  lru_get(cache, 1);  // hit: 2 is now the coldest
  EXPECT_EQ(cache.misses(), 3u);
  lru_get(cache, 4);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  for (int k : {1, 3, 4}) EXPECT_EQ(lru_get(cache, k), k * 10);
  EXPECT_EQ(cache.misses(), 4u) << "1, 3 and 4 survived the eviction";
  EXPECT_EQ(lru_get(cache, 2), 20);  // the victim is recomputed
  EXPECT_EQ(cache.misses(), 5u);
  // Recency after the hits above was 4, 3, 1: inserting 2 evicted 1.
  for (int k : {2, 3, 4}) lru_get(cache, k);
  EXPECT_EQ(cache.misses(), 5u);
  lru_get(cache, 1);
  EXPECT_EQ(cache.misses(), 6u);
}

TEST(LruCache, NeverEvictsTheKeyJustInserted) {
  util::LruCache<int, int> cache(0);  // floor: one entry
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(lru_get(cache, k), k * 10);
    EXPECT_EQ(cache.size(), 1u);
  }
  EXPECT_EQ(cache.evictions(), 4u);
  lru_get(cache, 4);  // the last key inserted is the one kept
  EXPECT_EQ(cache.misses(), 5u);
}

TEST(LruCache, ReferencesToSurvivingEntriesStayValid) {
  util::LruCache<int, std::vector<int>> bounded(3);
  std::vector<int>& hot = bounded.get(0, [] { return std::vector<int>{7}; });
  for (int k = 1; k < 200; ++k) {
    // Touching 0 before each insertion keeps it out of the victim slot.
    EXPECT_EQ(&bounded.get(0, [] { return std::vector<int>{}; }), &hot);
    bounded.get(k, [k] { return std::vector<int>{k}; });
  }
  EXPECT_EQ(hot, std::vector<int>{7});
  EXPECT_EQ(bounded.evictions(), 197u);

  // Unbounded: many insertions rehash the index; the entry never moves.
  util::LruCache<int, int> unbounded;
  int& first = lru_get(unbounded, 0);
  for (int k = 1; k < 1000; ++k) lru_get(unbounded, k);
  EXPECT_EQ(&lru_get(unbounded, 0), &first);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(unbounded.evictions(), 0u);
}

TEST(LruCache, CountsEvictionsExactly) {
  util::LruCache<int, int> cache(4);
  for (int k = 0; k < 10; ++k) lru_get(cache, k);
  EXPECT_EQ(cache.misses(), 10u);
  EXPECT_EQ(cache.evictions(), 6u);
  // A lower cap evicts down to it at the next miss, one count per entry.
  cache.set_capacity(2);
  EXPECT_EQ(cache.size(), 4u);
  lru_get(cache, 10);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 9u);
  // clear() drops entries without counting them; misses keep counting.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 9u);
  lru_get(cache, 10);
  EXPECT_EQ(cache.misses(), 12u);
}

TEST(LruCache, VisitKeepsRecencyAndEraseIsNeitherMissNorEviction) {
  util::LruCache<int, int> cache(3);
  for (int k : {1, 2, 3}) lru_get(cache, k);
  std::vector<int> visited;
  cache.for_each([&](int key, int& value) {
    visited.push_back(key);
    ++value;
  });
  EXPECT_EQ(visited, (std::vector<int>{3, 2, 1}));  // most recent first
  // The visit refreshed nothing: 1 is still the coldest and goes first.
  lru_get(cache, 4);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(lru_get(cache, 2), 21);  // a hit keeps the visited value
  EXPECT_EQ(cache.misses(), 4u);

  cache.erase(3);
  cache.erase(7);  // absent: nothing happens
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(lru_get(cache, 3), 30);  // recomputed, into the erased slot
  EXPECT_EQ(cache.misses(), 5u);
  EXPECT_EQ(cache.evictions(), 1u);
}

}  // namespace
}  // namespace spider
