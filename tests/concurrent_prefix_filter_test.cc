// Tests for the per-bin-locked concurrent prefix filter (paper §4.4).
#include "src/core/concurrent_prefix_filter.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/spare.h"
#include "src/util/random.h"

namespace prefixfilter {
namespace {

TEST(ConcurrentPrefixFilter, SingleThreadedMatchesContract) {
  const uint64_t n = 100000;
  const auto keys = RandomKeys(n, 161);
  ConcurrentPrefixFilter<SpareCf12Traits> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(pf.Contains(k));
}

TEST(ConcurrentPrefixFilter, ParallelInsertNoLostKeys) {
  const uint64_t n = 200000;
  const int kThreads = 4;
  const auto keys = RandomKeys(n, 162);
  ConcurrentPrefixFilter<SpareCf12Traits> pf(n);
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (uint64_t i = t; i < n; i += kThreads) {
        if (!pf.Insert(keys[i])) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Contains(k));
}

TEST(ConcurrentPrefixFilter, FailedInsertsNeverEvictAcknowledgedKeys) {
  // Overfilled to twice its capacity the sharded spare runs out and inserts
  // fail; a failed insert must not evict a key acknowledged earlier.
  const uint64_t n = 1 << 16;
  const auto keys = RandomKeys(2 * n, 165);
  ConcurrentPrefixFilter<SpareTcTraits> pf(n);
  size_t first_failure = keys.size();
  std::vector<uint64_t> acked;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (pf.Insert(keys[i])) {
      acked.push_back(keys[i]);
    } else if (first_failure == keys.size()) {
      first_failure = i;
    }
  }
  ASSERT_LT(first_failure, keys.size()) << "overfill never failed";
  uint64_t lost_before_failure = 0;
  for (size_t i = 0; i < first_failure; ++i) {
    lost_before_failure += !pf.Contains(keys[i]);
  }
  EXPECT_EQ(lost_before_failure, 0u);
  uint64_t lost = 0;
  for (uint64_t k : acked) lost += !pf.Contains(k);
  EXPECT_EQ(lost, 0u) << "of " << acked.size() << " acknowledged keys";
}

TEST(ConcurrentPrefixFilter, ConcurrentReadersDuringWrites) {
  const uint64_t n = 100000;
  const auto keys = RandomKeys(n, 163);
  ConcurrentPrefixFilter<SpareTcTraits> pf(n);
  // Pre-insert half; readers continuously verify that half while writers
  // add the rest.
  const uint64_t half = n / 2;
  for (uint64_t i = 0; i < half; ++i) ASSERT_TRUE(pf.Insert(keys[i]));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::thread reader([&]() {
    Xoshiro256 rng(164);
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t k = keys[rng.Below(half)];
      if (!pf.Contains(k)) read_errors.fetch_add(1);
    }
  });
  std::thread writer([&]() {
    for (uint64_t i = half; i < n; ++i) pf.Insert(keys[i]);
  });
  writer.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Contains(k));
}

TEST(ConcurrentPrefixFilter, SpareShardCountIsConfigurable) {
  const uint64_t n = 100000;
  const auto keys = RandomKeys(n, 167);
  // Defaults preserved; explicit counts respected; non-powers-of-two round
  // up to the next power of two (the shard selector masks).
  ConcurrentPrefixFilter<SpareCf12Traits> def(n);
  EXPECT_EQ(def.spare_shards(), 16u);
  ConcurrentPrefixFilter<SpareCf12Traits> rounded(n, 0.95, 168, 5);
  EXPECT_EQ(rounded.spare_shards(), 8u);
  for (uint32_t shards : {1u, 4u, 64u}) {
    ConcurrentPrefixFilter<SpareCf12Traits> pf(n, 0.95, 169 + shards, shards);
    ASSERT_EQ(pf.spare_shards(), shards);
    std::vector<std::thread> threads;
    std::atomic<uint64_t> failures{0};
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t]() {
        for (uint64_t i = t; i < n; i += 2) {
          if (!pf.Insert(keys[i])) failures.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0u) << "shards=" << shards;
    for (uint64_t k : keys) {
      ASSERT_TRUE(pf.Contains(k)) << "shards=" << shards;
    }
  }
}

TEST(ConcurrentPrefixFilter, FprComparableToSequential) {
  const uint64_t n = 1 << 17;
  const auto keys = RandomKeys(n, 165);
  ConcurrentPrefixFilter<SpareCf12Traits> pf(n);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t]() {
      for (uint64_t i = t; i < n; i += 2) pf.Insert(keys[i]);
    });
  }
  for (auto& th : threads) th.join();
  const auto probes = RandomKeys(1 << 19, 166);
  uint64_t fp = 0;
  for (uint64_t k : probes) fp += pf.Contains(k);
  const double rate = static_cast<double>(fp) / probes.size();
  EXPECT_LT(rate, 0.006);
}

// Regression for a lock-discipline gap the thread-safety annotations
// surfaced: SpaceBytes() summed the spare shards (guarded members) without
// their locks.  The read is geometry-only today, so this pins the
// reader-visible contract (bins geometry is a fixed floor, readings never
// decrease during an insert-only workload) and gives the TSan CI leg a
// tripwire should the spare ever grow in place.
TEST(ConcurrentPrefixFilter, SpaceBytesConcurrentWithInserts) {
  const uint64_t n = 200000;
  const auto keys = RandomKeys(n, 167);
  ConcurrentPrefixFilter<SpareCf12Traits> pf(n);

  const size_t empty_space = pf.SpaceBytes();
  ASSERT_GT(empty_space, 0u);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::thread observer([&]() {
    size_t last = empty_space;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t now = pf.SpaceBytes();
      if (now < last || now < empty_space) violations.fetch_add(1);
      last = now;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t]() {
      for (uint64_t i = t; i < n; i += 2) pf.Insert(keys[i]);
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  observer.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GE(pf.SpaceBytes(), empty_space);
}

}  // namespace
}  // namespace prefixfilter
