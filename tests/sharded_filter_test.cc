// Tests for the hash-partitioned sharded filter (src/service/): contract,
// name grammar, batch routing, FPR parity with the unsharded equivalent,
// pinned answers, and snapshot round-trips and rejections.
#include "src/service/sharded_filter.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/batch_router.h"
#include "src/service/filter_service.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace prefixfilter {
namespace {

std::unique_ptr<ShardedFilter> MakeSharded(uint64_t capacity,
                                           uint32_t num_shards, uint64_t seed) {
  return ShardedFilter::Make(capacity, ShardedFilterOptions{num_shards, seed});
}

TEST(ShardedFilterName, GrammarAcceptsAndRejects) {
  uint32_t num_shards = 0;
  ASSERT_TRUE(ShardedFilter::ParseName("SHARD16[PF[TC]]", &num_shards));
  EXPECT_EQ(num_shards, 16u);
  ASSERT_TRUE(ShardedFilter::ParseName("SHARD1[PF[TC]]", &num_shards));
  EXPECT_EQ(num_shards, 1u);
  ASSERT_TRUE(ShardedFilter::ParseName("SHARD4096[PF[TC]]", &num_shards));
  EXPECT_EQ(num_shards, 4096u);

  for (const char* bad :
       {"SHARD[PF[TC]]", "SHARD0[PF[TC]]", "SHARD16", "SHARD16[]",
        "SHARD16[PF[TC]", "SHARD16[PF[TC]]]", "SHARDx[PF[TC]]", "PF[TC]",
        "SHARD8192[PF[TC]]", "SHARD4[CF-12-Flex]", "SHARD8[SHARD4[PF[TC]]]",
        // Non-power-of-two counts are rejected, not rounded, and so are
        // leading zeros: the name is a registry key and must round-trip
        // through Name() unchanged.
        "SHARD3[PF[TC]]", "SHARD10[PF[TC]]", "SHARD016[PF[TC]]",
        "SHARD01[PF[TC]]"}) {
    EXPECT_FALSE(ShardedFilter::ParseName(bad, &num_shards)) << bad;
    EXPECT_EQ(num_shards, 4096u) << bad;
  }
}

TEST(ShardedFilter, MakeRoundTripsNameAndRejectsBadGeometry) {
  auto f = MakeSharded(100000, 16, 3);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->Name(), "SHARD16[PF[TC]]");
  EXPECT_EQ(f->Capacity(), 100000u);
  EXPECT_GT(f->SpaceBytes(), 100000u / 8) << "implausibly small";
  EXPECT_LT(f->SpaceBytes(), 16u * 100000) << "implausibly large";
  // Shard counts round up to a power of two.
  auto rounded = MakeSharded(1000, 10, 3);
  ASSERT_NE(rounded, nullptr);
  EXPECT_EQ(rounded->Name(), "SHARD16[PF[TC]]");

  EXPECT_EQ(MakeSharded(1000, 0, 3), nullptr);
  EXPECT_EQ(MakeSharded(1000, 8192, 3), nullptr);
  EXPECT_EQ(MakeSharded(0, 16, 3), nullptr);
  EXPECT_EQ(MakeSharded((uint64_t{1} << 48) + 1, 16, 3), nullptr);

  // The sharded filter is not a factory configuration, and the service
  // bootstrap accepts only its one spelling.
  EXPECT_EQ(MakeFilter("SHARD16[PF[TC]]", 1000), nullptr);
  EXPECT_NE(MakeFilterService("SHARD16[PF[TC]]", 1000, {0}), nullptr);
  for (const char* bad : {"PF[TC]", "SHARD16[NOPE]", "SHARD8[SHARD4[PF[TC]]]",
                          "SHARD10[PF[TC]]"}) {
    EXPECT_EQ(MakeFilterService(bad, 1000, {0}), nullptr) << bad;
  }
}

TEST(ShardedFilter, NoFalseNegativesAndShardsBalance) {
  const uint64_t n = 200000;
  auto filter = MakeSharded(n, 16, 171);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 172);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(filter->Contains(k));

  // Balls-into-bins balance: every shard within the provisioned headroom,
  // and no shard starved (the selector actually spreads keys).
  const ShardStats total = filter->TotalStats();
  EXPECT_EQ(total.inserts, n);
  EXPECT_EQ(total.insert_failures, 0u);
  const double mean = static_cast<double>(n) / filter->num_shards();
  for (uint32_t s = 0; s < filter->num_shards(); ++s) {
    const ShardStats stats = filter->shard_stats(s);
    EXPECT_LE(stats.inserts, filter->per_shard_capacity()) << "shard " << s;
    EXPECT_GT(stats.inserts, static_cast<uint64_t>(0.8 * mean)) << "shard " << s;
  }
}

TEST(ShardedFilter, BatchAgreesWithScalarAcrossShards) {
  const uint64_t n = 100000;
  auto filter = MakeSharded(n, 8, 173);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 174);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Insert(k));

  std::vector<uint64_t> stream = RandomKeys(60000, 175);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];
  std::vector<uint8_t> batch(stream.size());
  filter->ContainsBatch(stream.data(), stream.size(), batch.data());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(batch[i] != 0, filter->Contains(stream[i])) << "index " << i;
  }

  // Odd sizes and the empty batch do not write out of bounds.
  for (size_t count : {size_t{0}, size_t{1}, size_t{17}, size_t{33}}) {
    std::vector<uint8_t> out(count + 1, 0xcc);
    filter->ContainsBatch(keys.data(), count, out.data());
    for (size_t i = 0; i < count; ++i) EXPECT_EQ(out[i], 1) << i;
    EXPECT_EQ(out[count], 0xcc);
  }
}

// Acceptance criterion: the global false positive rate of the sharded filter
// stays within 10% of the equivalent single prefix filter at equal load.
TEST(ShardedFilter, FprWithinTenPercentOfUnshardedEquivalent) {
  const uint64_t n = 200000;
  const auto keys = RandomKeys(n, 176);
  const auto probes = RandomKeys(2000000, 177);

  auto single = MakeFilter("PF[TC]", n, 178);
  auto sharded = MakeSharded(n, 16, 178);
  ASSERT_NE(single, nullptr);
  ASSERT_NE(sharded, nullptr);
  for (uint64_t k : keys) {
    ASSERT_TRUE(single->Insert(k));
    ASSERT_TRUE(sharded->Insert(k));
  }

  uint64_t fp_single = 0, fp_sharded = 0;
  for (uint64_t k : probes) fp_single += single->Contains(k);
  std::vector<uint8_t> out(probes.size());
  sharded->ContainsBatch(probes.data(), probes.size(), out.data());
  for (uint8_t b : out) fp_sharded += b;

  const double rate_single =
      static_cast<double>(fp_single) / static_cast<double>(probes.size());
  const double rate_sharded =
      static_cast<double>(fp_sharded) / static_cast<double>(probes.size());
  EXPECT_GT(rate_single, 0.0);
  EXPECT_LT(std::abs(rate_sharded - rate_single), 0.10 * rate_single)
      << "single " << rate_single << " sharded " << rate_sharded;
}

TEST(ShardedFilter, ConcurrentMixedTrafficIsSafe) {
  const uint64_t n = 120000;
  auto filter = MakeSharded(n, 8, 179);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 180);
  const uint64_t half = n / 2;
  for (uint64_t i = 0; i < half; ++i) ASSERT_TRUE(filter->Insert(keys[i]));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::thread reader([&]() {
    BatchRouter router;
    std::vector<uint64_t> batch(256);
    std::vector<uint8_t> out(batch.size());
    Xoshiro256 rng(181);
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& k : batch) k = keys[rng.Below(half)];
      router.Route(*filter, batch.data(), batch.size(), out.data());
      for (uint8_t b : out) {
        if (!b) read_errors.fetch_add(1);
      }
    }
  });
  std::thread writer([&]() {
    filter->InsertBatch(keys.data() + half, n - half);
  });
  writer.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Contains(k));
}

TEST(ShardedFilter, SnapshotRoundTripsBitExactly) {
  const uint64_t n = 50000;
  auto filter = MakeSharded(n, 4, 182);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 183);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Insert(k));

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(filter->SerializeTo(&bytes));
  auto restored = ShardedFilter::Deserialize(bytes.data(), bytes.size());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->Name(), "SHARD4[PF[TC]]");
  EXPECT_EQ(restored->Capacity(), n);
  EXPECT_EQ(restored->SpaceBytes(), filter->SpaceBytes());
  // The image is canonical: re-serializing the restored filter (before any
  // query moves its counters) reproduces it byte for byte.
  std::vector<uint8_t> bytes2;
  ASSERT_TRUE(restored->SerializeTo(&bytes2));
  EXPECT_EQ(bytes, bytes2);

  const auto probes = RandomKeys(100000, 184);
  for (uint64_t k : keys) ASSERT_TRUE(restored->Contains(k));
  for (uint64_t k : probes) {
    ASSERT_EQ(restored->Contains(k), filter->Contains(k));
  }
  // Stats survive the round trip.
  for (uint32_t s = 0; s < filter->num_shards(); ++s) {
    EXPECT_EQ(restored->shard_stats(s).inserts, filter->shard_stats(s).inserts);
  }
  EXPECT_EQ(restored->TotalStats().inserts, n);

  // The factory knows only the unsharded configurations.
  EXPECT_EQ(DeserializeFilter(bytes.data(), bytes.size()), nullptr);
}

// InsertBatch groups keys by shard and runs each group through the shard's
// batched insert; applied in order within each shard, the image equals a
// scalar Insert() loop's byte for byte (filters, spares and shard stats).
TEST(ShardedFilter, BatchedFillSerializesLikeScalarFill) {
  const uint64_t n = 50000;
  auto batched = MakeSharded(n, 16, 186);
  auto scalar = MakeSharded(n, 16, 186);
  ASSERT_NE(batched, nullptr);
  ASSERT_NE(scalar, nullptr);
  const auto keys = RandomKeys(n, 187);
  for (uint64_t k : keys) ASSERT_TRUE(scalar->Insert(k));
  for (size_t base = 0; base < keys.size(); base += 4096) {
    const size_t count = std::min<size_t>(4096, keys.size() - base);
    ASSERT_EQ(batched->InsertBatch(keys.data() + base, count), 0u);
  }
  std::vector<uint8_t> batched_bytes, scalar_bytes;
  ASSERT_TRUE(batched->SerializeTo(&batched_bytes));
  ASSERT_TRUE(scalar->SerializeTo(&scalar_bytes));
  EXPECT_TRUE(batched_bytes == scalar_bytes);
}

// Every bound check on snapshot input, one corruption each.  Layout: the
// PFAE envelope (u32 magic, u8 version, u32 name length, name), then u8
// payload version, u32 shard count, u64 capacity, u64 seed, and per shard
// four u64 stats, a u64 length and the raw PF[TC] payload.
TEST(ShardedFilter, CorruptedAndTruncatedSnapshotsAreRejected) {
  auto filter = MakeSharded(5000, 4, 185);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(5000, 186);
  ASSERT_EQ(filter->InsertBatch(keys.data(), keys.size()), 0u);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(filter->SerializeTo(&bytes));
  ASSERT_NE(ShardedFilter::Deserialize(bytes.data(), bytes.size()), nullptr);

  const size_t payload = 4 + 1 + 4 + filter->Name().size();
  const size_t num_shards_at = payload + 1;
  const size_t capacity_at = num_shards_at + 4;
  const size_t shard0_len_at = capacity_at + 8 + 8 + 4 * 8;
  const size_t shard0_blob_at = shard0_len_at + 8;
  const auto rejects = [](const std::vector<uint8_t>& image) {
    return ShardedFilter::Deserialize(image.data(), image.size()) == nullptr;
  };
  const auto with_u32 = [&](size_t at, uint32_t v) {
    auto image = bytes;
    std::memcpy(image.data() + at, &v, sizeof(v));
    return image;
  };
  const auto with_u64 = [&](size_t at, uint64_t v) {
    auto image = bytes;
    std::memcpy(image.data() + at, &v, sizeof(v));
    return image;
  };
  const auto with_byte = [&](size_t at, uint8_t v) {
    auto image = bytes;
    image[at] = v;
    return image;
  };

  EXPECT_TRUE(rejects(with_byte(0, bytes[0] ^ 0x5a))) << "envelope magic";
  EXPECT_TRUE(rejects(with_byte(4, 0x7f))) << "envelope version";
  EXPECT_TRUE(rejects(with_byte(9 + 5, '3'))) << "name: SHARD3";
  EXPECT_TRUE(rejects(with_byte(payload, 1))) << "payload version";
  EXPECT_TRUE(rejects(with_u32(num_shards_at, 8))) << "count != name";
  EXPECT_TRUE(rejects(with_u64(capacity_at, 0))) << "capacity 0";
  EXPECT_TRUE(rejects(with_u64(capacity_at, (uint64_t{1} << 48) + 1)))
      << "capacity > 2^48";
  EXPECT_TRUE(rejects(with_u64(capacity_at, 10000))) << "shard geometry";
  EXPECT_TRUE(rejects(with_u64(shard0_len_at, bytes.size())))
      << "blob_len > remaining";
  EXPECT_TRUE(rejects(with_byte(shard0_blob_at, bytes[shard0_blob_at] ^ 1)))
      << "shard payload magic";
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_TRUE(rejects(trailing)) << "trailing byte";
  for (size_t len : {size_t{0}, size_t{3}, size_t{8}, payload, shard0_blob_at,
                     bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_EQ(ShardedFilter::Deserialize(bytes.data(), len), nullptr)
        << "len=" << len;
  }
}

// The scalar and single-shard fast paths (ROADMAP: close the ~35-40%
// single-thread batch overhead) must stay observably identical to the
// routed path: same answers, same per-shard stats accounting.
TEST(ShardedFilter, FastPathsAgreeWithRoutedPathAndKeepStats) {
  const uint64_t n = 50000;

  // 1-key batches hit the inline route-on-query path.
  auto impl = MakeSharded(n, 16, 331);
  ASSERT_NE(impl, nullptr);
  const auto keys = RandomKeys(n, 332);
  for (uint64_t k : keys) ASSERT_TRUE(impl->Insert(k));
  const uint64_t queries_before = impl->TotalStats().queries;
  const auto probes = RandomKeys(5000, 333);
  for (size_t i = 0; i < probes.size(); ++i) {
    const uint64_t key = i % 2 == 0 ? keys[i % n] : probes[i];
    uint8_t batch_answer = 0xcc;
    impl->ContainsBatch(&key, 1, &batch_answer);
    ASSERT_EQ(batch_answer != 0, impl->Contains(key)) << i;
    ASSERT_NE(batch_answer, 0xcc);
  }
  // Both the fast-path batch and the scalar double-check counted.
  EXPECT_EQ(impl->TotalStats().queries - queries_before, 2 * probes.size());

  // Single-shard filters drain batches straight through shard 0.
  auto single = MakeSharded(n, /*num_shards=*/1, 334);
  ASSERT_NE(single, nullptr);
  EXPECT_EQ(single->num_shards(), 1u);
  EXPECT_EQ(single->InsertBatch(keys.data(), keys.size()), 0u);
  std::vector<uint64_t> stream = RandomKeys(20000, 335);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];
  std::vector<uint8_t> batch(stream.size());
  single->ContainsBatch(stream.data(), stream.size(), batch.data());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(batch[i] != 0, single->Contains(stream[i])) << i;
  }
  const ShardStats stats = single->shard_stats(0);
  EXPECT_EQ(stats.inserts, n);
  // The full batch plus the per-key scalar verification above.
  EXPECT_EQ(stats.queries, 2 * stream.size());

  // 1-key inserts ride the scalar insert path with identical accounting.
  auto sharded2 = MakeSharded(1000, /*num_shards=*/8, 336);
  const uint64_t one = 12345;
  EXPECT_EQ(sharded2->InsertBatch(&one, 1), 0u);
  EXPECT_TRUE(sharded2->Contains(one));
  EXPECT_EQ(sharded2->TotalStats().inserts, 1u);
}

// BatchRouter probes each shard through index lists of at most 4096 keys
// and writes answers in place.  At every chunk edge the routed answers and
// per-shard stats must equal a Contains loop's, and no byte past out[count)
// may be written.  SHARD1 takes the single-shard fast path instead.
TEST(ShardedFilter, RoutedBatchesMatchScalarLoopAtChunkEdges) {
  const uint64_t n = 60000;
  const auto keys = RandomKeys(n, 341);
  std::vector<uint64_t> stream = RandomKeys(size_t{1} << 20, 342);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];
  for (const uint32_t num_shards : {16u, 1u}) {
    auto filter = MakeSharded(n, num_shards, 343);
    ASSERT_NE(filter, nullptr);
    ASSERT_EQ(filter->InsertBatch(keys.data(), keys.size()), 0u);
    const auto stats_now = [&] {
      std::vector<ShardStats> all;
      for (uint32_t s = 0; s < filter->num_shards(); ++s) {
        all.push_back(filter->shard_stats(s));
      }
      return all;
    };
    for (const size_t count :
         {size_t{0}, size_t{1}, size_t{2}, size_t{4095}, size_t{4096},
          size_t{4097}, size_t{3 * 4096 + 1}, size_t{1} << 20}) {
      SCOPED_TRACE(testing::Message() << "SHARD" << num_shards << " count "
                                      << count);
      std::vector<uint8_t> out(count + 1, 0xa5);
      const auto before = stats_now();
      filter->ContainsBatch(stream.data(), count, out.data());
      const auto routed = stats_now();
      EXPECT_EQ(out[count], 0xa5) << "sentinel overwritten";
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], filter->Contains(stream[i]) ? 1 : 0) << "index " << i;
      }
      const auto looped = stats_now();
      for (uint32_t s = 0; s < filter->num_shards(); ++s) {
        EXPECT_EQ(routed[s].queries - before[s].queries,
                  looped[s].queries - routed[s].queries)
            << "shard " << s;
        EXPECT_EQ(routed[s].hits - before[s].hits,
                  looped[s].hits - routed[s].hits)
            << "shard " << s;
      }
    }
  }
}

// InsertSlice applies a grouped chunk's index lists a budget at a time; any
// budget, including ones that split shard groups and chunks, must leave the
// filter byte-identical to one unsliced InsertBatch.
TEST(ShardedFilter, InsertSliceBudgetsSerializeLikeOneInsertBatch) {
  const auto keys = RandomKeys(3 * 4096 + 7, 344);
  for (const uint32_t num_shards : {16u, 1u}) {
    auto whole = MakeSharded(keys.size(), num_shards, 345);
    ASSERT_NE(whole, nullptr);
    ASSERT_EQ(whole->InsertBatch(keys.data(), keys.size()), 0u);
    std::vector<uint8_t> whole_bytes;
    ASSERT_TRUE(whole->SerializeTo(&whole_bytes));
    for (const size_t budget :
         {size_t{1}, size_t{255}, size_t{256}, size_t{4097}}) {
      auto sliced = MakeSharded(keys.size(), num_shards, 345);
      ASSERT_NE(sliced, nullptr);
      ShardedFilter::InsertJob job;
      ShardedFilter::StartInsert(keys.data(), keys.size(), &job);
      size_t calls = 0;
      while (!sliced->InsertSlice(&job, budget)) ++calls;
      EXPECT_EQ(calls + 1, (keys.size() + budget - 1) / budget)
          << "budget " << budget;
      EXPECT_EQ(job.failures(), 0u);
      std::vector<uint8_t> sliced_bytes;
      ASSERT_TRUE(sliced->SerializeTo(&sliced_bytes));
      EXPECT_TRUE(sliced_bytes == whole_bytes)
          << "SHARD" << num_shards << " budget " << budget;
    }
  }
}

// Regression for a lock-discipline gap the thread-safety annotations
// surfaced: SpaceBytes() walked shard->filter (a guarded member) without
// the shard locks.  Today that read is geometry-only, so this test pins
// the contract the fix restores — SpaceBytes taken concurrently with
// inserts always returns the same sane value — and, under the TSan CI
// leg, will flag any future SpaceBytes implementation that derives from
// occupancy state if the locks are ever dropped again.
TEST(ShardedFilter, SpaceBytesConcurrentWithInserts) {
  const uint64_t n = 120000;
  auto filter = MakeSharded(n, 8, 191);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 192);

  const size_t empty_space = filter->SpaceBytes();
  ASSERT_GT(empty_space, 0u);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::thread observer([&]() {
    size_t last = empty_space;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t now = filter->SpaceBytes();
      if (now < last || now == 0) violations.fetch_add(1);
      last = now;
    }
  });
  filter->InsertBatch(keys.data(), keys.size());
  stop.store(true);
  observer.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GE(filter->SpaceBytes(), empty_space);
}

// The answers of a SHARD16[PF[TC]] service, pinned across refactors of the
// sharding layer: FNV-1a (the kernel_differential_test recipe) over the
// filter's SpaceBytes and its ContainsBatch answer stream at batch sizes
// 1, 7, 64 and 4096.  Snapshot bytes may change with the snapshot format;
// these bits may not, since they fix the per-shard seeds, capacities and
// routing.
constexpr uint64_t kShard16PfTcAnswerDigest = 0x7c8ff4732eb63fc6ull;

uint64_t Fnv1a(const uint8_t* data, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ShardedFilter, AnswerStreamMatchesGoldenDigest) {
  constexpr uint64_t kCapacity = 50000;
  obs::MetricsRegistry registry;
  FilterServiceOptions options;
  options.num_threads = 0;
  options.registry = &registry;
  auto service = MakeFilterService("SHARD16[PF[TC]]", kCapacity, options,
                                   /*seed=*/0x5eedf00dull);
  ASSERT_NE(service, nullptr);
  const auto keys = RandomKeys(kCapacity, 3);
  ASSERT_EQ(service->InsertBatchSync(keys.data(), keys.size()), 0u);

  const uint64_t space = service->filter().SpaceBytes();
  uint64_t digest = 1469598103934665603ull;
  for (int i = 0; i < 8; ++i) {
    const uint8_t byte = static_cast<uint8_t>(space >> (8 * i));
    digest = Fnv1a(&byte, 1, digest);
  }

  const auto random = RandomKeys(20000, 4);
  std::vector<uint64_t> probes(random.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    probes[i] = (i % 2 == 0) ? keys[(i / 2) % keys.size()] : random[i];
  }
  std::vector<uint8_t> out(probes.size());
  for (const size_t batch : {size_t{1}, size_t{7}, size_t{64}, size_t{4096}}) {
    std::fill(out.begin(), out.end(), 0xee);
    for (size_t base = 0; base < probes.size(); base += batch) {
      const size_t n = std::min(batch, probes.size() - base);
      service->QueryBatchSync(probes.data() + base, n, out.data() + base);
    }
    digest = Fnv1a(out.data(), out.size(), digest);
  }
  EXPECT_EQ(digest, kShard16PfTcAnswerDigest)
      << "SHARD16[PF[TC]]: actual digest 0x" << std::hex << digest
      << " — per-shard seeds, capacities or routing changed";
}

}  // namespace
}  // namespace prefixfilter
