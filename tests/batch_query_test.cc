// Tests for the prefetching batch-query and batch-insert APIs, and for the
// devirtualized AnyFilter batch path: one virtual dispatch per batch must
// produce answers identical to per-key virtual Contains() on every route a
// batch can take — the adapter's concrete loop and ShardedFilter's single-
// and multi-shard routing.
#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/filter_factory.h"
#include "src/core/prefix_filter.h"
#include "src/core/spare.h"
#include "src/filters/twochoicer.h"
#include "src/service/filter_service.h"
#include "src/service/sharded_filter.h"
#include "src/util/batch_pipeline.h"
#include "src/util/random.h"

namespace prefixfilter {
namespace {

TEST(BatchQuery, AgreesWithScalarQueries) {
  const uint64_t n = 200000;
  const auto keys = RandomKeys(n, 201);
  PrefixFilter<SpareTcTraits> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));

  // Mixed stream: positives and negatives interleaved.
  std::vector<uint64_t> stream = RandomKeys(50000, 202);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];

  std::vector<uint8_t> batch(stream.size());
  pf.ContainsBatch(stream.data(), stream.size(), batch.data());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(static_cast<bool>(batch[i]), pf.Contains(stream[i]))
        << "index " << i;
  }
}

TEST(BatchQuery, HandlesOddSizes) {
  const uint64_t n = 10000;
  const auto keys = RandomKeys(n, 203);
  PrefixFilter<SpareCf12Traits> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  for (size_t count : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                       size_t{17}, size_t{33}}) {
    std::vector<uint64_t> stream(keys.begin(),
                                 keys.begin() + static_cast<long>(count));
    std::vector<uint8_t> out(count + 1, 0xcc);
    pf.ContainsBatch(stream.data(), count, out.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[i], 1) << "count=" << count << " i=" << i;
    }
    EXPECT_EQ(out[count], 0xcc) << "wrote past the end";
  }
}

TEST(BatchQuery, NoFalseNegativesAtFullLoad) {
  const uint64_t n = 1 << 18;
  const auto keys = RandomKeys(n, 204);
  PrefixFilter<SpareBbfTraits> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  std::vector<uint8_t> out(keys.size());
  pf.ContainsBatch(keys.data(), keys.size(), out.data());
  for (size_t i = 0; i < keys.size(); ++i) ASSERT_TRUE(out[i]);
}

// --- PrefixFilter batch pipeline vs. the scalar loop, on every spare -------
//
// Filters are loaded to capacity, past bin overflow, so a few percent of
// queries go to the spare and exercise the prefetched spare probe.  Answers
// and stats() totals must equal those of a Contains() loop.

template <typename Spare>
class PrefixFilterBatchParity : public ::testing::Test {
 protected:
  static constexpr uint64_t kKeys = 20000;
  PrefixFilterBatchParity() : filter_(kKeys), keys_(RandomKeys(kKeys, 211)) {
    for (uint64_t k : keys_) EXPECT_TRUE(filter_.Insert(k));
    EXPECT_GT(filter_.stats().spare_inserts, 0u);
  }

  // Checks batch == scalar on keys[0..count), answers and query counters.
  void ExpectBatchMatchesScalar(const std::vector<uint64_t>& keys,
                                size_t count) {
    std::vector<uint8_t> out(count + 1, 0xcc);
    filter_.ResetQueryStats();
    filter_.ContainsBatch(keys.data(), count, out.data());
    const PrefixFilterStats batch_stats = filter_.stats();
    filter_.ResetQueryStats();
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], filter_.Contains(keys[i]) ? 1 : 0)
          << filter_.Name() << " count=" << count << " i=" << i;
    }
    EXPECT_EQ(out[count], 0xcc) << "wrote past the end";
    EXPECT_EQ(batch_stats.queries, filter_.stats().queries);
    EXPECT_EQ(batch_stats.spare_queries, filter_.stats().spare_queries);
  }

  // Splits keys by the scalar path's route: keys whose Contains() counted a
  // spare query go to *spare_bound, the rest to *bin_bound.
  void SplitByRoute(const std::vector<uint64_t>& keys,
                    std::vector<uint64_t>* spare_bound,
                    std::vector<uint64_t>* bin_bound) {
    for (uint64_t k : keys) {
      const uint64_t before = filter_.stats().spare_queries;
      filter_.Contains(k);
      (filter_.stats().spare_queries != before ? spare_bound : bin_bound)
          ->push_back(k);
    }
  }

  PrefixFilter<Spare> filter_;
  std::vector<uint64_t> keys_;
};

using SpareTypes =
    ::testing::Types<SpareTcTraits, SpareBbfTraits, SpareCf12Traits>;
TYPED_TEST_SUITE(PrefixFilterBatchParity, SpareTypes);

TYPED_TEST(PrefixFilterBatchParity, MixedStreamAtEveryBatchSize) {
  // Half positives, half (almost surely) negatives.
  std::vector<uint64_t> stream = RandomKeys(4096, 212);
  for (size_t i = 0; i < stream.size(); i += 2) {
    stream[i] = this->keys_[i % TestFixture::kKeys];
  }
  constexpr size_t kD = kBatchPrefetchDistance;
  for (size_t count :
       {size_t{0}, size_t{1}, kD - 1, kD, kD + 1, stream.size()}) {
    this->ExpectBatchMatchesScalar(stream, count);
  }
  // The full-stream batch sent keys to the spare.
  EXPECT_GT(this->filter_.stats().spare_queries, 0u);
}

TYPED_TEST(PrefixFilterBatchParity, AllSpareBoundBatchMatchesScalar) {
  // Collect keys the scalar path sends to the spare (positives and
  // negatives), more than the prefetch distance, so spare probes run
  // back to back while the pipeline is full.
  const size_t wanted = 2 * kBatchPrefetchDistance + 5;
  std::vector<uint64_t> candidates = RandomKeys(TestFixture::kKeys, 213);
  for (size_t i = 0; i < candidates.size(); i += 2) {
    candidates[i] = this->keys_[i];
  }
  std::vector<uint64_t> spare_bound;
  for (uint64_t k : candidates) {
    const uint64_t before = this->filter_.stats().spare_queries;
    this->filter_.Contains(k);
    if (this->filter_.stats().spare_queries != before) spare_bound.push_back(k);
    if (spare_bound.size() == wanted) break;
  }
  ASSERT_EQ(spare_bound.size(), wanted);
  this->ExpectBatchMatchesScalar(spare_bound, spare_bound.size());
  EXPECT_EQ(this->filter_.stats().spare_queries, wanted);
}

// --- ContainsBatch's spare queue at its boundaries --------------------------
//
// ContainsBatch holds spare-bound keys on a queue of kSpareQueueSize and
// resolves it when it fills and at the end of the batch.  These batches put
// the number of spare-bound keys on either side of those points, with
// bin-bound keys between them, and end on either kind of key.

TYPED_TEST(PrefixFilterBatchParity, SpareQueueBoundariesMatchScalar) {
  constexpr size_t kQ = PrefixFilter<TypeParam>::kSpareQueueSize;
  std::vector<uint64_t> candidates = RandomKeys(TestFixture::kKeys, 214);
  for (size_t i = 0; i < candidates.size(); i += 2) {
    candidates[i] = this->keys_[i];
  }
  std::vector<uint64_t> spare_bound;
  std::vector<uint64_t> bin_bound;
  this->SplitByRoute(candidates, &spare_bound, &bin_bound);
  ASSERT_GE(spare_bound.size(), 2 * kQ + 1);
  ASSERT_GE(bin_bound.size(), 3 * (2 * kQ + 1) + 1);
  for (size_t spare_count : {size_t{1}, kQ - 1, kQ, kQ + 1, 2 * kQ + 1}) {
    for (bool last_spare_bound : {false, true}) {
      // Three bin-bound keys before each spare-bound one, and one more at
      // the end unless the batch is to end on a spare-bound key.
      std::vector<uint64_t> stream;
      size_t next_bin = 0;
      for (size_t j = 0; j < spare_count; ++j) {
        for (int t = 0; t < 3; ++t) stream.push_back(bin_bound[next_bin++]);
        stream.push_back(spare_bound[j]);
      }
      if (!last_spare_bound) stream.push_back(bin_bound[next_bin]);
      SCOPED_TRACE(::testing::Message() << "spare_count=" << spare_count
                                        << " last_spare_bound="
                                        << last_spare_bound);
      this->ExpectBatchMatchesScalar(stream, stream.size());
      EXPECT_EQ(this->filter_.stats().spare_queries, spare_count);
    }
  }
}

TYPED_TEST(PrefixFilterBatchParity, QueueFillingSparePositiveMatchesScalar) {
  // The kQ-th and 2kQ-th spare-bound keys are inserted keys whose
  // fingerprints live in the spare, so their bin answers are 0 and only the
  // spare answers 1.  Resolving the queue before such a key's bin answer is
  // written would leave the 0.
  constexpr size_t kQ = PrefixFilter<TypeParam>::kSpareQueueSize;
  std::vector<uint64_t> spare_positives;
  std::vector<uint64_t> bin_positives;
  this->SplitByRoute(this->keys_, &spare_positives, &bin_positives);
  std::vector<uint64_t> spare_negatives;
  std::vector<uint64_t> bin_negatives;
  this->SplitByRoute(RandomKeys(TestFixture::kKeys, 216), &spare_negatives,
                     &bin_negatives);
  ASSERT_GE(spare_positives.size(), 2u);
  ASSERT_GE(spare_negatives.size(), 2 * kQ);
  ASSERT_GE(bin_negatives.size(), 2 * kQ + 1);
  std::vector<uint64_t> stream;
  for (size_t j = 1; j <= 2 * kQ; ++j) {
    stream.push_back(bin_negatives[j]);
    stream.push_back(j % kQ == 0 ? spare_positives[j / kQ - 1]
                                 : spare_negatives[j]);
  }
  stream.push_back(bin_negatives[0]);
  ASSERT_TRUE(this->filter_.Contains(stream[2 * kQ - 1]));
  ASSERT_TRUE(this->filter_.Contains(stream[4 * kQ - 1]));
  this->ExpectBatchMatchesScalar(stream, stream.size());
  EXPECT_EQ(this->filter_.stats().spare_queries, 2 * kQ);
}

// --- PrefixFilter batched insert vs. the scalar loop, on every spare ------
//
// InsertBatch must apply keys in input order through Insert's own body: the
// snapshot bytes, stats() and failure count of a batched build equal those
// of an Insert() loop over the same stream, at every batch size.  Bins keep
// the smallest fingerprints whatever the order, but eviction counts, the
// two-choice and cuckoo spares' layouts and the failure point all depend
// on it.

template <typename Spare>
class PrefixFilterInsertBatchParity : public ::testing::Test {
 protected:
  struct Build {
    std::vector<uint8_t> image;
    PrefixFilterStats stats;
    uint64_t failures = 0;
  };

  static Build Finish(const PrefixFilter<Spare>& filter, uint64_t failures) {
    Build build;
    filter.SerializeTo(&build.image);
    build.stats = filter.stats();
    build.failures = failures;
    return build;
  }

  // Builds `stream` into an empty filter with an Insert() loop, then with
  // InsertBatch at every batch size, and checks the builds agree.  Returns
  // the scalar build.
  static Build ExpectBatchBuildsMatchScalar(
      uint64_t capacity, const PrefixFilterOptions& options,
      const std::vector<uint64_t>& stream) {
    PrefixFilter<Spare> scalar(capacity, options);
    uint64_t scalar_failures = 0;
    for (uint64_t k : stream) scalar_failures += !scalar.Insert(k);
    const Build expected = Finish(scalar, scalar_failures);

    constexpr size_t kD = kBatchPrefetchDistance;
    for (size_t batch : {size_t{1}, size_t{7}, kD - 1, kD, kD + 1,
                         size_t{4096}, stream.size()}) {
      PrefixFilter<Spare> batched(capacity, options);
      uint64_t failures = 0;
      for (size_t base = 0; base < stream.size(); base += batch) {
        const size_t count = std::min(batch, stream.size() - base);
        failures += batched.InsertBatch(stream.data() + base, count);
      }
      const Build actual = Finish(batched, failures);
      EXPECT_EQ(actual.failures, expected.failures)
          << batched.Name() << " batch=" << batch;
      EXPECT_EQ(actual.stats.inserts, expected.stats.inserts)
          << batched.Name() << " batch=" << batch;
      EXPECT_EQ(actual.stats.spare_inserts, expected.stats.spare_inserts)
          << batched.Name() << " batch=" << batch;
      EXPECT_EQ(actual.stats.evictions, expected.stats.evictions)
          << batched.Name() << " batch=" << batch;
      EXPECT_TRUE(actual.image == expected.image)
          << batched.Name() << " batch=" << batch << ": snapshot bytes differ";
    }
    return expected;
  }
};

TYPED_TEST_SUITE(PrefixFilterInsertBatchParity, SpareTypes);

TYPED_TEST(PrefixFilterInsertBatchParity, LoadPastBinOverflow) {
  constexpr uint64_t kKeys = 20000;
  const auto build = TestFixture::ExpectBatchBuildsMatchScalar(
      kKeys, PrefixFilterOptions{}, RandomKeys(kKeys, 221));
  EXPECT_GT(build.stats.spare_inserts, 0u);
  EXPECT_GT(build.stats.evictions, 0u);
  EXPECT_EQ(build.failures, 0u);
}

TYPED_TEST(PrefixFilterInsertBatchParity, OverfillUntilTheSpareRejects) {
  constexpr uint64_t kCapacity = 2000;
  const auto build = TestFixture::ExpectBatchBuildsMatchScalar(
      kCapacity, PrefixFilterOptions{}, RandomKeys(4 * kCapacity, 222));
  // A blocked Bloom spare cannot fail (spare.h): there the equal count is 0.
  if (!std::is_same_v<TypeParam, SpareBbfTraits>) {
    EXPECT_GT(build.failures, 0u) << "overfill did not exercise failures";
  }
}

TYPED_TEST(PrefixFilterInsertBatchParity, AvoidSpareDuplicatesWithRepeats) {
  // Every third insert repeats the key two places back, inside one prefetch
  // window: the repeat must see the first copy already applied.
  constexpr uint64_t kCapacity = 20000;
  const auto distinct = RandomKeys(kCapacity, 223);
  std::vector<uint64_t> stream;
  for (size_t i = 0; stream.size() < kCapacity; ++i) {
    stream.push_back(distinct[i]);
    if (i % 3 == 2) stream.push_back(distinct[i - 2]);
  }
  PrefixFilterOptions options;
  options.avoid_spare_duplicates = true;
  const auto build =
      TestFixture::ExpectBatchBuildsMatchScalar(kCapacity, options, stream);
  EXPECT_EQ(build.failures, 0u);

  // The stream forwarded duplicate fingerprints, so the skip ran: without
  // it the spare ends up different.
  PrefixFilter<TypeParam> keep_duplicates(kCapacity);
  for (uint64_t k : stream) keep_duplicates.Insert(k);
  PrefixFilter<TypeParam> skip_duplicates(kCapacity, options);
  skip_duplicates.InsertBatch(stream.data(), stream.size());
  std::vector<uint8_t> kept, skipped;
  keep_duplicates.spare().SerializeTo(&kept);
  skip_duplicates.spare().SerializeTo(&skipped);
  EXPECT_FALSE(kept == skipped);
}

// --- Devirtualized AnyFilter batch path ------------------------------------
//
// FilterAdapter::ContainsBatch dispatches once per batch and then runs a
// concrete loop (the filter's own ContainsBatch when it has one, inlined
// scalar Contains otherwise).  These tests pin the observable contract the
// optimization must preserve: batch answers identical to per-key virtual
// Contains() for every key, on every routing layer.

// Builds a filter via the factory, inserts `n` keys, and checks batch ==
// per-key parity on a mixed positive/negative stream for several batch
// sizes, below and above both the Bloom backends' 16-key prefetch chunk and
// the prefix filter's prefetch distance.
void CheckAnyFilterBatchParity(const std::string& name, uint64_t n,
                               uint64_t seed) {
  auto filter = MakeFilter(name, n, seed);
  ASSERT_NE(filter, nullptr) << name;
  const auto keys = RandomKeys(n, seed + 1);
  for (uint64_t k : keys) filter->Insert(k);

  std::vector<uint64_t> stream = RandomKeys(n, seed + 2);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];

  std::vector<bool> scalar(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    scalar[i] = filter->Contains(stream[i]);
  }
  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, stream.size()}) {
    std::vector<uint8_t> out(stream.size(), 0xaa);
    for (size_t base = 0; base < stream.size(); base += batch) {
      const size_t count = std::min(batch, stream.size() - base);
      filter->ContainsBatch(stream.data() + base, count, out.data() + base);
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(static_cast<bool>(out[i]), scalar[i])
          << name << " batch=" << batch << " i=" << i;
    }
  }
}

TEST(AnyFilterBatch, ConcreteBatchBackendsMatchScalar) {
  // Backends with their own ContainsBatch: the adapter forwards to it.
  for (const char* name : {"FMB32", "FMB64", "BBF-Flex", "PF[TC]"}) {
    CheckAnyFilterBatchParity(name, 20000, 301);
  }
}

TEST(AnyFilterBatch, ScalarFallbackBackendsMatchScalar) {
  // Backends with no ContainsBatch of their own: the adapter's concrete
  // scalar loop (not per-key virtual dispatch) must still agree.
  for (const char* name : {"BF-12", "CF-8", "TC"}) {
    CheckAnyFilterBatchParity(name, 20000, 307);
  }
}

static_assert(HasInsertBatch<PrefixFilter<SpareTcTraits>>::value,
              "the adapter must route PF inserts to InsertBatch");
static_assert(!HasInsertBatch<TwoChoicer>::value,
              "filters without InsertBatch keep the scalar loop");

TEST(AnyFilterBatch, PrefixFilterInsertBatchMatchesScalarLoop) {
  // The adapter routes to PrefixFilter::InsertBatch: the batched build's
  // snapshot must equal a per-key virtual Insert() build's.
  for (const char* name : {"PF[TC]", "PF[BBF-Flex]", "PF[CF12-Flex]"}) {
    const uint64_t n = 20000;
    auto batched = MakeFilter(name, n, 403);
    auto scalar = MakeFilter(name, n, 403);
    ASSERT_NE(batched, nullptr) << name;
    const auto keys = RandomKeys(n, 404);
    uint64_t scalar_failures = 0;
    for (uint64_t k : keys) scalar_failures += !scalar->Insert(k);
    EXPECT_EQ(batched->InsertBatch(keys.data(), keys.size()), scalar_failures)
        << name;
    std::vector<uint8_t> batched_image, scalar_image;
    ASSERT_TRUE(batched->SerializeTo(&batched_image));
    ASSERT_TRUE(scalar->SerializeTo(&scalar_image));
    EXPECT_TRUE(batched_image == scalar_image) << name;
  }
}

TEST(AnyFilterBatch, InsertBatchCountsFailuresLikeScalarLoop) {
  // Overfill a rigid cuckoo filter: InsertBatch's failure count must equal
  // what a scalar Insert loop over the same keys would have reported.
  const uint64_t n = 4096;
  auto batched = MakeFilter("CF-8", n, 401);
  auto scalar = MakeFilter("CF-8", n, 401);
  ASSERT_NE(batched, nullptr);
  ASSERT_NE(scalar, nullptr);
  const auto keys = RandomKeys(2 * n, 402);

  uint64_t scalar_failures = 0;
  for (uint64_t k : keys) scalar_failures += !scalar->Insert(k);
  const uint64_t batch_failures = batched->InsertBatch(keys.data(), keys.size());
  EXPECT_EQ(batch_failures, scalar_failures);
  EXPECT_GT(batch_failures, 0u) << "overfill did not exercise failures";
  for (uint64_t k : keys) {
    EXPECT_EQ(batched->Contains(k), scalar->Contains(k));
  }
}

// ShardedFilter group-probes per shard and then scatters answers back to
// submission order; a single-shard instance exercises the degenerate
// route-everything-to-one-group path.
void CheckShardedBatchParity(uint32_t shards) {
  const uint64_t n = 50000;
  auto filter = ShardedFilter::Make(n, ShardedFilterOptions{shards, 501});
  ASSERT_NE(filter, nullptr);

  const auto keys = RandomKeys(n, 502);
  EXPECT_EQ(filter->InsertBatch(keys.data(), keys.size()), 0u);

  std::vector<uint64_t> stream = RandomKeys(30000, 503);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];
  std::vector<uint8_t> out(stream.size(), 0xbb);
  filter->ContainsBatch(stream.data(), stream.size(), out.data());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(static_cast<bool>(out[i]), filter->Contains(stream[i]))
        << "shards=" << shards << " i=" << i;
  }
}

TEST(AnyFilterBatch, ShardedSingleShardMatchesScalar) {
  CheckShardedBatchParity(1);
}

TEST(AnyFilterBatch, ShardedMultiShardMatchesScalar) {
  CheckShardedBatchParity(8);
}

}  // namespace
}  // namespace prefixfilter
