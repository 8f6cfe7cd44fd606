// Core prefix filter tests (paper §4): correctness, false positive rate,
// spare traffic, and Theorem 2's guarantees — for all three spare types.
#include "src/core/prefix_filter.h"

#include <cmath>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/binomial.h"
#include "src/core/spare.h"
#include "src/util/random.h"

namespace prefixfilter {
namespace {

template <typename SpareTraits>
class PrefixFilterTypedTest : public ::testing::Test {};

using SpareTypes = ::testing::Types<SpareBbfTraits, SpareCf12Traits, SpareTcTraits>;
TYPED_TEST_SUITE(PrefixFilterTypedTest, SpareTypes);

TYPED_TEST(PrefixFilterTypedTest, NoFalseNegativesAtFullLoad) {
  const uint64_t n = 200000;
  const auto keys = RandomKeys(n, 111);
  PrefixFilter<TypeParam> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(pf.Contains(k));
}

TYPED_TEST(PrefixFilterTypedTest, EmptyContainsAlmostNothing) {
  PrefixFilter<TypeParam> pf(100000);
  const auto probes = RandomKeys(100000, 112);
  uint64_t hits = 0;
  for (uint64_t k : probes) hits += pf.Contains(k);
  EXPECT_EQ(hits, 0u);
}

TYPED_TEST(PrefixFilterTypedTest, FprNearPaperTable3) {
  // Paper Table 3: PF error ~0.37-0.39% for every spare choice.
  const uint64_t n = 1 << 19;
  const auto keys = RandomKeys(n, 113);
  PrefixFilter<TypeParam> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  const auto probes = RandomKeys(1 << 21, 114);
  uint64_t fp = 0;
  for (uint64_t k : probes) fp += pf.Contains(k);
  const double rate = static_cast<double>(fp) / probes.size();
  EXPECT_GT(rate, 0.002);
  EXPECT_LT(rate, 0.006);
  // And within the analytic bound of Corollary 31 (spare fpr <= 1).
  EXPECT_LT(rate, pf.FprBound(0.05));
}

TYPED_TEST(PrefixFilterTypedTest, SpareInsertFractionMatchesTheorem5) {
  // Expected forwarded fraction at alpha=0.95 is ~6%; Theorem 2(3) bounds it
  // by 1.1/sqrt(2*pi*k) ~ 8.8% w.h.p.
  const uint64_t n = 1 << 20;
  const auto keys = RandomKeys(n, 115);
  PrefixFilter<TypeParam> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  const double frac = pf.stats().SpareInsertFraction();
  const double expected =
      analysis::ExpectedSpareFraction(n, pf.num_bins(), pf.kBinCapacity);
  EXPECT_NEAR(frac, expected, 0.2 * expected);
  EXPECT_LT(frac, 1.1 / std::sqrt(2 * M_PI * 25));
}

TYPED_TEST(PrefixFilterTypedTest, NegativeQuerySpareFractionBounded) {
  // Theorem 17: negative queries reach the spare w.p. <= 1/sqrt(2*pi*k)
  // (~7.98%); the paper's prototype reports ~8% at alpha=1 and less at 0.95.
  const uint64_t n = 1 << 20;
  const auto keys = RandomKeys(n, 116);
  PrefixFilter<TypeParam> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  pf.ResetStats();
  const auto probes = RandomKeys(1 << 20, 117);
  for (uint64_t k : probes) pf.Contains(k);
  const double frac = pf.stats().SpareQueryFraction();
  EXPECT_GT(frac, 0.01);
  EXPECT_LT(frac, 1.0 / std::sqrt(2 * M_PI * 25));
}

TYPED_TEST(PrefixFilterTypedTest, PositiveQuerySpareFractionBounded) {
  // Theorem 25: positive queries also reach the spare w.p. <= 1/sqrt(2*pi*k).
  const uint64_t n = 1 << 20;
  const auto keys = RandomKeys(n, 118);
  PrefixFilter<TypeParam> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  pf.ResetStats();
  for (uint64_t k : keys) ASSERT_TRUE(pf.Contains(k));
  EXPECT_LT(pf.stats().SpareQueryFraction(), 1.0 / std::sqrt(2 * M_PI * 25));
}

TYPED_TEST(PrefixFilterTypedTest, ArbitrarySetSizes) {
  // "supports sets of arbitrary size (i.e., not restricted to powers of
  // two)" — a headline contribution.
  for (uint64_t n : {997u, 30011u, 123457u}) {
    const auto keys = RandomKeys(n, 119 + n);
    PrefixFilter<TypeParam> pf(n);
    for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
    for (uint64_t k : keys) ASSERT_TRUE(pf.Contains(k));
  }
}

TYPED_TEST(PrefixFilterTypedTest, SpaceWithinPaperBallpark) {
  // Table 3: PF total space 11.5-12.2 bits/key depending on the spare.
  const uint64_t n = 1 << 20;
  PrefixFilter<TypeParam> pf(n);
  EXPECT_GT(pf.BitsPerKey(), 10.5);
  EXPECT_LT(pf.BitsPerKey(), 12.6);
}

TYPED_TEST(PrefixFilterTypedTest, InsertionsNeverFailAtRatedCapacity) {
  // Theorem 2(2): failure probability at most 200*pi*k/(0.99 n); for n=2^20
  // that is ~1.5%, and the spare sizing slack makes observed failures rarer.
  // A single build must succeed.
  const uint64_t n = 1 << 20;
  const auto keys = RandomKeys(n, 120);
  PrefixFilter<TypeParam> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  EXPECT_EQ(pf.size(), n);
}

TYPED_TEST(PrefixFilterTypedTest, FailedInsertsNeverEvictAcknowledgedKeys) {
  // Overfill to twice the rated capacity, so the spare runs out and inserts
  // start to fail (BBF-Flex never rejects, so its inserts all succeed).  A
  // failed insert must leave the filter as it was: every key whose Insert
  // returned true, before the first failure or after it, still answers 1.
  const uint64_t n = 1 << 16;
  const auto keys = RandomKeys(2 * n, 124);
  PrefixFilter<TypeParam> pf(n);
  size_t first_failure = keys.size();
  std::vector<uint64_t> acked;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (pf.Insert(keys[i])) {
      acked.push_back(keys[i]);
    } else if (first_failure == keys.size()) {
      first_failure = i;
    }
  }
  if (!std::is_same_v<TypeParam, SpareBbfTraits>) {
    ASSERT_LT(first_failure, keys.size()) << "overfill never failed";
  }
  uint64_t lost_before_failure = 0;
  for (size_t i = 0; i < first_failure; ++i) {
    lost_before_failure += !pf.Contains(keys[i]);
  }
  EXPECT_EQ(lost_before_failure, 0u);
  uint64_t lost = 0;
  for (uint64_t k : acked) lost += !pf.Contains(k);
  EXPECT_EQ(lost, 0u) << "of " << acked.size() << " acknowledged keys";
}

TEST(PrefixFilter, DuplicateAvoidanceOptionWorks) {
  // §4.4: optionally skip forwarding fingerprints already in the spare.
  const uint64_t n = 1 << 18;
  const auto keys = RandomKeys(n, 121);
  PrefixFilterOptions options;
  options.avoid_spare_duplicates = true;
  PrefixFilter<SpareCf12Traits> pf(n, options);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(pf.Contains(k));
}

TEST(PrefixFilter, ModerateFingerprintDuplicationTolerated) {
  // §4.4 fingerprint-collision discussion: duplicate fingerprints flood one
  // spare location; a cuckoo spare absorbs 2b+1 copies, which comfortably
  // covers realistic collision counts from *distinct* keys.
  PrefixFilter<SpareCf12Traits> pf(100000);
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(pf.Insert(777));
  EXPECT_TRUE(pf.Contains(777));
}

TEST(PrefixFilter, DuplicateAvoidanceHandlesUnboundedDuplication) {
  // With the §4.4 duplicate check enabled, even adversarial duplication of
  // one fingerprint cannot overflow the spare.
  PrefixFilterOptions options;
  options.avoid_spare_duplicates = true;
  PrefixFilter<SpareCf12Traits> pf(100000, options);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(pf.Insert(777));
  EXPECT_TRUE(pf.Contains(777));
}

TEST(PrefixFilter, Alpha100StillWorks) {
  PrefixFilterOptions options;
  options.bin_load_factor = 1.0;
  const uint64_t n = 1 << 19;
  const auto keys = RandomKeys(n, 122);
  PrefixFilter<SpareTcTraits> pf(n, options);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(pf.Contains(k));
  // At alpha=1 the forwarded fraction rises to ~8% (paper §4.2.2).
  EXPECT_NEAR(pf.stats().SpareInsertFraction(), 0.08, 0.015);
}

TEST(PrefixFilter, StatsAccounting) {
  const uint64_t n = 1 << 16;
  const auto keys = RandomKeys(n, 123);
  PrefixFilter<SpareTcTraits> pf(n);
  for (uint64_t k : keys) pf.Insert(k);
  EXPECT_EQ(pf.stats().inserts, n);
  EXPECT_GT(pf.stats().spare_inserts, 0u);
  EXPECT_GT(pf.stats().evictions, 0u);
  EXPECT_LE(pf.stats().evictions, pf.stats().spare_inserts);
  pf.ResetStats();
  EXPECT_EQ(pf.stats().inserts, 0u);
}

TEST(PrefixFilter, NamesIncludeSpare) {
  EXPECT_EQ(PrefixFilter<SpareBbfTraits>(1000).Name(), "PF[BBF-Flex]");
  EXPECT_EQ(PrefixFilter<SpareCf12Traits>(1000).Name(), "PF[CF12-Flex]");
  EXPECT_EQ(PrefixFilter<SpareTcTraits>(1000).Name(), "PF[TC]");
}

}  // namespace
}  // namespace prefixfilter
