// Tests for the spare adapters (§4.2, §7.1.1 sizing rules).
#include "src/core/spare.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "src/analysis/binomial.h"
#include "src/analysis/bounds.h"
#include "src/core/prefix_filter.h"
#include "src/util/random.h"

namespace prefixfilter {
namespace {

TEST(Spare, BbfSizedAtTwiceNPrime) {
  // 2n' keys at 10.67 bits/key.
  const uint64_t n_prime = 100000;
  auto bbf = SpareBbfTraits::Create(n_prime, 1);
  const double bits = 8.0 * static_cast<double>(bbf.SpaceBytes());
  EXPECT_NEAR(bits / (2.0 * n_prime), 10.67, 0.1);
}

TEST(Spare, Cf12SizedWithFailureHeadroom) {
  const uint64_t n_prime = 100000;
  auto cf = SpareCf12Traits::Create(n_prime, 1);
  EXPECT_GE(cf.capacity(), static_cast<uint64_t>(n_prime / 0.94));
}

TEST(Spare, TcSizedWithFailureHeadroom) {
  const uint64_t n_prime = 100000;
  auto tc = SpareTcTraits::Create(n_prime, 1);
  EXPECT_GE(tc.capacity(), static_cast<uint64_t>(n_prime / 0.935));
}

TEST(Spare, EachSpareAbsorbsNPrimeKeys) {
  const uint64_t n_prime = 50000;
  const auto keys = RandomKeys(n_prime, 2);
  {
    auto f = SpareBbfTraits::Create(n_prime, 3);
    for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
    for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
  }
  {
    auto f = SpareCf12Traits::Create(n_prime, 3);
    for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
    for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
  }
  {
    auto f = SpareTcTraits::Create(n_prime, 3);
    for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
    for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
  }
}

// The prefix filter's batch path tests a spare-bound key through the Probe
// it located once.  For TC that test is the branch-free PD512::Find on both
// bins, while Contains(key) is the paper's branching one with a
// short-circuit; the two must answer alike on present and absent keys.
TEST(Spare, LocatedProbeMatchesContains) {
  const uint64_t n_prime = 20000;
  auto f = SpareTcTraits::Create(n_prime, 13);
  const auto keys = RandomKeys(n_prime, 14);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  const auto absent = RandomKeys(200000, 15);
  uint64_t absent_hits = 0;
  for (const auto* set : {&keys, &absent}) {
    for (uint64_t k : *set) {
      const auto probe = f.Locate(k);
      f.Prefetch(probe);
      const bool hit = f.Contains(probe);
      ASSERT_EQ(hit, f.Contains(k)) << "key " << k;
      if (set == &absent) absent_hits += hit;
    }
  }
  // Some false positives among the absent keys, so both answers are covered.
  EXPECT_GT(absent_hits, 0u);
  // BBF and CF12 locate a key as itself: their Contains(Probe) is
  // Contains(key), so there is no second body to compare.
  static_assert(std::is_same_v<SpareBbfTraits::FilterType::Probe, uint64_t>);
  static_assert(std::is_same_v<SpareCf12Traits::FilterType::Probe, uint64_t>);
}

// §7.2's observation: PF space and FPR are nearly identical regardless of
// the spare, because the spare holds only a ~1/sqrt(2*pi*k) fraction.
TEST(Spare, SpareChoiceBarelyAffectsTotalSpace) {
  const uint64_t n = 1 << 20;
  PrefixFilter<SpareBbfTraits> a(n);
  PrefixFilter<SpareCf12Traits> b(n);
  PrefixFilter<SpareTcTraits> c(n);
  const double bits_a = a.BitsPerKey();
  const double bits_b = b.BitsPerKey();
  const double bits_c = c.BitsPerKey();
  EXPECT_NEAR(bits_a, bits_b, 0.7);
  EXPECT_NEAR(bits_b, bits_c, 0.3);
  // Paper Table 3 ordering: PF[BBF-Flex] > PF[CF12-Flex] > PF[TC].
  EXPECT_GT(bits_a, bits_b);
  EXPECT_GT(bits_b, bits_c);
}

TEST(Spare, SpareCapacityDerivedFromExactExpectation) {
  const uint64_t n = 1 << 20;
  PrefixFilter<SpareTcTraits> pf(n);
  const double expected =
      analysis::ExpectedSpareSize(n, pf.num_bins(), pf.kBinCapacity);
  EXPECT_GE(pf.spare_capacity(), static_cast<uint64_t>(1.1 * expected));
  EXPECT_LE(pf.spare_capacity(), static_cast<uint64_t>(1.1 * expected) + 1);
}

}  // namespace
}  // namespace prefixfilter
