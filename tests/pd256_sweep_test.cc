// Parameterized sweeps over PD256 occupancy and structure: every (occupancy,
// seed) combination must satisfy the full dictionary contract, and edge
// geometries (all-one-list, max remainders, dense duplicates) must decode
// exactly.
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/pd/pd256.h"
#include "src/util/random.h"

namespace prefixfilter {
namespace {

PD256 MakeEmptyPd() {
  PD256 pd;
  std::memset(&pd, 0, sizeof(pd));
  return pd;
}

using SweepParam = std::tuple<int, uint64_t>;  // (occupancy, seed)

class Pd256OccupancySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Pd256OccupancySweep, ContractHoldsAtEveryOccupancy) {
  const auto [occupancy, seed] = GetParam();
  Xoshiro256 rng(seed);
  PD256 pd = MakeEmptyPd();
  std::multiset<std::pair<int, int>> model;

  for (int i = 0; i < occupancy; ++i) {
    const int q = static_cast<int>(rng.Below(PD256::kNumLists));
    const uint8_t r = static_cast<uint8_t>(rng.Next());
    ASSERT_TRUE(pd.Insert(q, r));
    model.insert({q, r});
  }
  ASSERT_EQ(pd.Size(), occupancy);
  ASSERT_EQ(pd.Full(), occupancy == PD256::kCapacity);

  // Every stored element is found.
  for (auto [q, r] : model) {
    ASSERT_TRUE(pd.Find(q, static_cast<uint8_t>(r)));
  }
  // Exhaustive negative scan over a remainder slice: nothing extra.
  for (int q = 0; q < PD256::kNumLists; ++q) {
    for (int r = 0; r < 256; r += 7) {
      ASSERT_EQ(pd.Find(q, static_cast<uint8_t>(r)),
                model.count({q, r}) > 0)
          << "q=" << q << " r=" << r;
    }
  }
  // Occupancies sum to size and match the model.
  int total = 0;
  for (int q = 0; q < PD256::kNumLists; ++q) {
    const int occ = pd.OccupancyOf(q);
    int expected = 0;
    for (int r = 0; r < 256; ++r) {
      expected += static_cast<int>(model.count({q, r}));
    }
    ASSERT_EQ(occ, expected) << "q=" << q;
    total += occ;
  }
  ASSERT_EQ(total, occupancy);
  // Decode returns exactly the model.
  std::multiset<std::pair<int, int>> decoded;
  for (auto [q, r] : pd.Decode()) decoded.insert({q, r});
  ASSERT_EQ(decoded, model);
}

INSTANTIATE_TEST_SUITE_P(
    OccupancyBySeed, Pd256OccupancySweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 5, 12, 20, 24, 25),
                       ::testing::Values(11, 22, 33)),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      // A stream, not an operator+ chain: GCC 12 at -O2 reports a
      // -Wrestrict false positive inside the inlined string concatenation.
      std::ostringstream name;
      name << "t" << std::get<0>(param_info.param) << "_seed"
           << std::get<1>(param_info.param);
      return name.str();
    });

class Pd256SingleListSweep : public ::testing::TestWithParam<int> {};

TEST_P(Pd256SingleListSweep, EveryListCanHoldFullCapacity) {
  const int q = GetParam();
  PD256 pd = MakeEmptyPd();
  for (int i = 0; i < PD256::kCapacity; ++i) {
    ASSERT_TRUE(pd.Insert(q, static_cast<uint8_t>(255 - i)));
  }
  EXPECT_TRUE(pd.Full());
  EXPECT_EQ(pd.OccupancyOf(q), PD256::kCapacity);
  for (int i = 0; i < PD256::kCapacity; ++i) {
    EXPECT_TRUE(pd.Find(q, static_cast<uint8_t>(255 - i)));
  }
  // Neighboring lists stay empty.
  if (q > 0) {
    EXPECT_EQ(pd.OccupancyOf(q - 1), 0);
  }
  if (q < PD256::kNumLists - 1) {
    EXPECT_EQ(pd.OccupancyOf(q + 1), 0);
  }
  // Max-element machinery works when everything is in one list.
  pd.MarkOverflowed();
  EXPECT_EQ(pd.MaxFingerprint(), (q << 8) | 255);
  pd.ReplaceMax(q, 0);
  EXPECT_TRUE(pd.Find(q, 0));
  EXPECT_FALSE(pd.Find(q, 255));
  EXPECT_EQ(pd.MaxFingerprint(), (q << 8) | 254);
}

INSTANTIATE_TEST_SUITE_P(AllLists, Pd256SingleListSweep,
                         ::testing::Range(0, PD256::kNumLists));

TEST(Pd256Sweep, EvictionChainDrainsEveryList) {
  // Fill with the LARGEST fingerprints, then push the 25 smallest through:
  // every resident must be evicted exactly once, ending with fingerprints
  // (0,0)..(0,24).
  PD256 pd = MakeEmptyPd();
  for (int i = 0; i < PD256::kCapacity; ++i) {
    ASSERT_TRUE(pd.Insert(24, static_cast<uint8_t>(231 + i)));
  }
  pd.MarkOverflowed();
  for (int i = 0; i < PD256::kCapacity; ++i) {
    pd.ReplaceMax(0, static_cast<uint8_t>(i));
  }
  for (int i = 0; i < PD256::kCapacity; ++i) {
    EXPECT_TRUE(pd.Find(0, static_cast<uint8_t>(i))) << i;
  }
  EXPECT_EQ(pd.OccupancyOf(0), PD256::kCapacity);
  EXPECT_EQ(pd.OccupancyOf(24), 0);
  EXPECT_EQ(pd.MaxFingerprint(), 24);
}

TEST(Pd256Sweep, OverflowBitSurvivesReplacements) {
  PD256 pd = MakeEmptyPd();
  for (int i = 0; i < PD256::kCapacity; ++i) {
    ASSERT_TRUE(pd.Insert(12, static_cast<uint8_t>(100 + i)));
  }
  pd.MarkOverflowed();
  for (int i = 0; i < 50; ++i) {
    // i % 20 keeps every replacement <= the current maximum.
    pd.ReplaceMax(3, static_cast<uint8_t>(i % 20));
    ASSERT_TRUE(pd.Overflowed());
    ASSERT_TRUE(pd.Full());
  }
}

}  // namespace
}  // namespace prefixfilter
