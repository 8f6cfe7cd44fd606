// Parameterized occupancy sweeps for PD512 (mirrors pd256_sweep_test for
// the TwoChoicer's 64-byte mini-filter, including the two-word header).
#include <cstring>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "src/pd/pd512.h"
#include "src/util/random.h"

namespace prefixfilter {
namespace {

PD512 MakeEmptyPd() {
  PD512 pd;
  std::memset(&pd, 0, sizeof(pd));
  return pd;
}

using SweepParam = std::tuple<int, uint64_t>;  // (occupancy, seed)

class Pd512OccupancySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Pd512OccupancySweep, ContractHoldsAtEveryOccupancy) {
  const auto [occupancy, seed] = GetParam();
  Xoshiro256 rng(seed);
  PD512 pd = MakeEmptyPd();
  std::multiset<std::pair<int, int>> model;

  for (int i = 0; i < occupancy; ++i) {
    const int q = static_cast<int>(rng.Below(PD512::kNumLists));
    const uint8_t r = static_cast<uint8_t>(rng.Next());
    ASSERT_TRUE(pd.Insert(q, r));
    model.insert({q, r});
  }
  ASSERT_EQ(pd.Size(), occupancy);
  ASSERT_EQ(pd.Full(), occupancy == PD512::kCapacity);

  for (auto [q, r] : model) {
    ASSERT_TRUE(pd.Find(q, static_cast<uint8_t>(r)));
  }
  // Negative scan over a slice of the (q, r) space.
  for (int q = 0; q < PD512::kNumLists; q += 3) {
    for (int r = 0; r < 256; r += 11) {
      ASSERT_EQ(pd.Find(q, static_cast<uint8_t>(r)), model.count({q, r}) > 0)
          << "q=" << q << " r=" << r;
    }
  }
  int total = 0;
  for (int q = 0; q < PD512::kNumLists; ++q) total += pd.OccupancyOf(q);
  ASSERT_EQ(total, occupancy);
  std::multiset<std::pair<int, int>> decoded;
  for (auto [q, r] : pd.Decode()) decoded.insert({q, r});
  ASSERT_EQ(decoded, model);
}

INSTANTIATE_TEST_SUITE_P(
    OccupancyBySeed, Pd512OccupancySweep,
    ::testing::Combine(::testing::Values(0, 1, 7, 24, 40, 47, 48),
                       ::testing::Values(19, 29)),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      // A stream, not an operator+ chain: GCC 12 at -O2 reports a
      // -Wrestrict false positive inside the inlined string concatenation.
      std::ostringstream name;
      name << "t" << std::get<0>(param_info.param) << "_seed"
           << std::get<1>(param_info.param);
      return name.str();
    });

class Pd512BoundaryLists : public ::testing::TestWithParam<int> {};

TEST_P(Pd512BoundaryLists, FillSingleList) {
  // Lists whose header region straddles or neighbors the 64-bit word
  // boundary are the risky ones; sweep a representative set.
  const int q = GetParam();
  PD512 pd = MakeEmptyPd();
  for (int i = 0; i < PD512::kCapacity; ++i) {
    ASSERT_TRUE(pd.Insert(q, static_cast<uint8_t>(i * 5)));
  }
  EXPECT_TRUE(pd.Full());
  EXPECT_EQ(pd.OccupancyOf(q), PD512::kCapacity);
  for (int i = 0; i < PD512::kCapacity; ++i) {
    EXPECT_TRUE(pd.Find(q, static_cast<uint8_t>(i * 5)));
  }
  EXPECT_FALSE(pd.Find(q, 3));
}

INSTANTIATE_TEST_SUITE_P(Boundary, Pd512BoundaryLists,
                         ::testing::Values(0, 1, 15, 16, 17, 62, 63, 64, 65,
                                           78, 79));

}  // namespace
}  // namespace prefixfilter
