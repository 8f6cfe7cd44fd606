// Unit tests for PD512, the 64-byte PD(80, 8, 48) used by TwoChoicer.
#include "src/pd/pd512.h"

#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace prefixfilter {
namespace {

PD512 MakeEmptyPd() {
  PD512 pd;
  std::memset(&pd, 0, sizeof(pd));
  return pd;
}

TEST(PD512, ZeroMemoryIsEmpty) {
  PD512 pd = MakeEmptyPd();
  EXPECT_EQ(pd.Size(), 0);
  EXPECT_FALSE(pd.Full());
  for (int q = 0; q < PD512::kNumLists; q += 7) {
    EXPECT_FALSE(pd.Find(q, 0));
    EXPECT_EQ(pd.OccupancyOf(q), 0);
  }
}

TEST(PD512, InsertThenFind) {
  PD512 pd = MakeEmptyPd();
  EXPECT_TRUE(pd.Insert(79, 255));
  EXPECT_TRUE(pd.Insert(0, 1));
  EXPECT_TRUE(pd.Find(79, 255));
  EXPECT_TRUE(pd.Find(0, 1));
  EXPECT_FALSE(pd.Find(78, 255));
  EXPECT_FALSE(pd.Find(0, 2));
  EXPECT_EQ(pd.Size(), 2);
}

TEST(PD512, FillToCapacityThenReject) {
  PD512 pd = MakeEmptyPd();
  Xoshiro256 rng(41);
  for (int i = 0; i < PD512::kCapacity; ++i) {
    ASSERT_TRUE(pd.Insert(static_cast<int>(rng.Below(80)),
                          static_cast<uint8_t>(rng.Next())));
  }
  EXPECT_TRUE(pd.Full());
  EXPECT_FALSE(pd.Insert(40, 7));
  EXPECT_EQ(pd.Size(), PD512::kCapacity);
}

TEST(PD512, HeaderSpansTwoWords) {
  // Fill lists near the 64-bit boundary of the header: with elements in
  // lists 0..20, the encoding for higher lists crosses bit 64.
  PD512 pd = MakeEmptyPd();
  for (int q = 0; q < 21; ++q) {
    ASSERT_TRUE(pd.Insert(q, static_cast<uint8_t>(q)));
    ASSERT_TRUE(pd.Insert(q, static_cast<uint8_t>(q + 100)));
  }
  EXPECT_EQ(pd.Size(), 42);
  for (int q = 0; q < 21; ++q) {
    EXPECT_TRUE(pd.Find(q, static_cast<uint8_t>(q)));
    EXPECT_TRUE(pd.Find(q, static_cast<uint8_t>(q + 100)));
    EXPECT_FALSE(pd.Find(q, 250));
  }
  // Lists beyond the boundary still answer correctly.
  for (int q = 21; q < 80; q += 5) {
    EXPECT_FALSE(pd.Find(q, static_cast<uint8_t>(q)));
  }
}

TEST(PD512, LastListBoundary) {
  PD512 pd = MakeEmptyPd();
  for (int i = 0; i < PD512::kCapacity; ++i) {
    ASSERT_TRUE(pd.Insert(79, static_cast<uint8_t>(i)));
  }
  EXPECT_TRUE(pd.Full());
  EXPECT_EQ(pd.OccupancyOf(79), 48);
  for (int i = 0; i < PD512::kCapacity; ++i) {
    EXPECT_TRUE(pd.Find(79, static_cast<uint8_t>(i)));
  }
  EXPECT_FALSE(pd.Find(79, 200));
  EXPECT_FALSE(pd.Find(78, 0));
}

TEST(PD512, MultiMatchFallback) {
  PD512 pd = MakeEmptyPd();
  for (int q = 0; q < 48; ++q) ASSERT_TRUE(pd.Insert(q % 80, 111));
  for (int q = 0; q < 48; ++q) EXPECT_TRUE(pd.Find(q, 111));
  for (int q = 48; q < 80; ++q) EXPECT_FALSE(pd.Find(q, 111));
  EXPECT_FALSE(pd.Find(0, 112));
}

TEST(PD512, DecodeGroupsByQuotient) {
  PD512 pd = MakeEmptyPd();
  Xoshiro256 rng(42);
  std::multiset<std::pair<int, int>> model;
  for (int i = 0; i < PD512::kCapacity; ++i) {
    const int q = static_cast<int>(rng.Below(80));
    const uint8_t r = static_cast<uint8_t>(rng.Next());
    ASSERT_TRUE(pd.Insert(q, r));
    model.insert({q, r});
  }
  const auto decoded = pd.Decode();
  ASSERT_EQ(decoded.size(), model.size());
  std::multiset<std::pair<int, int>> got;
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(decoded[i - 1].first, decoded[i].first);
    }
    got.insert({decoded[i].first, decoded[i].second});
  }
  EXPECT_EQ(got, model);
}

// Every (q, r) on PDs built to hit the edges of the list-range read: list 0
// (the injected low bit), list 79, a list whose elements straddle header
// bits 63 and 64, a full PD, random fills, and random fills clustered at
// either end of the header, where the 64-bit window from bit q and the
// count of ones below q meet their extremes.  Find (the branch-free body on
// BMI2 builds) and the branching body must both agree with Decode().
TEST(PD512, FindExhaustiveOnStructuredPds) {
  const uint8_t kAlphabet[] = {0, 1, 7, 128, 255};
  const auto r_at = [&](int i) { return kAlphabet[i % 5]; };
  std::vector<std::pair<std::string, PD512>> cases;
  cases.emplace_back("empty", MakeEmptyPd());
  {
    PD512 pd = MakeEmptyPd();
    for (int i = 0; i < PD512::kCapacity; ++i) pd.Insert(0, r_at(i));
    cases.emplace_back("48 in list 0", pd);
  }
  {
    PD512 pd = MakeEmptyPd();
    for (int i = 0; i < PD512::kCapacity; ++i) pd.Insert(79, r_at(i));
    cases.emplace_back("48 in list 79", pd);
  }
  // k elements in list 41 sit at header bits [41, 41 + k): with k >= 24 they
  // cover bits 63 and 64, and list 41's terminator moves across the words.
  for (const int k : {22, 23, 24, 25, 30}) {
    PD512 pd = MakeEmptyPd();
    for (int i = 0; i < k; ++i) pd.Insert(41, r_at(i));
    pd.Insert(40, r_at(3));
    pd.Insert(42, r_at(1));
    pd.Insert(79, r_at(2));
    std::ostringstream name;
    name << k << " in list 41 across bits 63/64";
    cases.emplace_back(name.str(), pd);
  }
  {
    PD512 pd = MakeEmptyPd();  // one per list up to capacity, then full
    for (int i = 0; i < PD512::kCapacity; ++i) pd.Insert(i * 79 / 47, r_at(i));
    cases.emplace_back("full, spread", pd);
  }
  Xoshiro256 rng(43);
  for (const int fill : {12, 36, PD512::kCapacity}) {
    PD512 pd = MakeEmptyPd();
    for (int i = 0; i < fill; ++i) {
      pd.Insert(static_cast<int>(rng.Below(PD512::kNumLists)), r_at(i));
    }
    std::ostringstream name;
    name << "random fill " << fill;
    cases.emplace_back(name.str(), pd);
  }
  // Random lists clustered at q 0-3 or 76-79, at every fill: the low
  // cluster puts list q's start and end near header bit 0 and lets lists
  // 4-79 start after up to 48 elements; the high cluster makes the lists
  // read from the top of the header, with every list below them empty.
  for (const int base : {0, 76}) {
    for (int fill = 1; fill <= PD512::kCapacity; ++fill) {
      PD512 pd = MakeEmptyPd();
      for (int i = 0; i < fill; ++i) {
        pd.Insert(base + static_cast<int>(rng.Below(4)), r_at(i));
      }
      std::ostringstream name;
      name << "fill " << fill << " in lists " << base << "-" << base + 3;
      cases.emplace_back(name.str(), pd);
    }
  }
  for (const auto& [name, pd] : cases) {
    std::set<std::pair<int, int>> present;
    for (const auto& [q, r] : pd.Decode()) present.insert({q, r});
    for (int q = 0; q < PD512::kNumLists; ++q) {
      for (int r = 0; r < 256; ++r) {
        const bool expected = present.count({q, r}) != 0;
        ASSERT_EQ(pd.Find(q, static_cast<uint8_t>(r)), expected)
            << name << ": Find(" << q << ", " << r << ")";
        ASSERT_EQ(pd.FindBranching(q, static_cast<uint8_t>(r)), expected)
            << name << ": FindBranching(" << q << ", " << r << ")";
      }
    }
  }
}

TEST(PD512, SizeOfStructIs64Bytes) {
  EXPECT_EQ(sizeof(PD512), 64u);
  EXPECT_EQ(alignof(PD512), 64u);
}

}  // namespace
}  // namespace prefixfilter
