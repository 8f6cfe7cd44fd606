// Unit tests for PD256, the prefix filter's 32-byte pocket dictionary
// (paper §5), including the max-element extension of §5.2.3 and the query
// cutoff paths of §5.2.2.
#include "src/pd/pd256.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace prefixfilter {
namespace {

PD256 MakeEmptyPd() {
  PD256 pd;
  std::memset(&pd, 0, sizeof(pd));
  return pd;
}

TEST(PD256, ZeroMemoryIsEmpty) {
  PD256 pd = MakeEmptyPd();
  EXPECT_EQ(pd.Size(), 0);
  EXPECT_FALSE(pd.Full());
  EXPECT_FALSE(pd.Overflowed());
  for (int q = 0; q < PD256::kNumLists; ++q) {
    EXPECT_EQ(pd.OccupancyOf(q), 0);
    EXPECT_FALSE(pd.Find(q, 0));
    EXPECT_FALSE(pd.Find(q, 255));
  }
}

TEST(PD256, InsertThenFind) {
  PD256 pd = MakeEmptyPd();
  EXPECT_TRUE(pd.Insert(3, 77));
  EXPECT_TRUE(pd.Find(3, 77));
  EXPECT_FALSE(pd.Find(3, 78));
  EXPECT_FALSE(pd.Find(4, 77));  // same remainder, different list
  EXPECT_FALSE(pd.Find(2, 77));
  EXPECT_EQ(pd.Size(), 1);
  EXPECT_EQ(pd.OccupancyOf(3), 1);
}

TEST(PD256, PaperExampleEncoding) {
  // The paper's PD(8,4,7) example, scaled to our domain: insert
  // {(1,13),(2,15),(3,3),(5,0),(5,5),(5,15),(7,6)} and verify decode order.
  PD256 pd = MakeEmptyPd();
  const std::vector<std::pair<int, uint8_t>> elems = {
      {1, 13}, {2, 15}, {3, 3}, {5, 0}, {5, 5}, {5, 15}, {7, 6}};
  for (auto [q, r] : elems) ASSERT_TRUE(pd.Insert(q, r));
  EXPECT_EQ(pd.Size(), 7);
  EXPECT_EQ(pd.OccupancyOf(0), 0);
  EXPECT_EQ(pd.OccupancyOf(1), 1);
  EXPECT_EQ(pd.OccupancyOf(5), 3);
  EXPECT_EQ(pd.OccupancyOf(7), 1);
  for (auto [q, r] : elems) EXPECT_TRUE(pd.Find(q, r)) << q << "," << int(r);
  // Decode must group by quotient in non-decreasing order.
  const auto decoded = pd.Decode();
  ASSERT_EQ(decoded.size(), 7u);
  for (size_t i = 1; i < decoded.size(); ++i) {
    EXPECT_LE(decoded[i - 1].first, decoded[i].first);
  }
}

TEST(PD256, DuplicateElementsSupported) {
  // The PD stores a multiset (distinct keys can share a fingerprint).
  PD256 pd = MakeEmptyPd();
  EXPECT_TRUE(pd.Insert(5, 9));
  EXPECT_TRUE(pd.Insert(5, 9));
  EXPECT_EQ(pd.Size(), 2);
  EXPECT_EQ(pd.OccupancyOf(5), 2);
  EXPECT_TRUE(pd.Find(5, 9));
}

TEST(PD256, FillToCapacityThenReject) {
  PD256 pd = MakeEmptyPd();
  Xoshiro256 rng(31);
  for (int i = 0; i < PD256::kCapacity; ++i) {
    ASSERT_TRUE(pd.Insert(static_cast<int>(rng.Below(25)),
                          static_cast<uint8_t>(rng.Next())));
  }
  EXPECT_TRUE(pd.Full());
  EXPECT_FALSE(pd.Insert(0, 0));
  EXPECT_EQ(pd.Size(), PD256::kCapacity);
}

TEST(PD256, BoundaryQuotients) {
  PD256 pd = MakeEmptyPd();
  EXPECT_TRUE(pd.Insert(0, 0));
  EXPECT_TRUE(pd.Insert(0, 255));
  EXPECT_TRUE(pd.Insert(24, 0));
  EXPECT_TRUE(pd.Insert(24, 255));
  EXPECT_TRUE(pd.Find(0, 0));
  EXPECT_TRUE(pd.Find(0, 255));
  EXPECT_TRUE(pd.Find(24, 0));
  EXPECT_TRUE(pd.Find(24, 255));
  EXPECT_FALSE(pd.Find(12, 0));
  EXPECT_FALSE(pd.Find(12, 255));
}

TEST(PD256, AllElementsSameList) {
  PD256 pd = MakeEmptyPd();
  for (int i = 0; i < PD256::kCapacity; ++i) {
    ASSERT_TRUE(pd.Insert(7, static_cast<uint8_t>(i * 10)));
  }
  EXPECT_TRUE(pd.Full());
  EXPECT_EQ(pd.OccupancyOf(7), PD256::kCapacity);
  for (int i = 0; i < PD256::kCapacity; ++i) {
    EXPECT_TRUE(pd.Find(7, static_cast<uint8_t>(i * 10)));
  }
  EXPECT_FALSE(pd.Find(7, 5));
  EXPECT_FALSE(pd.Find(6, 0));
  EXPECT_FALSE(pd.Find(8, 0));
}

TEST(PD256, SameRemainderEveryList) {
  // Stresses the multi-match Select fallback: remainder 42 in all 25 lists.
  PD256 pd = MakeEmptyPd();
  for (int q = 0; q < PD256::kNumLists; ++q) ASSERT_TRUE(pd.Insert(q, 42));
  for (int q = 0; q < PD256::kNumLists; ++q) {
    EXPECT_TRUE(pd.Find(q, 42)) << "q=" << q;
    EXPECT_FALSE(pd.Find(q, 43)) << "q=" << q;
  }
}

TEST(PD256, QueryPathsReported) {
  PD256 pd = MakeEmptyPd();
  ASSERT_TRUE(pd.Insert(1, 10));
  ASSERT_TRUE(pd.Insert(2, 10));
  ASSERT_TRUE(pd.Insert(3, 30));

  PdQueryPath path;
  // No body byte equals 99: cutoff answers immediately.
  EXPECT_FALSE(pd.FindWithPath(5, 99, &path));
  EXPECT_EQ(path, PdQueryPath::kEmptyMask);
  // 30 appears once: single-candidate popcount path.
  EXPECT_TRUE(pd.FindWithPath(3, 30, &path));
  EXPECT_EQ(path, PdQueryPath::kSingleCandidate);
  EXPECT_FALSE(pd.FindWithPath(4, 30, &path));
  EXPECT_EQ(path, PdQueryPath::kSingleCandidate);
  // 10 appears twice: Select fallback.
  EXPECT_TRUE(pd.FindWithPath(1, 10, &path));
  EXPECT_EQ(path, PdQueryPath::kSelectFallback);
  EXPECT_FALSE(pd.FindWithPath(7, 10, &path));
  EXPECT_EQ(path, PdQueryPath::kSelectFallback);
}

// Claims 3 & 4 (§5.2.2), empirically: for a PD filled with uniform random
// elements, >90% of random negative queries see v_r == 0, and >95% of the
// rest are single-candidate.
TEST(PD256, CutoffEffectivenessMatchesClaims) {
  Xoshiro256 rng(32);
  uint64_t empty = 0, single = 0, fallback = 0;
  for (int trial = 0; trial < 400; ++trial) {
    PD256 pd = MakeEmptyPd();
    for (int i = 0; i < PD256::kCapacity; ++i) {
      pd.Insert(static_cast<int>(rng.Below(25)),
                static_cast<uint8_t>(rng.Next()));
    }
    for (int probe = 0; probe < 100; ++probe) {
      PdQueryPath path;
      pd.FindWithPath(static_cast<int>(rng.Below(25)),
                      static_cast<uint8_t>(rng.Next()), &path);
      switch (path) {
        case PdQueryPath::kEmptyMask: ++empty; break;
        case PdQueryPath::kSingleCandidate: ++single; break;
        case PdQueryPath::kSelectFallback: ++fallback; break;
      }
    }
  }
  const double total = static_cast<double>(empty + single + fallback);
  EXPECT_GT(empty / total, 0.88);                      // Claim 3: ~0.902
  EXPECT_GT(single / (single + fallback + 1e-9), 0.93);  // Claim 4: ~0.953
}

// --- max-element support (§5.2.3) ------------------------------------------

TEST(PD256, MarkOverflowedExposesMax) {
  PD256 pd = MakeEmptyPd();
  Xoshiro256 rng(33);
  std::multiset<uint16_t> model;
  for (int i = 0; i < PD256::kCapacity; ++i) {
    const int q = static_cast<int>(rng.Below(25));
    const uint8_t r = static_cast<uint8_t>(rng.Next());
    ASSERT_TRUE(pd.Insert(q, r));
    model.insert(static_cast<uint16_t>((q << 8) | r));
  }
  pd.MarkOverflowed();
  EXPECT_TRUE(pd.Overflowed());
  EXPECT_EQ(pd.MaxFingerprint(), *model.rbegin());
}

TEST(PD256, SpareCutoffIsOverflowedAndAboveMax) {
  // Every fingerprint, against PDs empty, part-filled, full, and overflowed
  // with a maximum in a high list, in one of the first two, and in list 0
  // holding all 25 elements.
  Xoshiro256 rng(35);
  std::vector<PD256> pds;
  PD256 pd = MakeEmptyPd();
  for (int i = 0; i < PD256::kCapacity; ++i) {
    if (i % 8 == 0) pds.push_back(pd);
    ASSERT_TRUE(pd.Insert(static_cast<int>(rng.Below(25)),
                          static_cast<uint8_t>(rng.Next())));
  }
  pds.push_back(pd);
  pd.MarkOverflowed();
  pds.push_back(pd);
  PD256 low = MakeEmptyPd();
  for (int i = 0; i < PD256::kCapacity; ++i) {
    ASSERT_TRUE(low.Insert(static_cast<int>(rng.Below(2)),
                           static_cast<uint8_t>(rng.Next())));
  }
  low.MarkOverflowed();
  pds.push_back(low);
  PD256 first = MakeEmptyPd();
  for (int i = 0; i < PD256::kCapacity; ++i) {
    ASSERT_TRUE(first.Insert(0, static_cast<uint8_t>(rng.Next())));
  }
  first.MarkOverflowed();
  pds.push_back(first);
  for (const PD256& p : pds) {
    for (int fp = 0; fp < 25 * 256; ++fp) {
      ASSERT_EQ(fp > p.SpareCutoff(),
                p.Overflowed() && fp > p.MaxFingerprint())
          << "fp=" << fp << " overflowed=" << p.Overflowed();
    }
  }
}

TEST(PD256, ReplaceMaxKeepsPrefix) {
  PD256 pd = MakeEmptyPd();
  std::multiset<uint16_t> model;
  Xoshiro256 rng(34);
  for (int i = 0; i < PD256::kCapacity; ++i) {
    const int q = static_cast<int>(rng.Below(25));
    const uint8_t r = static_cast<uint8_t>(rng.Next());
    ASSERT_TRUE(pd.Insert(q, r));
    model.insert(static_cast<uint16_t>((q << 8) | r));
  }
  pd.MarkOverflowed();

  // Repeatedly insert fingerprints smaller than the current max and check
  // the PD always holds exactly the 25 smallest fingerprints seen.
  for (int round = 0; round < 200; ++round) {
    const uint16_t fp_max = pd.MaxFingerprint();
    EXPECT_EQ(fp_max, *model.rbegin());
    const int q = static_cast<int>(rng.Below(25));
    const uint8_t r = static_cast<uint8_t>(rng.Next());
    const uint16_t fp = static_cast<uint16_t>((q << 8) | r);
    if (fp > fp_max) continue;  // the prefix filter would forward it
    pd.ReplaceMax(q, r);
    model.erase(std::prev(model.end()));
    model.insert(fp);
    ASSERT_TRUE(pd.Full());
    // Verify contents == model via Decode.
    std::multiset<uint16_t> decoded;
    for (auto [dq, dr] : pd.Decode()) {
      decoded.insert(static_cast<uint16_t>((dq << 8) | dr));
    }
    ASSERT_EQ(decoded, model) << "round " << round;
  }
}

TEST(PD256, ReplaceMaxWithEqualFingerprint) {
  PD256 pd = MakeEmptyPd();
  for (int i = 0; i < PD256::kCapacity; ++i) ASSERT_TRUE(pd.Insert(10, 50));
  pd.MarkOverflowed();
  EXPECT_EQ(pd.MaxFingerprint(), (10 << 8) | 50);
  pd.ReplaceMax(10, 50);  // equal fingerprint: a legal no-op-like replace
  EXPECT_TRUE(pd.Full());
  EXPECT_EQ(pd.MaxFingerprint(), (10 << 8) | 50);
  EXPECT_TRUE(pd.Find(10, 50));
}

TEST(PD256, MaxInvariantSurvivesManyReplacements) {
  // Descending replacement chain touching list boundaries.
  PD256 pd = MakeEmptyPd();
  for (int i = 0; i < PD256::kCapacity; ++i) {
    ASSERT_TRUE(pd.Insert(24, static_cast<uint8_t>(200 + i % 55)));
  }
  pd.MarkOverflowed();
  // Push progressively smaller fingerprints through every list.
  for (int q = 23; q >= 0; --q) {
    for (int j = 0; j < 3; ++j) {
      const uint8_t r = static_cast<uint8_t>(q * 10 + j);
      const uint16_t fp = static_cast<uint16_t>((q << 8) | r);
      ASSERT_LT(fp, pd.MaxFingerprint());
      pd.ReplaceMax(q, r);
      EXPECT_TRUE(pd.Find(q, r));
      EXPECT_TRUE(pd.Full());
    }
  }
  // After 72 replacements the 25 smallest inserted fingerprints remain: the
  // last lists' values (q=0..7 x 3 values, plus q=8's smallest).
  for (int q = 0; q <= 7; ++q) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_TRUE(pd.Find(q, static_cast<uint8_t>(q * 10 + j)));
    }
  }
}

TEST(PD256, SizeOfStructIs32Bytes) {
  EXPECT_EQ(sizeof(PD256), 32u);
  EXPECT_EQ(alignof(PD256), 32u);
}

}  // namespace
}  // namespace prefixfilter
