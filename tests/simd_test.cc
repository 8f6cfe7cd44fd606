#include "src/util/simd.h"

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "src/util/aligned.h"
#include "src/util/random.h"

namespace prefixfilter {
namespace {

class SimdTest : public ::testing::Test {
 protected:
  // 64-byte aligned scratch block.
  alignas(64) uint8_t block_[64];
};

TEST_F(SimdTest, FindByteMask32MatchesScalar) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    for (auto& b : block_) b = static_cast<uint8_t>(rng.Next() & 0xf);
    const uint8_t needle = static_cast<uint8_t>(rng.Next() & 0xf);
    EXPECT_EQ(FindByteMask32(block_, needle),
              static_cast<uint32_t>(FindByteMaskScalar(block_, needle, 32)));
  }
}

TEST_F(SimdTest, FindByteMask64MatchesScalar) {
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 2000; ++trial) {
    for (auto& b : block_) b = static_cast<uint8_t>(rng.Next() & 0x7);
    const uint8_t needle = static_cast<uint8_t>(rng.Next() & 0x7);
    EXPECT_EQ(FindByteMask64(block_, needle),
              FindByteMaskScalar(block_, needle, 64));
  }
}

TEST_F(SimdTest, FindByteMask32NoMatch) {
  std::memset(block_, 0xaa, sizeof(block_));
  EXPECT_EQ(FindByteMask32(block_, 0xbb), 0u);
}

TEST_F(SimdTest, FindByteMask32AllMatch) {
  std::memset(block_, 0x55, sizeof(block_));
  EXPECT_EQ(FindByteMask32(block_, 0x55), 0xffffffffu);
}

TEST_F(SimdTest, FindByteMask64SingleMatchEveryPosition) {
  for (int pos = 0; pos < 64; ++pos) {
    std::memset(block_, 0, sizeof(block_));
    block_[pos] = 0x7f;
    EXPECT_EQ(FindByteMask64(block_, 0x7f), uint64_t{1} << pos);
  }
}

TEST_F(SimdTest, FindByteMask32SingleMatchEveryPosition) {
  for (int pos = 0; pos < 32; ++pos) {
    std::memset(block_, 0xff, sizeof(block_));
    block_[pos] = 3;
    EXPECT_EQ(FindByteMask32(block_, 3), uint32_t{1} << pos);
  }
}

// --- shift-insert kernels -------------------------------------------------

// A kernel under test, called as kernel(block, head_words, pos, last, byte).
template <int kSize, typename Kernel>
void ExpectShiftInsertMatchesMemmove(Kernel kernel, uint64_t seed) {
  constexpr int kHeadWords = kSize / 32;  // 8 header bytes per 32
  Xoshiro256 rng(seed);
  for (int last = 0; last < kSize; ++last) {
    for (int pos = 0; pos <= last; ++pos) {
      for (int trial = 0; trial < 4; ++trial) {
        // Non-zero bytes everywhere, past `last` too: a crafted snapshot can
        // carry them, and the kernel must leave them as they are.
        alignas(64) uint8_t got[kSize];
        for (auto& b : got) b = static_cast<uint8_t>(1 + rng.Below(255));
        uint64_t head[kHeadWords];
        for (auto& h : head) h = rng.Next();
        const uint8_t byte = static_cast<uint8_t>(rng.Next());
        alignas(64) uint8_t want[kSize];
        std::memcpy(want, got, kSize);
        std::memcpy(want, head, sizeof(head));
        std::memmove(want + pos + 1, want + pos,
                     static_cast<size_t>(last - pos));
        want[pos] = byte;
        kernel(got, head, pos, last, byte);
        ASSERT_EQ(std::memcmp(got, want, kSize), 0)
            << "pos=" << pos << " last=" << last << " trial=" << trial;
      }
    }
  }
}

void Portable32(uint8_t* b, const uint64_t* head, int pos, int last,
                uint8_t byte) {
  ShiftInsert32Portable(b, head[0], pos, last, byte);
}
void Portable64(uint8_t* b, const uint64_t* head, int pos, int last,
                uint8_t byte) {
  ShiftInsert64Portable(b, head[0], head[1], pos, last, byte);
}
void Dispatched32(uint8_t* b, const uint64_t* head, int pos, int last,
                  uint8_t byte) {
  ShiftInsert32(b, head[0], pos, last, byte);
}
void Dispatched64(uint8_t* b, const uint64_t* head, int pos, int last,
                  uint8_t byte) {
  ShiftInsert64(b, head[0], head[1], pos, last, byte);
}

constexpr const char* kNoVbmi =
    "AVX-512 VBMI kernel not compiled in (needs PF_NATIVE=ON on a host with "
    "avx512vbmi); the portable kernel is covered by the Portable cases";

TEST(ShiftInsertKernel, Portable32MatchesMemmove) {
  ExpectShiftInsertMatchesMemmove<32>(Portable32, 17);
}

TEST(ShiftInsertKernel, Portable64MatchesMemmove) {
  ExpectShiftInsertMatchesMemmove<64>(Portable64, 18);
}

TEST(ShiftInsertKernel, Vbmi32MatchesMemmove) {
  if (!PF_HAVE_AVX512VBMI) GTEST_SKIP() << kNoVbmi;
  ExpectShiftInsertMatchesMemmove<32>(Dispatched32, 19);
}

TEST(ShiftInsertKernel, Vbmi64MatchesMemmove) {
  if (!PF_HAVE_AVX512VBMI) GTEST_SKIP() << kNoVbmi;
  ExpectShiftInsertMatchesMemmove<64>(Dispatched64, 20);
}

// --- blocked-Bloom kernel --------------------------------------------------

TEST(BlockedBloomKernel, AddThenContains) {
  alignas(64) uint32_t block[8] = {0};
  Xoshiro256 rng(13);
  for (int i = 0; i < 100; ++i) {
    const uint32_t h = static_cast<uint32_t>(rng.Next());
    BlockedBloomAdd(h, block);
    EXPECT_TRUE(BlockedBloomContains(h, block));
  }
}

TEST(BlockedBloomKernel, EmptyBlockContainsNothing) {
  alignas(64) uint32_t block[8] = {0};
  Xoshiro256 rng(14);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(BlockedBloomContains(static_cast<uint32_t>(rng.Next()), block));
  }
}

TEST(BlockedBloomKernel, SimdAgreesWithScalarMask) {
  // After adding h, exactly the 8 scalar-mask bits must be set.
  Xoshiro256 rng(15);
  for (int trial = 0; trial < 500; ++trial) {
    alignas(64) uint32_t block[8] = {0};
    const uint32_t h = static_cast<uint32_t>(rng.Next());
    BlockedBloomAdd(h, block);
    uint32_t expect[8];
    BlockedBloomMaskScalar(h, expect);
    for (int lane = 0; lane < 8; ++lane) {
      EXPECT_EQ(block[lane], expect[lane]) << "lane " << lane;
    }
  }
}

TEST(BlockedBloomKernel, SetsOneBitPerLane) {
  uint32_t mask[8];
  Xoshiro256 rng(16);
  for (int trial = 0; trial < 500; ++trial) {
    BlockedBloomMaskScalar(static_cast<uint32_t>(rng.Next()), mask);
    for (int lane = 0; lane < 8; ++lane) {
      EXPECT_EQ(std::popcount(mask[lane]), 1) << "lane " << lane;
    }
  }
}

}  // namespace
}  // namespace prefixfilter
