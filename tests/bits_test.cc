#include "src/util/bits.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace prefixfilter {
namespace {

// Portable oracle for Select64.
int SelectNaive(uint64_t x, int j) {
  for (int i = 0; i < 64; ++i) {
    if ((x >> i) & 1) {
      if (j == 0) return i;
      --j;
    }
  }
  return 64;
}

TEST(Bits, MaskLow) {
  EXPECT_EQ(MaskLow64(0), 0u);
  EXPECT_EQ(MaskLow64(1), 1u);
  EXPECT_EQ(MaskLow64(50), (uint64_t{1} << 50) - 1);
  EXPECT_EQ(MaskLow64(64), ~uint64_t{0});
}

TEST(Bits, Rank) {
  const uint64_t x = 0b101101;
  EXPECT_EQ(Rank64(x, 0), 0);
  EXPECT_EQ(Rank64(x, 1), 1);
  EXPECT_EQ(Rank64(x, 3), 2);
  EXPECT_EQ(Rank64(x, 6), 4);
  EXPECT_EQ(Rank64(x, 64), 4);
}

TEST(Bits, SelectAgainstNaive) {
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    const uint64_t x = rng.Next() & rng.Next();  // vary density
    const int ones = PopCount64(x);
    for (int j = 0; j < ones; ++j) {
      ASSERT_EQ(Select64(x, j), SelectNaive(x, j))
          << "x=" << x << " j=" << j;
    }
  }
}

// The broadword select behind PF_NATIVE=OFF builds, checked on every build:
// random words of every density, every byte pattern, and j past the last
// one (which must give 64).
TEST(Bits, SelectPortableAgainstNaive) {
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 4000; ++trial) {
    uint64_t x = rng.Next();
    for (int thin = trial % 4; thin > 0; --thin) x &= rng.Next();
    if (trial % 5 == 0) x |= rng.Next();  // dense words too
    for (int j = 0; j < 64; ++j) {
      ASSERT_EQ(Select64Portable(x, j), SelectNaive(x, j))
          << "x=" << x << " j=" << j;
    }
  }
  for (uint64_t byte = 0; byte < 256; ++byte) {
    for (int at = 0; at < 64; at += 8) {
      const uint64_t x = byte << at;
      for (int j = 0; j < 9; ++j) {
        ASSERT_EQ(Select64Portable(x, j), SelectNaive(x, j))
            << "x=" << x << " j=" << j;
      }
    }
  }
  for (int j = 0; j < 64; ++j) {
    ASSERT_EQ(Select64Portable(~uint64_t{0}, j), j);
    ASSERT_EQ(Select64Portable(0, j), 64);
  }
}

TEST(Bits, SelectOutOfRange) {
  EXPECT_EQ(Select64(0, 0), 64);
  EXPECT_EQ(Select64(0b1, 1), 64);
}

TEST(Bits, SelectRankRoundTrip) {
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    const uint64_t x = rng.Next();
    const int ones = PopCount64(x);
    for (int j = 0; j < ones; ++j) {
      const int pos = Select64(x, j);
      EXPECT_EQ(Rank64(x, pos), j);
      EXPECT_TRUE((x >> pos) & 1);
    }
  }
}

TEST(Bits, InsertZeroBit) {
  // Insert into 0b1111 at position 2 -> 0b110_11 with a 0 in the middle.
  EXPECT_EQ(InsertZeroBit64(0b1111, 2), 0b11011u);
  EXPECT_EQ(InsertZeroBit64(0b1111, 0), 0b11110u);
  EXPECT_EQ(InsertZeroBit64(0, 17), 0u);
}

TEST(Bits, InsertOneBit) {
  EXPECT_EQ(InsertOneBit64(0b1111, 2), 0b11111u);
  EXPECT_EQ(InsertOneBit64(0, 3), 0b1000u);
  EXPECT_EQ(InsertOneBit64(0b1001, 1), 0b10011u);
}

TEST(Bits, RemoveBit) {
  EXPECT_EQ(RemoveBit64(0b11011, 2), 0b1111u);
  EXPECT_EQ(RemoveBit64(0b1, 0), 0u);
  EXPECT_EQ(RemoveBit64(0b10, 0), 0b1u);
}

TEST(Bits, InsertRemoveInverse) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint64_t x = rng.Next() >> 1;  // keep bit 63 clear
    const int pos = static_cast<int>(rng.Below(63));
    EXPECT_EQ(RemoveBit64(InsertZeroBit64(x, pos), pos), x);
    EXPECT_EQ(RemoveBit64(InsertOneBit64(x, pos), pos), x);
  }
}

TEST(Bits, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1023), 1024u);
  EXPECT_EQ(NextPow2(1024), 1024u);
  EXPECT_EQ(NextPow2(1025), 2048u);
}

TEST(Bits, HighestSetBit) {
  EXPECT_EQ(HighestSetBit64(1), 0);
  EXPECT_EQ(HighestSetBit64(0b1000), 3);
  EXPECT_EQ(HighestSetBit64(~uint64_t{0}), 63);
}

// RunMask64 (PDEP on BMI2 builds) and RunMask64Portable against a bit loop
// that collects the ones since the last zero, for every j whose zero lies
// below bit 63 (the precondition), on words of every popcount 0..64.
TEST(Bits, RunMask64AgainstBitLoop) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 65 * 40; ++trial) {
    const int ones = trial % 65;
    uint64_t w = 0;
    while (PopCount64(w) < ones) w |= uint64_t{1} << rng.Below(64);
    uint64_t run = 0;
    int j = 0;
    for (int pos = 0; pos < 63; ++pos) {
      if ((w >> pos) & 1) {
        run |= uint64_t{1} << pos;
        continue;
      }
      ASSERT_EQ(RunMask64(w, j), run)
          << std::hex << w << std::dec << " j " << j;
      ASSERT_EQ(RunMask64Portable(w, j), run)
          << std::hex << w << std::dec << " j " << j;
      run = 0;
      ++j;
    }
  }
}

// --- 128-bit helpers -------------------------------------------------------

TEST(Bits128, RankSelectConsistent) {
  Xoshiro256 rng(4);
  for (int trial = 0; trial < 500; ++trial) {
    const Bits128 x{rng.Next(), rng.Next()};
    const int ones = PopCount128(x);
    for (int j = 0; j < ones; j += 7) {
      const int pos = Select128(x, j);
      ASSERT_LT(pos, 128);
      EXPECT_EQ(Rank128(x, pos), j);
      EXPECT_TRUE(GetBit128(x, pos));
    }
    EXPECT_EQ(Select128(x, ones), 128);
  }
}

TEST(Bits128, InsertZeroShiftsAcrossWordBoundary) {
  Bits128 x{~uint64_t{0}, 0};  // 64 ones then zeros
  const Bits128 y = InsertZeroBit128(x, 10);
  EXPECT_EQ(Rank128(y, 10), 10);
  EXPECT_FALSE(GetBit128(y, 10));
  EXPECT_TRUE(GetBit128(y, 64));  // former bit 63 crossed the boundary
  EXPECT_EQ(PopCount128(y), 64);
}

TEST(Bits128, InsertRemoveInverse) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    Bits128 x{rng.Next(), rng.Next() >> 1};  // keep bit 127 clear
    const int pos = static_cast<int>(rng.Below(127));
    const Bits128 ins = InsertZeroBit128(x, pos);
    EXPECT_FALSE(GetBit128(ins, pos));
    const Bits128 back = RemoveBit128(ins, pos);
    EXPECT_EQ(back.lo, x.lo);
    EXPECT_EQ(back.hi, x.hi);
  }
}

TEST(Bits128, GetBitWordBoundary) {
  const Bits128 x{uint64_t{1} << 63, 1};
  EXPECT_TRUE(GetBit128(x, 63));
  EXPECT_TRUE(GetBit128(x, 64));
  EXPECT_FALSE(GetBit128(x, 62));
  EXPECT_FALSE(GetBit128(x, 65));
}

}  // namespace
}  // namespace prefixfilter
