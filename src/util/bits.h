// Bit-manipulation substrate used by the pocket dictionaries (paper §5).
//
// The pocket dictionary header is a unary/Elias-Fano encoding packed into one
// (PD256) or two (PD512) machine words.  Every operation below is a small,
// branch-light building block for decoding that encoding: rank, select,
// inserting/removing a bit at an arbitrary position, and range masks.
#ifndef PREFIXFILTER_SRC_UTIL_BITS_H_
#define PREFIXFILTER_SRC_UTIL_BITS_H_

#include <bit>
#include <cstdint>

#if defined(__BMI2__)
#include <immintrin.h>
#define PF_HAVE_BMI2 1
#else
#define PF_HAVE_BMI2 0
#endif

namespace prefixfilter {

// Number of set bits in `x`.
inline int PopCount64(uint64_t x) { return std::popcount(x); }

// Index of the least-significant set bit. Undefined for x == 0.
inline int CountTrailingZeros64(uint64_t x) { return std::countr_zero(x); }

// Index of the most-significant set bit (0-based). Undefined for x == 0.
inline int HighestSetBit64(uint64_t x) { return 63 - std::countl_zero(x); }

// A mask with bits [0, n) set. Requires 0 <= n <= 64.
inline uint64_t MaskLow64(int n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

// A mask with bits [lo, hi) set. Requires 0 <= lo <= hi <= 64.
inline uint64_t MaskRange64(int lo, int hi) {
  return MaskLow64(hi) & ~MaskLow64(lo);
}

// Rank(x, i): number of set bits of `x` in positions [0, i).
inline int Rank64(uint64_t x, int i) { return PopCount64(x & MaskLow64(i)); }

// `x` with bits [n, 64) cleared (BZHI).  Requires 0 <= n <= 64.
inline uint64_t LowBits64(uint64_t x, int n) {
#if PF_HAVE_BMI2
  return _bzhi_u64(x, static_cast<unsigned>(n));
#else
  return x & MaskLow64(n);
#endif
}

namespace bits_internal {
inline constexpr uint64_t kOnesStep8 = 0x0101010101010101;
inline constexpr uint64_t kMsbsStep8 = 0x8080808080808080;

// The number of bytes of `sums` that are <= j; every byte and j are < 128.
// Setting each byte's top bit before the subtraction keeps the bytes from
// borrowing from each other, and the top bit survives iff byte <= j.
inline int BytesAtMost(uint64_t sums, uint64_t j) {
  const uint64_t at_most =
      (((j * kOnesStep8) | kMsbsStep8) - sums) & kMsbsStep8;
  return static_cast<int>(((at_most >> 7) * kOnesStep8) >> 56);
}
}  // namespace bits_internal

// Broadword Select64 for builds without BMI2, compiled on every build so
// tests check it on any host.  Branch-free: byte popcounts, their prefix
// sums by one multiply, the target byte as the number of prefix sums <= j,
// then the same count over the bits of that byte.  No POPCNT instruction
// (the portable baseline has none).  Requires 0 <= j < 64.
inline int Select64Portable(uint64_t x, int j) {
  using bits_internal::BytesAtMost;
  using bits_internal::kMsbsStep8;
  using bits_internal::kOnesStep8;
  uint64_t counts = x - ((x >> 1) & 0x5555555555555555);
  counts = (counts & 0x3333333333333333) +
           ((counts >> 2) & 0x3333333333333333);
  counts = (counts + (counts >> 4)) & 0x0f0f0f0f0f0f0f0f;
  const uint64_t sums = counts * kOnesStep8;  // byte i: ones in bytes [0, i]
  const uint64_t rank = static_cast<uint64_t>(j);
  const int byte = BytesAtMost(sums, rank);  // 8 if x has <= j ones
  const int shift = (byte * 8) & 63;
  const uint64_t rank_in_byte = rank - (((sums << 8) >> shift) & 0xff);
  // Byte i of `spread` keeps bit i of the target byte; the add carries it
  // to the byte's top bit, so `bit_sums` byte i counts its ones in [0, i].
  const uint64_t spread =
      (((x >> shift) & 0xff) * kOnesStep8) & 0x8040201008040201;
  const uint64_t bit_sums =
      (((spread + 0x7f7f7f7f7f7f7f7f) & kMsbsStep8) >> 7) * kOnesStep8;
  const int pos = byte * 8 + BytesAtMost(bit_sums, rank_in_byte);
  return pos < 64 ? pos : 64;  // byte == 8 gives 64 + 8
}

// Select(x, j): index of the j-th (0-based) set bit of `x`; 64 if there is
// no such bit.  Requires 0 <= j < 64.  This is the "fast x86 Select" of
// Pandey et al. [41] that the paper's PD implementation works hard to avoid
// on its fast path: PDEP deposits a single bit at the position of the j-th
// one, TZCNT extracts it.  PDEP is fast on Intel and on AMD from Zen 3; it
// is microcoded (tens of cycles) on earlier AMD cores.
inline int Select64(uint64_t x, int j) {
#if PF_HAVE_BMI2
  return static_cast<int>(_tzcnt_u64(_pdep_u64(uint64_t{1} << j, x)));
#else
  return Select64Portable(x, j);
#endif
}

// Inserts a 0-bit at position `pos`, shifting bits [pos, 63) up by one.  The
// previous bit 63 is discarded (PD headers never occupy the full word).
inline uint64_t InsertZeroBit64(uint64_t x, int pos) {
  const uint64_t lo = MaskLow64(pos);
  return (x & lo) | ((x & ~lo) << 1);
}

// Inserts a 1-bit at position `pos`, shifting bits [pos, 63) up by one.
inline uint64_t InsertOneBit64(uint64_t x, int pos) {
  return InsertZeroBit64(x, pos) | (uint64_t{1} << pos);
}

// Removes the bit at position `pos`, shifting bits (pos, 64) down by one.
// Bit 63 of the result is zero.
inline uint64_t RemoveBit64(uint64_t x, int pos) {
  const uint64_t lo = MaskLow64(pos);
  return (x & lo) | ((x >> 1) & ~lo);
}

// Returns true iff `x` has at most one set bit.
inline bool AtMostOneBitSet64(uint64_t x) { return (x & (x - 1)) == 0; }

// Next power of two >= x (x >= 1). Saturates at 2^63.
inline uint64_t NextPow2(uint64_t x) {
  if (x <= 1) return 1;
  return uint64_t{1} << (64 - std::countl_zero(x - 1));
}

// ---------------------------------------------------------------------------
// 128-bit header helpers (for PD512, whose header spans two words).
// Bits are numbered 0..127 with word 0 holding bits [0, 64).
// ---------------------------------------------------------------------------

struct Bits128 {
  uint64_t lo;
  uint64_t hi;
};

inline int PopCount128(Bits128 x) { return PopCount64(x.lo) + PopCount64(x.hi); }

inline bool GetBit128(Bits128 x, int pos) {
  return pos < 64 ? ((x.lo >> pos) & 1) != 0 : ((x.hi >> (pos - 64)) & 1) != 0;
}

// Number of set bits in positions [0, i), 0 <= i <= 128.
inline int Rank128(Bits128 x, int i) {
  if (i <= 64) return Rank64(x.lo, i);
  return PopCount64(x.lo) + Rank64(x.hi, i - 64);
}

// Index of the j-th (0-based) set bit; 128 if there is no such bit.
inline int Select128(Bits128 x, int j) {
  const int c = PopCount64(x.lo);
  if (j < c) return Select64(x.lo, j);
  const int s = Select64(x.hi, j - c);
  return s == 64 ? 128 : 64 + s;
}

// Select128 without a branch on the word: the j-th set bit's word, its rank
// within it and the word's base are picked with an all-ones-or-zero mask
// (GCC turns a ternary pick into a jump here).  Requires the bit to exist,
// j < PopCount128(x), at rank < 64 in its word, which holds whenever
// j < 64 + PopCount64(x.lo).  PD512::Find uses it, where a mixed stream makes
// the word unpredictable.  PD512::Insert keeps the branching Select128: with
// this body BM_PdInsert<PD512> ran 7-13% slower (medians of 10 and 12
// alternating bench_micro_pd pairs, 1/10 and 1/12 won; Xeon, GCC 12).
inline int Select128Branchless(Bits128 x, int j) {
  const int lo_count = PopCount64(x.lo);
  const int in_hi = -static_cast<int>(j >= lo_count);  // 0 or all ones
  const uint64_t hi_mask = static_cast<uint64_t>(static_cast<int64_t>(in_hi));
  const uint64_t word = x.lo ^ ((x.lo ^ x.hi) & hi_mask);
  return (64 & in_hi) + Select64(word, j - (lo_count & in_hi));
}

// Inserts a 0-bit at `pos`, shifting everything above up by one; bit 127 is
// discarded.
inline Bits128 InsertZeroBit128(Bits128 x, int pos) {
  if (pos < 64) {
    const uint64_t carry = x.lo >> 63;
    return {InsertZeroBit64(x.lo, pos), (x.hi << 1) | carry};
  }
  return {x.lo, InsertZeroBit64(x.hi, pos - 64)};
}

// Removes the bit at `pos`, shifting everything above down by one.
inline Bits128 RemoveBit128(Bits128 x, int pos) {
  if (pos < 64) {
    const uint64_t borrow = x.hi << 63;
    return {RemoveBit64(x.lo, pos) | borrow, x.hi >> 1};
  }
  return {x.lo, RemoveBit64(x.hi, pos - 64)};
}

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_UTIL_BITS_H_
