// PD512: a 64-byte pocket dictionary PD(80, 8, 48) — the "mini-filter" bin
// of the vector quotient filter, which the paper re-implements as
// "TwoChoicer" on top of its own PD (§5, §7.1.1).
//
// Layout (64 bytes, one PD per cache line):
//   bits   0..127  header (Q + k = 80 + 48 = 128 bits, no spare bits)
//   bytes 16..63   body: up to 48 remainders of 8 bits, grouped by quotient
//
// The header uses the same complemented Elias-Fano encoding as PD256
// (1-bits are elements, 0-bits terminate lists; all-zero memory is a valid
// empty PD), spread across two 64-bit words.  An insert is one bit insert
// into the header plus one ShiftInsert64 (src/util/simd.h), which opens the
// body slot, stores the remainder and writes both header words in a single
// in-register store.  TwoChoicer never evicts, so PD512 has no max-element
// machinery.
//
// Query: on BMI2 builds Find has no data-dependent branch, as PD256::Find:
// list q's body range comes from two PDEP selects whose word is picked by a
// mask rather than a jump (Select128Branchless), and the answer is whether
// the body match mask v_r has a 1 in that range.  On a random mix of
// present and absent keys the paper's v_r == 0 jump mispredicts about half
// the time.  Builds without BMI2 keep the branching body (FindBranching),
// where each select is a broadword sequence rather than one PDEP.
#ifndef PREFIXFILTER_SRC_PD_PD512_H_
#define PREFIXFILTER_SRC_PD_PD512_H_

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/util/bits.h"
#include "src/util/simd.h"

namespace prefixfilter {

class alignas(64) PD512 {
 public:
  static constexpr int kNumLists = 80;   // Q
  static constexpr int kCapacity = 48;   // k
  static constexpr int kHeaderBits = kNumLists + kCapacity;  // 128
  static constexpr int kBodyOffset = 16;

  int Size() const { return PopCount128(Header()); }
  bool Full() const { return Size() == kCapacity; }

  // Membership test for (q, r); q in [0, 80), r in [0, 256).
  bool Find(int q, uint8_t r) const {
#if PF_HAVE_BMI2
    const uint64_t v = FindByteMask64(bytes_, r) >> kBodyOffset;
    const Bits128 header = Header();
    const Bits128 terminators{~header.lo, ~header.hi};
    // Bit p of `starts` is terminator bit p - 1, and the injected bit 0
    // makes list 0 start at 0 with no q == 0 case: list q's body range is
    // [begin, end), from the q-th set bits of `starts` and `terminators`.
    const Bits128 starts{(terminators.lo << 1) | 1,
                         (terminators.hi << 1) | (terminators.lo >> 63)};
    // Both selects exist and land at rank < 64 in their word: ~header has
    // 128 - t >= 80 set bits, at least 16 of them in the low word.
    const int begin = Select128Branchless(starts, q) - q;
    const int end = Select128Branchless(terminators, q) - q;
    return (LowBits64(v, end) >> begin) != 0;
#else
    return FindBranching(q, r);
#endif
  }

  // The paper's query: branches on v_r (no match, one match, several).
  // Find on builds without BMI2, TwoChoicer's scalar Contains(key), and
  // Find's reference in tests.
  bool FindBranching(int q, uint8_t r) const {
    const uint64_t v = FindByteMask64(bytes_, r) >> kBodyOffset;
    if (v == 0) return false;
    const Bits128 header = Header();
    if (AtMostOneBitSet64(v)) {
      const int i = CountTrailingZeros64(v);
      const int pos = q + i;  // <= 79 + 47 = 126 < 128
      return GetBit128(header, pos) && Rank128(header, pos) == i;
    }
    const Bits128 terminators{~header.lo, ~header.hi};
    const int begin = (q == 0) ? 0 : Select128(terminators, q - 1) + 1 - q;
    const int end = Select128(terminators, q) - q;
    return (v & MaskRange64(begin, end)) != 0;
  }

  // Inserts (q, r).  Returns false (and leaves the PD unchanged) if full.
  bool Insert(int q, uint8_t r) {
    Bits128 header = Header();
    const int t = PopCount128(header);
    if (t == kCapacity) return false;
    const int z_q = Select128({~header.lo, ~header.hi}, q);  // list q's end
    const int body_index = z_q - q;
    // A 1-bit anywhere in list q's run of 1-bits gives the same header, so
    // it goes in just before the terminator.
    header = InsertZeroBit128(header, z_q);
    if (z_q < 64) {
      header.lo |= uint64_t{1} << z_q;
    } else {
      header.hi |= uint64_t{1} << (z_q - 64);
    }
    ShiftInsert64(bytes_, header.lo, header.hi, kBodyOffset + body_index,
                  kBodyOffset + t, r);
    return true;
  }

  int OccupancyOf(int q) const {
    const Bits128 header = Header();
    const Bits128 terminators{~header.lo, ~header.hi};
    const int z_q = Select128(terminators, q);
    const int begin_pos = (q == 0) ? 0 : Select128(terminators, q - 1) + 1;
    return z_q - begin_pos;
  }

  std::vector<std::pair<int, uint8_t>> Decode() const {
    std::vector<std::pair<int, uint8_t>> out;
    const Bits128 header = Header();
    int q = 0;
    int body_index = 0;
    for (int pos = 0; pos < kHeaderBits && q < kNumLists; ++pos) {
      if (GetBit128(header, pos)) {
        out.emplace_back(q, bytes_[kBodyOffset + body_index]);
        ++body_index;
      } else {
        ++q;
      }
    }
    return out;
  }

 private:
  Bits128 Header() const {
    Bits128 h;
    std::memcpy(&h.lo, bytes_, 8);
    std::memcpy(&h.hi, bytes_ + 8, 8);
    return h;
  }

  uint8_t bytes_[64];
};

static_assert(sizeof(PD512) == 64, "PD512 must occupy exactly 64 bytes");

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_PD_PD512_H_
