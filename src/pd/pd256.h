// PD256: the prefix filter's 32-byte pocket dictionary PD(25, 8, 25)
// (paper §5), extended with the max-element operations of §5.2.3.
//
// Layout (32 bytes, two PDs per 64-byte cache line):
//   bits   0..49   Elias-Fano style header (see below)
//   bits  50..54   quotient of the maximum element (valid once overflowed)
//   bit   55       overflow flag ("a fingerprint of this bin went to the spare")
//   bytes  7..31   body: up to 25 remainders of 8 bits, grouped by quotient
//
// Header encoding.  The paper encodes per-list occupancies in unary with `0`
// symbols separated by `1` terminators.  We store the *complement*: elements
// are `1` bits and list terminators are `0` bits, read LSB-first.  The two
// encodings are isomorphic, but the complemented form has two practical
// advantages: an all-zero PD is a valid empty PD (so zero-initialized memory
// needs no construction pass), and the occupancy is simply
// popcount(header).  With t stored elements the encoding occupies bits
// [0, 25 + t); all higher header bits are zero, which reads as "all
// remaining lists are empty".
//
// Decoding rules (positions within bits [0, 50)):
//   * the j-th `0` bit (j = 0-based) terminates list j;
//   * a `1` bit at position pos is an element of list (#zeros before pos),
//     and its body index is (#ones before pos).
// Hence body slot i holds an element of list q  iff  header bit (q + i) is 1
// and exactly i ones precede it — the O(1) membership check behind the
// paper's query cutoff (Algorithm 3).
//
// Query fast path (§5.2.2): a SIMD broadcast-compare over the whole 32-byte
// block yields the body match bitvector v_r.  If v_r == 0 the answer is "No"
// (>90% of random negative queries, Claim 3).  If v_r has a single set bit,
// one POPCOUNT decides membership (>95% of the remainder, Claim 4).  Only
// multi-match queries fall back to Select.
//
// Insert: the new element's header bit goes in with one bit insert at the
// end of its list, and its remainder at the matching body index; one
// ShiftInsert32 (src/util/simd.h) moves the body tail up a byte, stores the
// remainder, and writes the new header word in a single in-register store.
// No memmove call is left, so an insert inlines whole into the prefix
// filter's batched build loop.
#ifndef PREFIXFILTER_SRC_PD_PD256_H_
#define PREFIXFILTER_SRC_PD_PD256_H_

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/util/bits.h"
#include "src/util/simd.h"

namespace prefixfilter {

// Which path answered a PD256 query (for validating Claims 3 and 4).
enum class PdQueryPath : uint8_t {
  kEmptyMask = 0,        // v_r == 0: answered with no header work
  kSingleCandidate = 1,  // one body match: answered with one POPCOUNT
  kSelectFallback = 2,   // multiple body matches: Select-based range check
};

class alignas(32) PD256 {
 public:
  static constexpr int kNumLists = 25;    // Q
  static constexpr int kCapacity = 25;    // k
  static constexpr int kHeaderBits = kNumLists + kCapacity;  // 50
  static constexpr int kBodyOffset = 7;   // body starts at byte 7

  // A zero-initialized PD256 is a valid empty PD; there is intentionally no
  // user-declared constructor so arrays of PDs can live in zeroed memory.

  int Size() const { return PopCount64(Header()); }
  bool Full() const { return Size() == kCapacity; }
  bool Overflowed() const { return (bytes_[6] & 0x80) != 0; }

  // Membership test for (q, r).  q in [0, kNumLists), r in [0, 256).
  bool Find(int q, uint8_t r) const {
    return FindImpl<false>(q, r, nullptr);
  }

  // Like Find, but reports which query path produced the answer.
  bool FindWithPath(int q, uint8_t r, PdQueryPath* path) const {
    return FindImpl<true>(q, r, path);
  }

  // Inserts (q, r).  Returns false (and leaves the PD unchanged) if full.
  // If the PD has overflowed, the caller must go through ReplaceMax /
  // the prefix-filter insertion protocol instead once the PD is full.
  bool Insert(int q, uint8_t r) {
    const uint64_t header = Header();
    if (PopCount64(header) == kCapacity) return false;
    if (ShiftInsert(header, q, r) == kCapacity - 1 && Overflowed()) {
      // The insert landed in the last slot, displacing the cached maximum;
      // re-establish the relaxed invariant (only possible when the new
      // element joins the last non-empty list).
      EstablishMaxInvariant();
    }
    return true;
  }

  // --- Max-element support (paper §5.2.3) ----------------------------------
  //
  // The prefix filter's eviction policy needs the maximum element of a full
  // bin in O(1).  Relaxed invariant: once the PD has overflowed, the
  // remainder of its maximum element sits in the last body slot and its
  // quotient in the 5-bit metadata field.

  // Marks the PD as overflowed and establishes the relaxed invariant.
  // Requires Full().
  void MarkOverflowed() {
    EstablishMaxInvariant();
    bytes_[6] |= 0x80;
  }

  // The maximum stored fingerprint as q*256 + r.  Requires Overflowed() and
  // Full() (the prefix filter only consults the maximum of full bins).
  uint16_t MaxFingerprint() const {
    const uint16_t q = (bytes_[6] >> 2) & 0x1f;
    return static_cast<uint16_t>((q << 8) | bytes_[kBodyOffset + kCapacity - 1]);
  }

  // Algorithm 2's spare test as one comparison: fingerprint q*256 + r
  // exceeds SpareCutoff() iff the PD has overflowed and the fingerprint
  // exceeds MaxFingerprint().  The cutoff is MaxFingerprint() with the
  // complement of the overflow flag as bit 13, which lifts it above every
  // fingerprint (< 25 * 256 < 2^13) until the PD overflows.  A single
  // comparison leaves the compiler no short-circuit jump to emit.
  uint16_t SpareCutoff() const {
    const uint32_t flipped = bytes_[6] ^ 0x80u;  // bit 7: not overflowed
    return static_cast<uint16_t>(((flipped & 0xfcu) << 6) |
                                 bytes_[kBodyOffset + kCapacity - 1]);
  }

  // Evicts the maximum element and inserts (q, r) in its place, restoring
  // the relaxed invariant.  Requires Full(), Overflowed(), and
  // q*256 + r <= MaxFingerprint().
  void ReplaceMax(int q, uint8_t r) {
    // The maximum is the last element of the last non-empty list, i.e. the
    // highest 1-bit of the header; with everything above it zero, removing
    // it is a single bit clear.
    const uint64_t header = Header();
    ShiftInsert(header & ~(uint64_t{1} << HighestSetBit64(header)), q, r);
    EstablishMaxInvariant();
  }

  // --- Introspection (tests, invariant checks) -----------------------------

  int OccupancyOf(int q) const {
    const uint64_t header = Header();
    const uint64_t terminators = ~header;
    const int z_q = Select64(terminators, q);
    const int begin_pos = (q == 0) ? 0 : Select64(terminators, q - 1) + 1;
    return z_q - begin_pos;
  }

  // All stored elements as (quotient, remainder), grouped by quotient in
  // body order.
  std::vector<std::pair<int, uint8_t>> Decode() const {
    std::vector<std::pair<int, uint8_t>> out;
    const uint64_t header = Header();
    int q = 0;
    int body_index = 0;
    for (int pos = 0; pos < kHeaderBits && q < kNumLists; ++pos) {
      if ((header >> pos) & 1) {
        out.emplace_back(q, bytes_[kBodyOffset + body_index]);
        ++body_index;
      } else {
        ++q;
      }
    }
    return out;
  }

  const uint8_t* raw() const { return bytes_; }

 private:
  static constexpr uint64_t kHeaderMask = (uint64_t{1} << kHeaderBits) - 1;

  uint64_t Header() const {
    uint64_t w;
    std::memcpy(&w, bytes_, 8);
    return w & kHeaderMask;
  }

  // The shared write of Insert and ReplaceMax: appends r to list q of
  // `header` (which must hold fewer than kCapacity elements) and stores the
  // new header and body with one ShiftInsert32.  Returns r's body index.
  int ShiftInsert(uint64_t header, int q, uint8_t r) {
    const int t = PopCount64(header);
    const int z_q = Select64(~header, q);  // list q's terminator
    const int body_index = z_q - q;        // append at end of list q
    uint64_t word;  // header, metadata and body[0]
    std::memcpy(&word, bytes_, 8);
    // A 1-bit anywhere in list q's run of 1-bits gives the same header, so
    // it goes in just before the terminator.
    word = (word & ~kHeaderMask) |
           (InsertOneBit64(header, z_q) & kHeaderMask);
    ShiftInsert32(bytes_, word, kBodyOffset + body_index, kBodyOffset + t, r);
    return body_index;
  }

  void SetMaxQuotient(int q) {
    bytes_[6] = static_cast<uint8_t>((bytes_[6] & 0x83) |
                                     (static_cast<uint8_t>(q) << 2));
  }

  // Finds the maximum element (last non-empty list, maximal remainder),
  // swaps its remainder into the last body slot, and caches its quotient.
  // Requires Full().
  void EstablishMaxInvariant() {
    const uint64_t header = Header();
    const int last_pos = HighestSetBit64(header);
    // #zeros before last_pos = last_pos - (t - 1) with t = 25.
    const int q_max = last_pos - (kCapacity - 1);
    // The last list's elements are the trailing run of 1-bits; its body
    // range is [begin, kCapacity).
    const uint64_t terminators = ~header;
    const int begin =
        (q_max == 0) ? 0 : Select64(terminators, q_max - 1) + 1 - q_max;
    uint8_t* body = bytes_ + kBodyOffset;
    int max_index = begin;
    for (int i = begin + 1; i < kCapacity; ++i) {
      if (body[i] > body[max_index]) max_index = i;
    }
    std::swap(body[max_index], body[kCapacity - 1]);
    SetMaxQuotient(q_max);
  }

  template <bool kTrackPath>
  bool FindImpl(int q, uint8_t r, PdQueryPath* path) const {
    const uint32_t v = FindByteMask32(bytes_, r) >> kBodyOffset;
    if (v == 0) {
      if constexpr (kTrackPath) *path = PdQueryPath::kEmptyMask;
      return false;
    }
    const uint64_t header = Header();
    if ((v & (v - 1)) == 0) {
      if constexpr (kTrackPath) *path = PdQueryPath::kSingleCandidate;
      // Single candidate at body index i: it belongs to list q iff header
      // bit (q + i) is an element bit preceded by exactly i element bits.
      const int i = CountTrailingZeros64(v);
      const uint64_t w = static_cast<uint64_t>(v) << q;
      return (header & w) != 0 && PopCount64(header & (w - 1)) == i;
    }
    if constexpr (kTrackPath) *path = PdQueryPath::kSelectFallback;
    const uint64_t terminators = ~header;
    const int begin =
        (q == 0) ? 0 : Select64(terminators, q - 1) + 1 - q;
    const int end = Select64(terminators, q) - q;
    return (v & static_cast<uint32_t>(MaskRange64(begin, end))) != 0;
  }

  uint8_t bytes_[32];
};

static_assert(sizeof(PD256) == 32, "PD256 must occupy exactly 32 bytes");

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_PD_PD256_H_
