// SIMD substrate for the pocket-dictionary bodies (paper §5.2.2).
//
// The paper's key implementation idea is that a PD query can usually be
// answered by a single broadcast-and-compare over the PD's body: build a
// bitvector v_r with v_r[i] = 1 iff body[i] == r (VPBROADCAST + VPCMP in the
// paper), then reason about v_r instead of running Select over the header.
// This header provides those byte-match kernels for 32-byte and 64-byte
// blocks with AVX-512BW, AVX2, and portable fallbacks; the matching
// shift-insert kernels a PD insert is made of (open one body slot by moving
// the tail of the body up a byte, store the new remainder in it, and write
// the new header, all in registers and one store: a masked VPERMB on
// AVX-512 VBMI, a branch-free SWAR over the block's 64-bit words
// elsewhere); the 8-lane blocked-Bloom mask kernel; and the wire codec's
// CRC-32.
#ifndef PREFIXFILTER_SRC_UTIL_SIMD_H_
#define PREFIXFILTER_SRC_UTIL_SIMD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__AVX512BW__) && defined(__AVX512VL__)
#define PF_HAVE_AVX512 1
#else
#define PF_HAVE_AVX512 0
#endif
#if PF_HAVE_AVX512 && defined(__AVX512VBMI__)
#define PF_HAVE_AVX512VBMI 1
#else
#define PF_HAVE_AVX512VBMI 0
#endif
#if defined(__AVX2__)
#define PF_HAVE_AVX2 1
#else
#define PF_HAVE_AVX2 0
#endif
#if defined(__PCLMUL__) && defined(__SSE4_1__)
#define PF_HAVE_PCLMUL 1
#else
#define PF_HAVE_PCLMUL 0
#endif

#if PF_HAVE_AVX2 || PF_HAVE_AVX512 || PF_HAVE_PCLMUL
#include <immintrin.h>
#endif

namespace prefixfilter {

// Portable byte-match over `len` bytes; bit i of the result is set iff
// block[i] == needle.  Used as the reference implementation in tests and as
// the fallback on machines without AVX2.
inline uint64_t FindByteMaskScalar(const void* block, uint8_t needle, int len) {
  const uint8_t* p = static_cast<const uint8_t*>(block);
  uint64_t mask = 0;
  for (int i = 0; i < len; ++i) {
    mask |= static_cast<uint64_t>(p[i] == needle) << i;
  }
  return mask;
}

// Byte-match over a 32-byte block (the PD256 of the prefix filter).
// `block` must be 32-byte aligned.
inline uint32_t FindByteMask32(const void* block, uint8_t needle) {
#if PF_HAVE_AVX512
  const __m256i v = _mm256_load_si256(static_cast<const __m256i*>(block));
  return _mm256_cmpeq_epi8_mask(v, _mm256_set1_epi8(static_cast<char>(needle)));
#elif PF_HAVE_AVX2
  const __m256i v = _mm256_load_si256(static_cast<const __m256i*>(block));
  const __m256i eq =
      _mm256_cmpeq_epi8(v, _mm256_set1_epi8(static_cast<char>(needle)));
  return static_cast<uint32_t>(_mm256_movemask_epi8(eq));
#else
  return static_cast<uint32_t>(FindByteMaskScalar(block, needle, 32));
#endif
}

// Byte-match over a 64-byte block (the PD512 "mini-filter" of TwoChoicer).
// `block` must be 64-byte aligned.
inline uint64_t FindByteMask64(const void* block, uint8_t needle) {
#if PF_HAVE_AVX512
  const __m512i v = _mm512_load_si512(block);
  return _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8(static_cast<char>(needle)));
#elif PF_HAVE_AVX2
  const __m256i* p = static_cast<const __m256i*>(block);
  const __m256i needle8 = _mm256_set1_epi8(static_cast<char>(needle));
  const uint32_t lo = static_cast<uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_load_si256(p), needle8)));
  const uint32_t hi = static_cast<uint32_t>(_mm256_movemask_epi8(
      _mm256_cmpeq_epi8(_mm256_load_si256(p + 1), needle8)));
  return (static_cast<uint64_t>(hi) << 32) | lo;
#else
  return FindByteMaskScalar(block, needle, 64);
#endif
}

// ---------------------------------------------------------------------------
// Shift-insert kernels: the whole write of a pocket-dictionary insert.
// ShiftInsert32(block, head, pos, last, byte) leaves the block as
//   memcpy(block, &head, 8);
//   memmove(block + pos + 1, block + pos, last - pos);
//   block[pos] = byte;
// would: bytes pos+1 .. last take their left neighbour, `byte` lands at
// pos, bytes past `last` keep their value, and the header word is written
// in the same store.  ShiftInsert64 is the 64-byte twin with a two-word
// (16-byte) head.  Requires 0 <= pos <= last < the block size; `block` is
// aligned to its size.  Neither variant calls out or branches on pos or
// last, so a PD insert inlines whole into a caller's loop.
//   * AVX-512 VBMI: one VPERMB with the constant "index - 1" vector,
//     masked to bytes pos+1 .. last, then a masked broadcast of `byte`.
//   * Portable: a branch-free SWAR over the 4 or 8 words; each word blends
//     itself, itself shifted up a byte (carrying in its lower neighbour's
//     top byte), and the broadcast `byte` under per-word byte masks.
// ---------------------------------------------------------------------------

namespace shift_insert_internal {
// The bytes [c, 8) of a word, c clamped to [0, 8]; the shift is split in
// two so that c = 8 (no bytes) stays a defined shift.
inline uint64_t BytesFrom(int c) {
  c = std::min(std::max(c, 0), 8);
  return ~uint64_t{0} << (4 * c) << (4 * c);
}

template <int kWords, int kHeadWords>
inline void ShiftInsertSwar(void* block, const uint64_t (&head)[kHeadWords],
                            int pos, int last, uint8_t byte) {
  uint64_t w[kWords];
  std::memcpy(w, block, sizeof(w));
  for (int i = 0; i < kHeadWords; ++i) w[i] = head[i];
  const uint64_t fill = byte * uint64_t{0x0101010101010101};
  uint64_t carry = 0;  // top byte of the word below
  for (int i = 0; i < kWords; ++i) {
    const uint64_t up = (w[i] << 8) | carry;
    carry = w[i] >> 56;
    const uint64_t from_pos = BytesFrom(pos - 8 * i);
    const uint64_t past_pos = BytesFrom(pos + 1 - 8 * i);
    const uint64_t kept = ~BytesFrom(last + 1 - 8 * i);
    w[i] = (w[i] & ~(from_pos & kept)) | (up & past_pos & kept) |
           (fill & from_pos & ~past_pos);
  }
  std::memcpy(block, w, sizeof(w));
}

#if PF_HAVE_AVX512VBMI
// Byte i holds i - 1: a VPERMB with it moves every byte up one.
alignas(64) inline constexpr uint8_t kShiftUpIndex[64] = {
    0,  0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14,
    15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
    31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46,
    47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62};
#endif
}  // namespace shift_insert_internal

// Portable shift-insert over a 32-byte block, compiled on every build so
// tests check it on any host.
inline void ShiftInsert32Portable(void* block, uint64_t head, int pos,
                                  int last, uint8_t byte) {
  const uint64_t heads[1] = {head};
  shift_insert_internal::ShiftInsertSwar<4>(block, heads, pos, last, byte);
}

// Portable shift-insert over a 64-byte block.
inline void ShiftInsert64Portable(void* block, uint64_t head_lo,
                                  uint64_t head_hi, int pos, int last,
                                  uint8_t byte) {
  const uint64_t heads[2] = {head_lo, head_hi};
  shift_insert_internal::ShiftInsertSwar<8>(block, heads, pos, last, byte);
}

// Shift-insert over a 32-byte block (a PD256 insert).
inline void ShiftInsert32(void* block, uint64_t head, int pos, int last,
                          uint8_t byte) {
#if PF_HAVE_AVX512VBMI
  const __m256i index = _mm256_load_si256(reinterpret_cast<const __m256i*>(
      shift_insert_internal::kShiftUpIndex));
  const uint32_t moved =
      ((uint32_t{2} << last) - 1) & ~((uint32_t{2} << pos) - 1);
  __m256i v = _mm256_load_si256(static_cast<const __m256i*>(block));
  v = _mm256_mask_set1_epi64(v, 0x1, static_cast<long long>(head));
  v = _mm256_mask_permutexvar_epi8(v, moved, index, v);
  v = _mm256_mask_set1_epi8(v, uint32_t{1} << pos, static_cast<char>(byte));
  _mm256_store_si256(static_cast<__m256i*>(block), v);
#else
  ShiftInsert32Portable(block, head, pos, last, byte);
#endif
}

// Shift-insert over a 64-byte block (a PD512 insert).
inline void ShiftInsert64(void* block, uint64_t head_lo, uint64_t head_hi,
                          int pos, int last, uint8_t byte) {
#if PF_HAVE_AVX512VBMI
  const __m512i index = _mm512_load_si512(shift_insert_internal::kShiftUpIndex);
  const uint64_t moved =
      ((uint64_t{2} << last) - 1) & ~((uint64_t{2} << pos) - 1);
  __m512i v = _mm512_load_si512(block);
  v = _mm512_mask_set1_epi64(v, 0x1, static_cast<long long>(head_lo));
  v = _mm512_mask_set1_epi64(v, 0x2, static_cast<long long>(head_hi));
  v = _mm512_mask_permutexvar_epi8(v, moved, index, v);
  v = _mm512_mask_set1_epi8(v, uint64_t{1} << pos, static_cast<char>(byte));
  _mm512_store_si512(block, v);
#else
  ShiftInsert64Portable(block, head_lo, head_hi, pos, last, byte);
#endif
}

// Which SIMD kernel is compiled in (reported by benches / ablations).
inline const char* SimdKernelName() {
#if PF_HAVE_AVX512
  return "avx512bw";
#elif PF_HAVE_AVX2
  return "avx2";
#else
  return "scalar";
#endif
}

// ---------------------------------------------------------------------------
// Blocked-Bloom kernel (paper §7.1.1, "BBF"/"BBF-Flex"): register-blocked
// Bloom filter with 256-bit blocks viewed as 8 x 32-bit lanes, one bit set
// per lane.  The per-lane bit index is derived from the key hash by
// multiplying with 8 odd constants and keeping the top 5 bits (the classic
// Impala kernel used by both implementations the paper evaluates).
// ---------------------------------------------------------------------------

namespace bbf_internal {
// Odd multipliers from the Impala / cuckoofilter-repo blocked Bloom filter.
inline constexpr uint32_t kSalts[8] = {
    0x47b6137bU, 0x44974d91U, 0x8824ad5bU, 0xa2b7289dU,
    0x705495c7U, 0x2df1424bU, 0x9efc4947U, 0x5c6bfb31U};
}  // namespace bbf_internal

// Computes the 8 lane masks for hash `h` into `out[0..8)`.
inline void BlockedBloomMaskScalar(uint32_t h, uint32_t out[8]) {
  for (int i = 0; i < 8; ++i) {
    out[i] = uint32_t{1} << ((h * bbf_internal::kSalts[i]) >> 27);
  }
}

// Portable add/contains, always compiled regardless of ISA so the kernel
// differential harness (tests/kernel_differential_test.cc) and the scalar-
// baseline ablation bench can compare the dispatched kernel against the
// reference on the SAME build.  The dispatched functions below fall back to
// these when no vector ISA is available, so in portable builds the pair is
// trivially identical.
inline void BlockedBloomAddPortable(uint32_t h, uint32_t* block) {
  uint32_t mask[8];
  BlockedBloomMaskScalar(h, mask);
  for (int i = 0; i < 8; ++i) block[i] |= mask[i];
}

inline bool BlockedBloomContainsPortable(uint32_t h, const uint32_t* block) {
  uint32_t mask[8];
  BlockedBloomMaskScalar(h, mask);
  for (int i = 0; i < 8; ++i) {
    if ((block[i] & mask[i]) != mask[i]) return false;
  }
  return true;
}

// Sets the key's 8 bits in the 32-byte block (one per lane).
inline void BlockedBloomAdd(uint32_t h, uint32_t* block) {
#if PF_HAVE_AVX2
  const __m256i salts = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(bbf_internal::kSalts));
  const __m256i hv = _mm256_set1_epi32(static_cast<int>(h));
  const __m256i shifted = _mm256_srli_epi32(_mm256_mullo_epi32(hv, salts), 27);
  const __m256i mask = _mm256_sllv_epi32(_mm256_set1_epi32(1), shifted);
  __m256i* b = reinterpret_cast<__m256i*>(block);
  _mm256_store_si256(b, _mm256_or_si256(_mm256_load_si256(b), mask));
#else
  BlockedBloomAddPortable(h, block);
#endif
}

// Tests whether all 8 of the key's bits are set in the block.
inline bool BlockedBloomContains(uint32_t h, const uint32_t* block) {
#if PF_HAVE_AVX2
  const __m256i salts = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(bbf_internal::kSalts));
  const __m256i hv = _mm256_set1_epi32(static_cast<int>(h));
  const __m256i shifted = _mm256_srli_epi32(_mm256_mullo_epi32(hv, salts), 27);
  const __m256i mask = _mm256_sllv_epi32(_mm256_set1_epi32(1), shifted);
  const __m256i b =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(block));
  // testc returns 1 iff (~b & mask) == 0, i.e. every mask bit is set in b.
  return _mm256_testc_si256(b, mask) != 0;
#else
  return BlockedBloomContainsPortable(h, block);
#endif
}

// ---------------------------------------------------------------------------
// FastMultiBlock kernels (Boost.Bloom's fast_multiblock32/64 technique, and
// the multi-block design of Putze et al.'s cache-efficient Bloom filters):
// one key sets one bit in each of 8 consecutive lanes, so a query is one or
// two aligned vector loads plus a test — no per-word scalar loop.
//   * FMB32: 8 x 32-bit lanes (32-byte block), 5-bit lane positions.
//   * FMB64: 8 x 64-bit lanes (one full 64-byte cache line), 6-bit lane
//     positions — a single AVX-512 load-and-test per query, and fewer
//     position collisions within a lane than the 32-bit variant.
// Lane positions come from the same odd-multiplier scheme as the blocked-
// Bloom kernel (a multiply distributes the low hash bits across lanes) with
// an independent salt set, so the two filter families are uncorrelated.
// ---------------------------------------------------------------------------

namespace fmb_internal {
// Odd 32-bit multipliers, independent of bbf_internal::kSalts.
inline constexpr uint32_t kSalts[8] = {
    0x9e3779b1U, 0x85ebca77U, 0xc2b2ae3dU, 0x27d4eb2fU,
    0x165667b1U, 0xd3a2646dU, 0xfd7046c5U, 0xb55a4f09U};
}  // namespace fmb_internal

// The 8 lane masks for hash `h`: 32-bit lanes, top 5 bits of h * salt.
inline void Fmb32MaskScalar(uint32_t h, uint32_t out[8]) {
  for (int i = 0; i < 8; ++i) {
    out[i] = uint32_t{1} << ((h * fmb_internal::kSalts[i]) >> 27);
  }
}

// The 8 lane masks for hash `h`: 64-bit lanes, top 6 bits of h * salt.
inline void Fmb64MaskScalar(uint32_t h, uint64_t out[8]) {
  for (int i = 0; i < 8; ++i) {
    out[i] = uint64_t{1} << ((h * fmb_internal::kSalts[i]) >> 26);
  }
}

inline void Fmb32AddPortable(uint32_t h, uint32_t* block) {
  uint32_t mask[8];
  Fmb32MaskScalar(h, mask);
  for (int i = 0; i < 8; ++i) block[i] |= mask[i];
}

inline bool Fmb32ContainsPortable(uint32_t h, const uint32_t* block) {
  uint32_t mask[8];
  Fmb32MaskScalar(h, mask);
  for (int i = 0; i < 8; ++i) {
    if ((block[i] & mask[i]) != mask[i]) return false;
  }
  return true;
}

inline void Fmb64AddPortable(uint32_t h, uint64_t* block) {
  uint64_t mask[8];
  Fmb64MaskScalar(h, mask);
  for (int i = 0; i < 8; ++i) block[i] |= mask[i];
}

inline bool Fmb64ContainsPortable(uint32_t h, const uint64_t* block) {
  uint64_t mask[8];
  Fmb64MaskScalar(h, mask);
  for (int i = 0; i < 8; ++i) {
    if ((block[i] & mask[i]) != mask[i]) return false;
  }
  return true;
}

#if PF_HAVE_AVX2
namespace fmb_internal {
// 8 x 32-bit lane masks in one ymm register (mirrors Fmb32MaskScalar).
inline __m256i Mask32(uint32_t h) {
  const __m256i salts =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kSalts));
  const __m256i hv = _mm256_set1_epi32(static_cast<int>(h));
  const __m256i shifted = _mm256_srli_epi32(_mm256_mullo_epi32(hv, salts), 27);
  return _mm256_sllv_epi32(_mm256_set1_epi32(1), shifted);
}

// 8 x 6-bit lane positions, one per 32-bit lane (mirrors the >> 26 of
// Fmb64MaskScalar); widened to 64-bit shift counts by the callers.
inline __m256i Shift64(uint32_t h) {
  const __m256i salts =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kSalts));
  const __m256i hv = _mm256_set1_epi32(static_cast<int>(h));
  return _mm256_srli_epi32(_mm256_mullo_epi32(hv, salts), 26);
}
}  // namespace fmb_internal
#endif

// Sets the key's 8 bits in the 32-byte block.  `block` 32-byte aligned.
inline void Fmb32Add(uint32_t h, uint32_t* block) {
#if PF_HAVE_AVX2
  const __m256i mask = fmb_internal::Mask32(h);
  __m256i* b = reinterpret_cast<__m256i*>(block);
  _mm256_store_si256(b, _mm256_or_si256(_mm256_load_si256(b), mask));
#else
  Fmb32AddPortable(h, block);
#endif
}

// Tests whether all 8 of the key's bits are set in the 32-byte block.
inline bool Fmb32Contains(uint32_t h, const uint32_t* block) {
#if PF_HAVE_AVX2
  const __m256i mask = fmb_internal::Mask32(h);
  const __m256i b = _mm256_load_si256(reinterpret_cast<const __m256i*>(block));
  return _mm256_testc_si256(b, mask) != 0;
#else
  return Fmb32ContainsPortable(h, block);
#endif
}

// Sets the key's 8 bits in the 64-byte block.  `block` 64-byte aligned.
inline void Fmb64Add(uint32_t h, uint64_t* block) {
#if PF_HAVE_AVX512
  // maskz_ variants (all-ones mask): same instructions, but a zeroing
  // pass-through instead of the _mm512_undefined_* the unmasked forms use,
  // which trips -Wmaybe-uninitialized through inlining on GCC.
  const __m512i shifts =
      _mm512_maskz_cvtepu32_epi64(0xff, fmb_internal::Shift64(h));
  const __m512i mask =
      _mm512_maskz_sllv_epi64(0xff, _mm512_set1_epi64(1), shifts);
  _mm512_store_si512(block, _mm512_or_si512(_mm512_load_si512(block), mask));
#elif PF_HAVE_AVX2
  const __m256i shifts = fmb_internal::Shift64(h);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i lo = _mm256_sllv_epi64(
      one, _mm256_cvtepu32_epi64(_mm256_castsi256_si128(shifts)));
  const __m256i hi = _mm256_sllv_epi64(
      one, _mm256_cvtepu32_epi64(_mm256_extracti128_si256(shifts, 1)));
  __m256i* b = reinterpret_cast<__m256i*>(block);
  _mm256_store_si256(b, _mm256_or_si256(_mm256_load_si256(b), lo));
  _mm256_store_si256(b + 1, _mm256_or_si256(_mm256_load_si256(b + 1), hi));
#else
  Fmb64AddPortable(h, block);
#endif
}

// Tests whether all 8 of the key's bits are set in the 64-byte block.
inline bool Fmb64Contains(uint32_t h, const uint64_t* block) {
#if PF_HAVE_AVX512
  const __m512i shifts =
      _mm512_maskz_cvtepu32_epi64(0xff, fmb_internal::Shift64(h));
  const __m512i mask =
      _mm512_maskz_sllv_epi64(0xff, _mm512_set1_epi64(1), shifts);
  const __m512i b = _mm512_load_si512(block);
  // All mask bits present iff (b & mask) == mask in every lane.
  return _mm512_cmpeq_epi64_mask(_mm512_and_si512(b, mask), mask) == 0xff;
#elif PF_HAVE_AVX2
  const __m256i shifts = fmb_internal::Shift64(h);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i lo = _mm256_sllv_epi64(
      one, _mm256_cvtepu32_epi64(_mm256_castsi256_si128(shifts)));
  const __m256i hi = _mm256_sllv_epi64(
      one, _mm256_cvtepu32_epi64(_mm256_extracti128_si256(shifts, 1)));
  const __m256i* b = reinterpret_cast<const __m256i*>(block);
  return _mm256_testc_si256(_mm256_load_si256(b), lo) != 0 &&
         _mm256_testc_si256(_mm256_load_si256(b + 1), hi) != 0;
#else
  return Fmb64ContainsPortable(h, block);
#endif
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3: reflected, poly 0xEDB88320, init and final xor
// 0xFFFFFFFF) for the wire codec's frame checksum.  Both kernels produce the
// same value as the textbook bytewise table loop, so the wire format does
// not depend on which one a build compiles in.
//   * Portable: slicing-by-8 (eight 256-entry tables, one 8-byte load and
//     eight lookups per step).
//   * PCLMULQDQ: carry-less-multiply folding of four 128-bit lanes, folded
//     to one 128-bit lane and Barrett-reduced to 32 bits (Gopal et al.,
//     "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//     Instruction", Intel, 2009).  Used for the 16-byte-multiple prefix of
//     inputs of at least 64 bytes; slicing-by-8 finishes the tail.
// Both operate on the raw register (pre-inverted); Crc32Ieee/
// Crc32IeeePortable apply the IEEE conditioning.
// ---------------------------------------------------------------------------

namespace crc_internal {
struct Crc32Tables {
  uint32_t t[8][256];
};

// t[0] is the bytewise table; t[k][b] advances t[k-1][b] by one zero byte,
// so t[k] is the contribution of a byte k positions before the word's end.
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables.t[0][b] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = tables.t[k - 1][b];
      tables.t[k][b] = (prev >> 8) ^ tables.t[0][prev & 0xFF];
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();
}  // namespace crc_internal

// Slicing-by-8 update of the raw CRC register over `len` bytes.  Words are
// read little-endian (the byte order every wire format here assumes).
inline uint32_t Crc32UpdatePortable(uint32_t crc, const void* data,
                                    size_t len) {
  const auto& t = crc_internal::kCrc32Tables.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    word ^= crc;
    crc = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
          t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
          t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
          t[1][(word >> 48) & 0xFF] ^ t[0][word >> 56];
  }
  for (; len != 0; ++p, --len) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc;
}

#if PF_HAVE_PCLMUL
namespace crc_internal {
inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One fold step: carries the 128-bit lane `x` forward by the distance the
// constant pair `k` encodes (512 bits for k1k2, 128 for k3k4) and adds
// `next`, the lane's data at that distance.
inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}
}  // namespace crc_internal

// Folding update of the raw CRC register.  Requires len >= 64 and
// len % 16 == 0.
inline uint32_t Crc32UpdateFolded(uint32_t crc, const uint8_t* p, size_t len) {
  using crc_internal::Fold;
  using crc_internal::Load128;
  // Bit-reflected constants x^n mod P for P = 0x104C11DB7 (the Intel
  // paper's k1..k5), then P and the Barrett quotient mu = x^64 / P.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }
  // Four lanes into one, then any remaining 16-byte blocks.
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = Fold(x1, k3k4, Load128(p));

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}
#endif

// CRC-32 of `len` bytes through the portable kernel only (the reference
// twin of Crc32Ieee, compiled on every build).
inline uint32_t Crc32IeeePortable(const void* data, size_t len) {
  return ~Crc32UpdatePortable(0xFFFFFFFFu, data, len);
}

// CRC-32 of `len` bytes through the fastest kernel this build compiles in.
inline uint32_t Crc32Ieee(const void* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
#if PF_HAVE_PCLMUL
  if (len >= 64) {
    const size_t folded = len & ~size_t{15};
    crc = Crc32UpdateFolded(crc, static_cast<const uint8_t*>(data), folded);
    data = static_cast<const uint8_t*>(data) + folded;
    len -= folded;
  }
#endif
  return ~Crc32UpdatePortable(crc, data, len);
}

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_UTIL_SIMD_H_
