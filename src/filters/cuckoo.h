// Cuckoo filter "CF-x" / "CF-x-Flex" (paper §7.1.1; Fan et al. [27]).
//
// A hash table of fingerprints with buckets of 4 tags and partial-key cuckoo
// hashing: each key has two candidate buckets; insertion into two full
// buckets evicts a random resident tag to its alternate bucket, looping up
// to a bounded number of kicks, with a single-slot victim stash as the last
// resort.  The paper's headline observation about the cuckoo filter — build
// throughput collapsing by ~27x as load approaches the 94% maximum — comes
// from exactly this kick loop.
//
// Variants:
//   * Non-flexible: power-of-two bucket count, alternate bucket computed with
//     the original XOR trick (i2 = i1 ^ H(tag)).
//   * Flexible (CF-x-Flex): arbitrary bucket count.  XOR does not commute
//     with "mod m", so the alternate bucket is the self-inverse
//     i2 = (H(tag) - i1) mod m, which satisfies alt(alt(i)) = i for any m.
//
// Tag width is a template parameter (8, 12, 16); 12-bit tags are stored
// bit-packed (48-bit buckets).  A zero tag marks an empty slot, so computed
// tags are remapped away from zero.
#ifndef PREFIXFILTER_SRC_FILTERS_CUCKOO_H_
#define PREFIXFILTER_SRC_FILTERS_CUCKOO_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/util/aligned.h"
#include "src/util/batch_pipeline.h"
#include "src/util/bits.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace prefixfilter {

template <int kTagBits>
class CuckooFilter {
 public:
  static constexpr int kTagsPerBucket = 4;
  static constexpr int kMaxKicks = 500;
  static constexpr double kMaxLoadFactor = 0.94;
  static constexpr uint32_t kTagMask = (uint32_t{1} << kTagBits) - 1;

  static_assert(kTagBits == 8 || kTagBits == 12 || kTagBits == 16,
                "supported tag widths: 8, 12, 16");

  // `flexible` selects the arbitrary-bucket-count variant; otherwise the
  // bucket count is rounded up to a power of two (faster indexing, possibly
  // ~2x space).
  CuckooFilter(uint64_t capacity, bool flexible, uint64_t seed = 0xcf17u)
      : capacity_(capacity),
        flexible_(flexible),
        num_buckets_(BucketCount(capacity, flexible)),
        bucket_mask_(flexible ? 0 : num_buckets_ - 1),
        // One slack byte so 12-bit unaligned 64-bit loads stay in bounds.
        bytes_(num_buckets_ * kTagsPerBucket * kTagBits / 8 + 8),
        hash_(seed),
        kick_rng_(seed ^ 0x5bd1e995u),
        seed_(seed) {}

  bool Insert(uint64_t key) {
    // Once the victim stash is occupied the filter is full: kicking further
    // would displace a resident tag with nowhere to put it (a lost key).
    if (has_victim_) return false;
    const uint64_t h = hash_(key);
    const uint32_t tag = TagHash(h);
    const uint64_t i1 = IndexHash(h);
    if (InsertIntoBucket(i1, tag) || InsertIntoBucket(AltIndex(i1, tag), tag)) {
      ++size_;
      return true;
    }
    // Kick loop: evict a random resident of the (full) current bucket and
    // move it to its own alternate bucket.
    uint64_t index = kick_rng_.Next() & 1 ? AltIndex(i1, tag) : i1;
    uint32_t cur = tag;
    for (int kick = 0; kick < kMaxKicks; ++kick) {
      const int slot = static_cast<int>(kick_rng_.Next() & 3);
      const uint32_t evicted = GetTag(index, slot);
      SetTag(index, slot, cur);
      cur = evicted;
      index = AltIndex(index, cur);
      if (InsertIntoBucket(index, cur)) {
        ++size_;
        return true;
      }
    }
    if (!has_victim_) {
      victim_tag_ = cur;
      victim_index_ = index;
      has_victim_ = true;
      ++size_;
      return true;
    }
    return false;  // filter failure (paper: "might occasionally fail")
  }

  bool Contains(uint64_t key) const {
    const uint64_t h = hash_(key);
    const uint32_t tag = TagHash(h);
    const uint64_t i1 = IndexHash(h);
    if (BucketContains(i1, tag)) return true;
    const uint64_t i2 = AltIndex(i1, tag);
    if (BucketContains(i2, tag)) return true;
    return has_victim_ && victim_tag_ == tag &&
           (victim_index_ == i1 || victim_index_ == i2);
  }

  // The spare batch contract of the prefix filter (SpareTraits): the probe
  // of a key is the key itself.
  using Probe = uint64_t;
  Probe Locate(uint64_t key) const { return key; }

  // Prefetches the lines Contains(key) may read: both candidate buckets.  The
  // prefix filter calls this on a spare-bound key well before it resolves
  // it.
  void Prefetch(uint64_t key) const {
    const uint64_t h = hash_(key);
    const uint64_t i1 = IndexHash(h);
    PrefetchBucket(i1);
    PrefetchBucket(AltIndex(i1, TagHash(h)));
  }

  uint64_t size() const { return size_; }
  uint64_t capacity() const { return capacity_; }
  size_t SpaceBytes() const { return bytes_.SizeBytes(); }

  std::string Name() const {
    return "CF-" + std::to_string(kTagBits) + (flexible_ ? "-Flex" : "");
  }

  // --- persistence ----------------------------------------------------------

  static constexpr uint32_t kMagic = 0x50464346;  // "PFCF"

  void SerializeTo(std::vector<uint8_t>* out) const {
    ByteWriter w(out);
    w.U32(kMagic);
    w.U8(1);
    w.U8(static_cast<uint8_t>(kTagBits));
    w.U64(capacity_);
    w.U8(flexible_ ? 1 : 0);
    w.U64(seed_);
    w.U64(size_);
    w.U32(victim_tag_);
    w.U64(victim_index_);
    w.U8(has_victim_ ? 1 : 0);
    w.Raw(bytes_.data(), bytes_.SizeBytes());
  }

  static std::optional<CuckooFilter> Deserialize(const uint8_t* data,
                                                 size_t len) {
    ByteReader r(data, len);
    if (r.U32() != kMagic || r.U8() != 1 || r.U8() != kTagBits) {
      return std::nullopt;
    }
    const uint64_t capacity = r.U64();
    const bool flexible = r.U8() != 0;
    const uint64_t seed = r.U64();
    const uint64_t size = r.U64();
    const uint32_t victim_tag = r.U32();
    const uint64_t victim_index = r.U64();
    const bool has_victim = r.U8() != 0;
    if (!r.ok() || capacity == 0) return std::nullopt;
    // Geometry check before allocating.
    const uint64_t buckets = BucketCount(capacity, flexible);
    if (buckets > r.remaining() ||
        RoundUpToCacheLine(buckets * kTagsPerBucket * kTagBits / 8 + 8) !=
            r.remaining()) {
      return std::nullopt;
    }
    CuckooFilter f(capacity, flexible, seed);
    if (!r.Raw(f.bytes_.data(), f.bytes_.SizeBytes()) || r.remaining() != 0) {
      return std::nullopt;
    }
    f.size_ = size;
    f.victim_tag_ = victim_tag;
    f.victim_index_ = victim_index;
    f.has_victim_ = has_victim;
    return f;
  }

 private:
  static uint64_t BucketCount(uint64_t capacity, bool flexible) {
    const uint64_t needed = static_cast<uint64_t>(
        std::ceil(capacity / (kMaxLoadFactor * kTagsPerBucket)));
    return flexible ? std::max<uint64_t>(needed, 1) : NextPow2(needed);
  }

  uint64_t IndexHash(uint64_t h) const {
    return flexible_ ? FastRange64(h, num_buckets_) : (h >> 32) & bucket_mask_;
  }

  uint32_t TagHash(uint64_t h) const {
    const uint32_t tag = static_cast<uint32_t>(Mix64(h)) & kTagMask;
    return tag == 0 ? 1 : tag;  // zero marks an empty slot
  }

  uint64_t AltIndex(uint64_t index, uint32_t tag) const {
    // H(tag): an independent mix of the tag reduced to the bucket range.
    const uint64_t th = Mix64(static_cast<uint64_t>(tag) * 0x9e3779b97f4a7c15ULL);
    if (!flexible_) return index ^ (th & bucket_mask_);
    // Self-inverse for arbitrary m: alt(i) = (H - i) mod m.
    const uint64_t target = FastRange64(th, num_buckets_);
    return target >= index ? target - index : target + num_buckets_ - index;
  }

  // --- bit-packed tag table -------------------------------------------------
  //
  // A bucket's 4 tags occupy 4*kTagBits (= 32/48/64) contiguous bits, always
  // byte-aligned, so the whole bucket loads as one 64-bit word.  Queries use
  // the classic SWAR "hasvalue" trick (as in the authors' implementation):
  // a lane of (word ^ broadcast(tag)) is zero iff that slot holds the tag,
  // and (v - kLaneLsb) & ~v & kLaneMsb flags zero lanes exactly.

  static constexpr uint64_t kLaneLsb =
      kTagBits == 8 ? 0x01010101ULL
                    : (kTagBits == 12 ? 0x001001001001ULL
                                      : 0x0001000100010001ULL);
  static constexpr uint64_t kLaneMsb = kLaneLsb << (kTagBits - 1);

  static uint64_t ZeroLaneMarkers(uint64_t v) {
    return (v - kLaneLsb) & ~v & kLaneMsb;
  }

  const uint8_t* BucketAddress(uint64_t bucket) const {
    return bytes_.data() + bucket * (kTagsPerBucket * kTagBits / 8);
  }

  uint64_t BucketWord(uint64_t bucket) const {
    uint64_t word;
    std::memcpy(&word, BucketAddress(bucket), 8);
    return word;
  }

  // BucketWord's 8-byte load can straddle a line boundary: touch both ends.
  void PrefetchBucket(uint64_t bucket) const {
    PrefetchLine(BucketAddress(bucket));
    PrefetchLine(BucketAddress(bucket) + 7);
  }

  uint32_t GetTag(uint64_t bucket, int slot) const {
    const uint64_t bit = (bucket * kTagsPerBucket + slot) * kTagBits;
    uint64_t word;
    std::memcpy(&word, bytes_.data() + (bit >> 3), 8);
    return static_cast<uint32_t>(word >> (bit & 7)) & kTagMask;
  }

  void SetTag(uint64_t bucket, int slot, uint32_t tag) {
    const uint64_t bit = (bucket * kTagsPerBucket + slot) * kTagBits;
    uint64_t word;
    std::memcpy(&word, bytes_.data() + (bit >> 3), 8);
    const int shift = static_cast<int>(bit & 7);
    word &= ~(static_cast<uint64_t>(kTagMask) << shift);
    word |= static_cast<uint64_t>(tag) << shift;
    std::memcpy(bytes_.data() + (bit >> 3), &word, 8);
  }

  bool InsertIntoBucket(uint64_t bucket, uint32_t tag) {
    // Zero tags mark empty slots; find the lowest one in O(1).  For 8-bit
    // tags only the low 32 bits of the word are bucket lanes, which the
    // 4-lane constants already restrict to.
    const uint64_t markers = ZeroLaneMarkers(BucketWord(bucket));
    if (markers == 0) return false;
    const int slot = CountTrailingZeros64(markers) / kTagBits;
    SetTag(bucket, slot, tag);
    return true;
  }

  bool BucketContains(uint64_t bucket, uint32_t tag) const {
    const uint64_t lanes = BucketWord(bucket) ^ (kLaneLsb * tag);
    return ZeroLaneMarkers(lanes) != 0;
  }

  uint64_t capacity_;
  bool flexible_;
  uint64_t num_buckets_;
  uint64_t bucket_mask_;
  AlignedBuffer<uint8_t> bytes_;
  Dietzfelbinger64 hash_;
  Xoshiro256 kick_rng_;
  uint64_t seed_;
  uint64_t size_ = 0;
  uint32_t victim_tag_ = 0;
  uint64_t victim_index_ = 0;
  bool has_victim_ = false;
};

using CuckooFilter8 = CuckooFilter<8>;
using CuckooFilter12 = CuckooFilter<12>;
using CuckooFilter16 = CuckooFilter<16>;

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_FILTERS_CUCKOO_H_
