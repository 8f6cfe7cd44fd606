// Blocked Bloom filter "BBF" / "BBF-Flex" (paper §7.1.1, [46]).
//
// Register-blocked Bloom filter: each key maps to one 256-bit block and sets
// one bit in each of the block's eight 32-bit lanes (the Impala-style SIMD
// kernel in util/simd.h).  Every operation touches exactly one cache line.
// The false positive rate is fixed by the 8-bits-set design and the load;
// the paper controls it only through the space budget:
//   * BBF ("non-flexible"): block count rounded up to a power of two,
//     approximating one byte per key — fast index computation, up to 2x
//     space overshoot.
//   * BBF-Flex: any block count (fastrange indexing), sized by bits/key.
#ifndef PREFIXFILTER_SRC_FILTERS_BLOCKED_BLOOM_H_
#define PREFIXFILTER_SRC_FILTERS_BLOCKED_BLOOM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/util/aligned.h"
#include "src/util/batch_pipeline.h"
#include "src/util/bits.h"
#include "src/util/hash.h"
#include "src/util/serialize.h"
#include "src/util/simd.h"

namespace prefixfilter {

class BlockedBloomFilter {
 public:
  static constexpr int kBlockBytes = 32;  // 256-bit blocks, 8 x 32-bit lanes

  // Flexible variant: ceil(capacity * bits_per_key / 256) blocks.  The
  // paper's BBF-Flex uses ~10.7 bits/key.
  static BlockedBloomFilter MakeFlexible(uint64_t capacity,
                                         double bits_per_key = 10.67,
                                         uint64_t seed = 0xbbfu) {
    const uint64_t blocks = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::ceil(capacity * bits_per_key / (kBlockBytes * 8))));
    return BlockedBloomFilter(capacity, blocks, /*flexible=*/true, seed);
  }

  // Non-flexible variant: one byte per key rounded up to a power of two, as
  // in the cuckoo-filter repository's implementation the paper benchmarks.
  static BlockedBloomFilter MakeNonFlexible(uint64_t capacity,
                                            uint64_t seed = 0xbbfu) {
    const uint64_t blocks = NextPow2((capacity + kBlockBytes - 1) / kBlockBytes);
    return BlockedBloomFilter(capacity, blocks, /*flexible=*/false, seed);
  }

  bool Insert(uint64_t key) {
    const uint64_t h = hash_(key);
    BlockedBloomAdd(static_cast<uint32_t>(h), BlockPtr(BlockIndex(h)));
    ++size_;
    return true;
  }

  bool Contains(uint64_t key) const {
    const uint64_t h = hash_(key);
    return BlockedBloomContains(static_cast<uint32_t>(h),
                                BlockPtr(BlockIndex(h)));
  }

  // Prefetching batch probe: hash and prefetch a 16-key window, then run the
  // SIMD load-and-test over it.  Picked up by the AnyFilter adapter's
  // byte-batch detection, so routed shard groups run this concrete loop
  // instead of per-key virtual Contains.
  void ContainsBatch(const uint64_t* keys, size_t count, uint8_t* out) const {
    constexpr size_t kChunk = 16;
    uint64_t hashes[kChunk];
    uint64_t blocks[kChunk];
    for (size_t base = 0; base < count; base += kChunk) {
      const size_t chunk = std::min(kChunk, count - base);
      for (size_t i = 0; i < chunk; ++i) {
        hashes[i] = hash_(keys[base + i]);
        blocks[i] = BlockIndex(hashes[i]);
        __builtin_prefetch(BlockPtr(blocks[i]), 0, 1);
      }
      for (size_t i = 0; i < chunk; ++i) {
        out[base + i] = BlockedBloomContains(static_cast<uint32_t>(hashes[i]),
                                             BlockPtr(blocks[i])) ? 1 : 0;
      }
    }
  }

  // The spare batch contract of the prefix filter (SpareTraits): the probe
  // of a key is the key itself, since a BBF probe is one block.
  using Probe = uint64_t;
  Probe Locate(uint64_t key) const { return key; }

  // Prefetches the line Contains(key) will read: the key's block.  The prefix
  // filter calls this on a spare-bound key well before it resolves it.
  void Prefetch(uint64_t key) const {
    PrefetchLine(BlockPtr(BlockIndex(hash_(key))));
  }

  // Portable-kernel twins for the kernel differential harness: identical
  // hashing and geometry, scalar lane loops on every build.
  bool InsertPortable(uint64_t key) {
    const uint64_t h = hash_(key);
    BlockedBloomAddPortable(static_cast<uint32_t>(h), BlockPtr(BlockIndex(h)));
    ++size_;
    return true;
  }

  bool ContainsPortable(uint64_t key) const {
    const uint64_t h = hash_(key);
    return BlockedBloomContainsPortable(static_cast<uint32_t>(h),
                                        BlockPtr(BlockIndex(h)));
  }

  uint64_t size() const { return size_; }
  uint64_t capacity() const { return capacity_; }
  size_t SpaceBytes() const { return lanes_.SizeBytes(); }
  std::string Name() const { return flexible_ ? "BBF-Flex" : "BBF"; }

  // --- persistence ----------------------------------------------------------

  static constexpr uint32_t kMagic = 0x50464242;  // "PFBB"

  void SerializeTo(std::vector<uint8_t>* out) const {
    ByteWriter w(out);
    w.U32(kMagic);
    w.U8(1);
    w.U64(capacity_);
    w.U64(num_blocks_);
    w.U8(flexible_ ? 1 : 0);
    w.U64(seed_);
    w.U64(size_);
    w.Raw(lanes_.data(), lanes_.SizeBytes());
  }

  static std::optional<BlockedBloomFilter> Deserialize(const uint8_t* data,
                                                       size_t len) {
    ByteReader r(data, len);
    if (r.U32() != kMagic || r.U8() != 1) return std::nullopt;
    const uint64_t capacity = r.U64();
    const uint64_t num_blocks = r.U64();
    const bool flexible = r.U8() != 0;
    const uint64_t seed = r.U64();
    const uint64_t size = r.U64();
    if (!r.ok() || num_blocks == 0) return std::nullopt;
    if (!flexible && (num_blocks & (num_blocks - 1)) != 0) return std::nullopt;
    if (num_blocks > r.remaining() / kBlockBytes + 1 ||
        RoundUpToCacheLine(num_blocks * kBlockBytes) != r.remaining()) {
      return std::nullopt;
    }
    BlockedBloomFilter f(capacity, num_blocks, flexible, seed);
    if (!r.Raw(f.lanes_.data(), f.lanes_.SizeBytes()) || r.remaining() != 0) {
      return std::nullopt;
    }
    f.size_ = size;
    return f;
  }

 private:
  BlockedBloomFilter(uint64_t capacity, uint64_t num_blocks, bool flexible,
                     uint64_t seed)
      : capacity_(capacity),
        num_blocks_(num_blocks),
        flexible_(flexible),
        block_mask_(flexible ? 0 : num_blocks - 1),
        lanes_(num_blocks * 8),
        hash_(seed),
        seed_(seed) {}

  uint64_t BlockIndex(uint64_t h) const {
    // Non-flex uses a mask of the high bits (power-of-two block count);
    // flex uses fastrange.  Both consume the upper hash bits, leaving the
    // low 32 bits for the lane-mask derivation.
    return flexible_ ? FastRange64(h, num_blocks_)
                     : (h >> 32) & block_mask_;
  }

  uint32_t* BlockPtr(uint64_t block) { return lanes_.data() + block * 8; }
  const uint32_t* BlockPtr(uint64_t block) const {
    return lanes_.data() + block * 8;
  }

  uint64_t capacity_;
  uint64_t num_blocks_;
  bool flexible_;
  uint64_t block_mask_;
  AlignedBuffer<uint32_t> lanes_;
  Dietzfelbinger64 hash_;
  uint64_t seed_;
  uint64_t size_ = 0;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_FILTERS_BLOCKED_BLOOM_H_
