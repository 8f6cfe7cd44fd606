// The rolling prefetch pipeline of the prefix filter's batched inserts and
// queries, and the prefetch primitives they and the spares use.
//
// A filter probe or insert on a table larger than the cache is one random
// DRAM access; the batch paths exist to overlap those accesses.  The
// pipeline keeps a fixed window of kBatchPrefetchDistance keys in flight:
// while key i is resolved, key i + D is hashed and its line prefetched, so
// by the time a key is resolved its line has had D resolutions' worth of
// time to arrive.  Queries prefetch with the read hint (PrefetchLine);
// inserts, which modify the line they fetch, with the write hint
// (PrefetchLineForWrite).
// (A prefetch-a-chunk-then-resolve-it loop instead waits on a full miss at
// the start of every chunk.  BlockedBloomFilter and FastMultiBlock keep that
// chunk-16 loop: their resolve step is a few ns, and on cache-resident
// tables this pipeline cost them 7-39% of batch throughput, although it
// gained ~60% on a ~130 MB table.)
#ifndef PREFIXFILTER_SRC_UTIL_BATCH_PIPELINE_H_
#define PREFIXFILTER_SRC_UTIL_BATCH_PIPELINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace prefixfilter {

// Keys in flight ahead of the one being resolved.  Picked by a sweep over
// 16/32/64 on a ~190 MB table; a power of two so the ring index is a mask.
inline constexpr size_t kBatchPrefetchDistance = 32;

// Read prefetch into every cache level.  (The low-temporal-locality hint
// measured ~7% slower on a ~190 MB table.)
inline void PrefetchLine(const void* p) { __builtin_prefetch(p, 0, 3); }

// Write prefetch into every cache level, for a line the resolve step will
// modify (the insert pipeline's bins): the line arrives owned, so the store
// does not pay a second coherence round trip.
inline void PrefetchLineForWrite(void* p) { __builtin_prefetch(p, 1, 3); }

// The positions 0, 1, 2, ... of a whole batch: the index list of a batch
// run in its own order.
struct IdentityIndex {
  size_t operator[](size_t j) const { return j; }
};

// Runs keys[index[0]], ..., keys[index[count - 1]] through the pipeline.
// `index` is IdentityIndex for a whole batch, or a list of key positions
// (such as one shard's keys of a routed batch).  hash(key) -> uint64_t is
// called once per key, ahead of time; prefetch(h) prefetches the lines
// resolve will touch; resolve(i, h) answers or applies the key at position
// i = index[j] from its hash.  resolve is called in list order.
template <typename Index, typename Hash, typename Prefetch, typename Resolve>
inline void RunPrefetchPipeline(const uint64_t* keys, const Index& index,
                                size_t count, const Hash& hash,
                                const Prefetch& prefetch,
                                const Resolve& resolve) {
  constexpr size_t kDistance = kBatchPrefetchDistance;
  static_assert((kDistance & (kDistance - 1)) == 0, "power of two");
  uint64_t ring[kDistance];
  const size_t head = std::min(kDistance, count);
  for (size_t j = 0; j < head; ++j) {
    ring[j] = hash(keys[index[j]]);
    prefetch(ring[j]);
  }
  size_t j = 0;
  for (; j + kDistance < count; ++j) {
    uint64_t& slot = ring[j & (kDistance - 1)];
    const uint64_t h = slot;
    slot = hash(keys[index[j + kDistance]]);
    prefetch(slot);
    resolve(static_cast<size_t>(index[j]), h);
  }
  for (; j < count; ++j) {
    resolve(static_cast<size_t>(index[j]), ring[j & (kDistance - 1)]);
  }
}

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_UTIL_BATCH_PIPELINE_H_
