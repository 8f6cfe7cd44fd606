// Shard-grouping front-end for cross-shard batch operations.
//
// A mixed query stream hits shards in random order; querying one key at a
// time would take and release a shard lock per key and forfeit the
// prefetching batch path inside each shard.  The router restores both
// properties without moving a key.  It cuts a batch into chunks of
// kChunkKeys (4096) keys and counting-sorts each chunk's key positions by
// destination shard into stable per-shard index lists of uint16_t (two
// linear passes, no comparisons; positions ascend within a shard).  Each
// shard group then drains with ONE lock acquisition through the shard's
// PF[TC] ContainsIndexed — the software-prefetching loop that keeps the
// paper's one-cache-miss-per-query property across a whole group — which
// reads keys[idx[j]] and writes out[idx[j]] directly, so answers land in
// the caller's order with no gather pass.
//
// Memory: the router's scratch is fixed at sizeof(BatchRouter) = 24,578
// bytes (the chunk's shard numbers and index list, 8 KiB each, and one
// uint16_t counter per possible shard), whatever the batch size.  It replaces
// per-key scratch (a shard number, the key, its origin index and its
// answer: 21 B per key) that grew to the largest batch a thread had ever
// routed and was never freed (ROADMAP item 3).
//
// A router instance owns its scratch and is therefore NOT thread-safe; give
// each worker thread its own.  Routing through the same ShardedFilter from
// many routers concurrently is the intended use.
#ifndef PREFIXFILTER_SRC_SERVICE_BATCH_ROUTER_H_
#define PREFIXFILTER_SRC_SERVICE_BATCH_ROUTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/service/sharded_filter.h"

namespace prefixfilter {

class BatchRouter {
 public:
  static constexpr size_t kChunkKeys = ShardedFilter::kRouteChunkKeys;

  // Counting-sorts the positions of keys[0..n), n <= kChunkKeys, by
  // filter.ShardOf into index[0..n), stably: each shard's positions ascend.
  // Then invokes
  //   visit(shard, shard_index, shard_count)
  // once per non-empty shard, in shard order, where shard_index points at
  // that shard's shard_count positions inside `index`.
  template <typename Visitor>
  void GroupChunk(const ShardedFilter& filter, const uint64_t* keys, size_t n,
                  uint16_t* index, Visitor&& visit) {
    const uint32_t num_shards = filter.num_shards();
    std::fill_n(start_, num_shards + 1, uint16_t{0});
    for (size_t i = 0; i < n; ++i) {
      shard_of_[i] = static_cast<uint16_t>(filter.ShardOf(keys[i]));
    }
    for (size_t i = 0; i < n; ++i) ++start_[shard_of_[i] + 1];
    // start_[s] becomes the first slot of shard s ...
    for (uint32_t s = 0; s < num_shards; ++s) start_[s + 1] += start_[s];
    // ... and, once its positions are placed, one past its last slot.
    for (size_t i = 0; i < n; ++i) {
      index[start_[shard_of_[i]]++] = static_cast<uint16_t>(i);
    }
    size_t begin = 0;
    for (uint32_t s = 0; s < num_shards; ++s) {
      const size_t end = start_[s];
      if (end != begin) visit(s, index + begin, end - begin);
      begin = end;
    }
  }

  // Batched membership over a sharded filter: out[i] answers keys[i].
  void Route(const ShardedFilter& filter, const uint64_t* keys, size_t count,
             uint8_t* out) {
    for (size_t base = 0; base < count; base += kChunkKeys) {
      const size_t n = std::min(kChunkKeys, count - base);
      GroupChunk(filter, keys + base, n, index_,
                 [&](uint32_t shard, const uint16_t* shard_index,
                     size_t shard_count) {
                   filter.QueryShard(shard, keys + base, shard_index,
                                     shard_count, out + base);
                 });
    }
  }

 private:
  uint16_t shard_of_[kChunkKeys] = {};
  uint16_t index_[kChunkKeys] = {};
  uint16_t start_[ShardedFilter::kMaxShards + 1] = {};
};

static_assert(sizeof(BatchRouter) == 24578,
              "update the scratch size the file comment states");
static_assert(ShardedFilter::kMaxShards <= UINT16_MAX &&
                  BatchRouter::kChunkKeys <= UINT16_MAX,
              "shard numbers and chunk positions must fit in uint16_t");

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_SERVICE_BATCH_ROUTER_H_
