// Shard-grouping front-end for cross-shard batch operations.
//
// A mixed query stream hits shards in random order; querying one key at a
// time would take and release a shard lock per key and forfeit the
// prefetching batch path inside each shard.  The router restores both
// properties: it counting-sorts a batch by destination shard (two linear
// passes, no comparisons), drains each shard group with ONE lock acquisition
// through the shard's PF[TC] ContainsBatch — the software-prefetching loop
// that keeps the paper's one-cache-miss-per-query property across a whole
// group — and scatters results back into the caller's order.
//
// A router instance owns reusable scratch buffers and is therefore NOT
// thread-safe; give each worker thread its own (they are cheap and grow to
// the largest batch seen).  Routing through the same ShardedFilter from many
// routers concurrently is the intended use.
#ifndef PREFIXFILTER_SRC_SERVICE_BATCH_ROUTER_H_
#define PREFIXFILTER_SRC_SERVICE_BATCH_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/service/sharded_filter.h"

namespace prefixfilter {

class BatchRouter {
 public:
  // Groups keys[0..count) by filter.ShardOf and invokes
  //   visit(shard, group_keys, group_count)
  // once per non-empty shard, with group_keys contiguous in router scratch.
  // After the call, origin(p) maps each grouped position p back to the
  // original stream index.
  template <typename Visitor>
  void GroupByShard(const ShardedFilter& filter, const uint64_t* keys,
                    size_t count, Visitor&& visit) {
    const uint32_t num_shards = filter.num_shards();
    counts_.assign(num_shards, 0);
    shard_of_.resize(count);
    grouped_keys_.resize(count);
    origin_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      shard_of_[i] = filter.ShardOf(keys[i]);
      ++counts_[shard_of_[i]];
    }
    offsets_.assign(num_shards + 1, 0);
    for (uint32_t s = 0; s < num_shards; ++s) {
      offsets_[s + 1] = offsets_[s] + counts_[s];
    }
    fill_ = offsets_;
    for (size_t i = 0; i < count; ++i) {
      const size_t pos = fill_[shard_of_[i]]++;
      grouped_keys_[pos] = keys[i];
      origin_[pos] = i;
    }
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (counts_[s] == 0) continue;
      visit(s, grouped_keys_.data() + offsets_[s], counts_[s]);
    }
  }

  // Batched membership over a sharded filter: out[i] answers keys[i].
  void Route(const ShardedFilter& filter, const uint64_t* keys, size_t count,
             uint8_t* out) {
    grouped_out_.resize(count);
    GroupByShard(filter, keys, count,
                 [&](uint32_t shard, const uint64_t* group, size_t n) {
                   const size_t base =
                       static_cast<size_t>(group - grouped_keys_.data());
                   filter.QueryShard(shard, group, n,
                                     grouped_out_.data() + base);
                 });
    for (size_t p = 0; p < count; ++p) {
      out[origin_[p]] = grouped_out_[p];
    }
  }

 private:
  std::vector<uint32_t> shard_of_;
  std::vector<size_t> counts_;
  std::vector<size_t> offsets_;
  std::vector<size_t> fill_;
  std::vector<uint64_t> grouped_keys_;
  std::vector<size_t> origin_;
  std::vector<uint8_t> grouped_out_;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_SERVICE_BATCH_ROUTER_H_
