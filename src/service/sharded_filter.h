// Hash-partitioned sharded filter: the scale-out building block of the
// filter service (ROADMAP: serve heavy multi-user traffic).
//
// The key universe is partitioned over N = 2^b shards by an independent
// mixer of the key; each shard is a complete, independently-seeded prefix
// filter PF[TC], whose single-cache-line queries the paper §5 makes the
// natural choice of shard.  Each shard is guarded by its own line-padded
// mutex, so concurrent clients contend only when they hit the same shard —
// the same per-partition-locking argument the paper makes for per-bin
// locking in §4.4, lifted one level up.
//
// Sizing: a shard receives Binomial(n, 1/N) of the n keys, so each shard is
// provisioned for n/N plus balls-into-bins headroom (4 standard deviations,
// the same rule the concurrent prefix filter's sharded spare uses).  Each
// shard therefore runs at essentially the load factor a single filter of
// capacity n would, which keeps the global false positive rate within a few
// percent of the unsharded equivalent (verified in tests/sharded_filter_test).
//
// Snapshots carry the AnyFilter envelope of src/core/filter_factory.h under
// Name(); the payload is the shard geometry followed by each shard's stats
// and length-prefixed raw PF[TC] payload.  Deserialize() is the inverse
// (DeserializeFilter() knows only the unsharded configurations).
#ifndef PREFIXFILTER_SRC_SERVICE_SHARDED_FILTER_H_
#define PREFIXFILTER_SRC_SERVICE_SHARDED_FILTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/filter_factory.h"
#include "src/core/prefix_filter.h"
#include "src/core/spare.h"
#include "src/obs/metrics.h"
#include "src/util/hash.h"
#include "src/util/thread_annotations.h"

namespace prefixfilter {

struct ShardedFilterOptions {
  // Rounded up to a power of two.
  uint32_t num_shards = 16;
  uint64_t seed = 0x5ead5u;
};

// Per-shard operation counters (prefix_filter_stats.h style), maintained
// under the shard lock and snapshotted by value.
struct ShardStats {
  uint64_t inserts = 0;
  uint64_t insert_failures = 0;
  uint64_t queries = 0;
  uint64_t hits = 0;
};

class ShardedFilter final : public AnyFilter {
 public:
  using ShardFilter = PrefixFilter<SpareTcTraits>;

  static constexpr uint32_t kMaxShards = 1 << 12;
  // Keys BatchRouter and InsertJob group at a time: one 4096-key batch, the
  // unit perfbench and the load generators send.  Positions within a chunk
  // fit in the uint16_t index lists the shards are probed through.
  static constexpr size_t kRouteChunkKeys = 4096;

  // Builds an empty sharded filter for up to `capacity` keys (at most 2^48)
  // over options.num_shards (1..4096) shards.  Returns nullptr on
  // out-of-range arguments.
  static std::unique_ptr<ShardedFilter> Make(uint64_t capacity,
                                             ShardedFilterOptions options);

  // Parses "SHARD<n>[PF[TC]]", the one spelling Name() emits, into the shard
  // count n (a power of two <= 4096).  Returns false (and leaves
  // *num_shards untouched) for anything else.
  static bool ParseName(const std::string& name, uint32_t* num_shards);

  // Restores a SerializeTo() image.  Returns nullptr on any corruption,
  // truncation, trailing bytes, or an envelope of another configuration.
  static std::unique_ptr<ShardedFilter> Deserialize(const uint8_t* data,
                                                    size_t len);

  // --- AnyFilter ------------------------------------------------------------

  bool Insert(uint64_t key) override;
  bool Contains(uint64_t key) const override;
  // Cross-shard batches route through BatchRouter so each shard group of a
  // 4096-key chunk drains through the shard's prefetching batch path (one
  // lock + one pass per shard group instead of one lock per key).  Fast
  // paths skip the grouping machinery entirely for 1-key batches (inline
  // route-on-query) and for single-shard filters (everything is one group
  // by construction).
  void ContainsBatch(const uint64_t* keys, size_t count,
                     uint8_t* out) const override;
  // Serializes one shard at a time under that shard's lock, so the image
  // holds every insert that returned before the call; inserts running
  // concurrently may land in it or not, shard by shard.
  bool SerializeTo(std::vector<uint8_t>* out) const override;
  size_t SpaceBytes() const override;
  uint64_t Capacity() const override { return capacity_; }
  std::string Name() const override;

  // --- sharding surface (used by BatchRouter and FilterService) -------------

  uint32_t num_shards() const { return num_shards_; }
  uint32_t ShardOf(uint64_t key) const {
    // Independent of the shards' own hashing: they consume Dietzfelbinger
    // streams of the raw key, the shard selector a Mix64 of a salted key.
    return shard_bits_ == 0
               ? 0
               : static_cast<uint32_t>(Mix64(key ^ shard_salt_) >>
                                       (64 - shard_bits_));
  }

  // Batch operations against one shard through an index list; each takes
  // the shard lock once.  The keys at positions index[0..count) of `keys`
  // must all map to `shard` (BatchRouter guarantees this), and a shard
  // sees them in list order.  QueryShard writes out[index[j]] for each j
  // and no other byte of `out`, and adds count queries and the hits to the
  // shard's stats.
  void QueryShard(uint32_t shard, const uint64_t* keys, const uint16_t* index,
                  size_t count, uint8_t* out) const;
  // Returns the number of failed inserts.
  uint64_t InsertShard(uint32_t shard, const uint64_t* keys,
                       const uint16_t* index, size_t count);

  // A grouped insert that can be applied in slices.  Each InsertSlice call
  // applies up to `budget` more keys through InsertShard.  The batch is
  // grouped by shard (BatchRouter::GroupChunk) kRouteChunkKeys keys at a
  // time, into the job's own index list, so no call does work proportional
  // to the whole batch; a shard group larger than the budget is split
  // across calls.  Positions ascend within a shard, so keys reach each
  // shard in input order, as in a whole-batch grouping, and PrefixFilter
  // applies a batch in list order, so a sliced batch leaves the filter
  // exactly as an unsliced one.
  class InsertJob {
   public:
    bool done() const {
      return next_key_ == count_ && next_group_ == groups_.size();
    }
    size_t size() const { return count_; }
    // Keys the filter failed to absorb in the slices applied so far.
    uint64_t failures() const { return failures_; }

   private:
    friend class ShardedFilter;
    struct Group {
      uint32_t shard;
      size_t end;  // one past the group's last position in index_
    };
    const uint64_t* keys_ = nullptr;  // the caller's batch
    size_t count_ = 0;
    size_t next_key_ = 0;  // first key of keys_ not yet grouped
    const uint64_t* chunk_ = nullptr;  // the chunk index_ lists positions of
    std::vector<uint16_t> index_;  // the chunk's positions, grouped by shard
    std::vector<Group> groups_;
    size_t next_group_ = 0;
    size_t next_indexed_ = 0;  // first position of index_ not yet applied
    uint64_t failures_ = 0;
  };
  // Resets `job` to insert keys[0..count); the keys must stay alive and
  // unchanged until the job is done.
  static void StartInsert(const uint64_t* keys, size_t count, InsertJob* job);
  // Applies up to `budget` more keys of `job`; true once all are applied.
  bool InsertSlice(InsertJob* job, size_t budget);

  // Grouped insert run to completion (StartInsert plus one unbounded
  // InsertSlice).  Returns the number of failed inserts, per the AnyFilter
  // contract.
  uint64_t InsertBatch(const uint64_t* keys, size_t count) override;

  uint64_t per_shard_capacity() const { return per_shard_capacity_; }
  ShardStats shard_stats(uint32_t shard) const;
  // Aggregate over all shards.
  ShardStats TotalStats() const;

  // Attaches observability to `registry` (FilterService calls this when it
  // wraps the filter): a scrape-time collector exposes per-shard occupancy,
  // insert-failure, probe and hit series derived from the ShardStats this
  // filter already maintains, so the query and insert paths carry no
  // instrumentation of their own.  Detached automatically in the
  // destructor.
  void EnableMetrics(obs::MetricsRegistry* registry);

  ~ShardedFilter() override;

 private:
  // `num_shards` is a power of two; the shards are added by the caller.
  ShardedFilter(uint64_t capacity, uint32_t num_shards, uint64_t seed);

  // QueryShard over any index list (IdentityIndex on the single-shard path).
  template <typename Index>
  void QueryShardIndexed(uint32_t shard, const uint64_t* keys,
                         const Index& index, size_t count, uint8_t* out) const;

  struct Shard {
    explicit Shard(ShardFilter f) : filter(std::move(f)) {}
    alignas(64) mutable Mutex mutex;
    // The shard lock guards both the filter contents and the counters.
    ShardFilter filter PF_GUARDED_BY(mutex);
    ShardStats stats PF_GUARDED_BY(mutex);
  };

  uint64_t capacity_;
  uint64_t seed_;
  uint32_t num_shards_;
  uint32_t shard_bits_;
  uint64_t shard_salt_;
  uint64_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Observability (null/0 until EnableMetrics; see its comment).
  obs::MetricsRegistry* registry_ = nullptr;
  uint64_t collector_id_ = 0;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_SERVICE_SHARDED_FILTER_H_
