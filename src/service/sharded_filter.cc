#include "src/service/sharded_filter.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "src/obs/trace.h"
#include "src/service/batch_router.h"
#include "src/util/bits.h"
#include "src/util/serialize.h"

namespace prefixfilter {
namespace {

// Bound on constructor/snapshot capacities so the per-shard capacity math
// stays inside the exactly-representable double range (the double->uint64
// cast in PerShardCapacity is undefined past 2^64; crafted snapshot fields
// must be rejected, not cast).
constexpr uint64_t kMaxCapacity = uint64_t{1} << 48;
// Balls-into-bins slack: per-shard capacity is
//   n/N + kHeadroomStddevs * sqrt(n * (1/N) * (1 - 1/N)) + 16.
constexpr double kHeadroomStddevs = 4.0;
constexpr uint8_t kSnapshotVersion = 2;
// Name() is "SHARD<n>" followed by this.
constexpr char kShardSuffix[] = "[PF[TC]]";

uint64_t PerShardCapacity(uint64_t capacity, uint32_t num_shards) {
  const double p = 1.0 / num_shards;
  const double mean = static_cast<double>(capacity) * p;
  const double stddev =
      std::sqrt(static_cast<double>(capacity) * p * (1.0 - p));
  return static_cast<uint64_t>(std::ceil(mean + kHeadroomStddevs * stddev)) +
         16;
}

// One router per thread, shared by the batch query and insert paths (its
// scratch is fixed, about 24 KB; see batch_router.h).  Allocated on the
// thread's first routed batch: a thread_local BatchRouter would sit in the
// static TLS block that every thread of the process zeroes at start.
BatchRouter& ThreadLocalRouter() {
  thread_local const std::unique_ptr<BatchRouter> router =
      std::make_unique<BatchRouter>();
  return *router;
}

}  // namespace

ShardedFilter::ShardedFilter(uint64_t capacity, uint32_t num_shards,
                             uint64_t seed)
    : capacity_(capacity),
      seed_(seed),
      num_shards_(num_shards),
      shard_bits_(num_shards_ == 1 ? 0 : HighestSetBit64(num_shards_)),
      shard_salt_(Mix64(seed ^ 0x5a4d9b4cf1e273a1ULL)),
      per_shard_capacity_(PerShardCapacity(capacity, num_shards_)) {
  shards_.reserve(num_shards_);
}

std::unique_ptr<ShardedFilter> ShardedFilter::Make(
    uint64_t capacity, ShardedFilterOptions options) {
  if (options.num_shards == 0 || options.num_shards > kMaxShards ||
      capacity == 0 || capacity > kMaxCapacity) {
    return nullptr;
  }
  auto filter = std::unique_ptr<ShardedFilter>(new ShardedFilter(
      capacity, static_cast<uint32_t>(NextPow2(options.num_shards)),
      options.seed));
  PrefixFilterOptions shard_options;
  for (uint32_t s = 0; s < filter->num_shards_; ++s) {
    // Independent per-shard seeds: each shard is a fully independent filter
    // (independent hash functions), as if it served its slice alone.
    shard_options.seed = filter->seed_ ^ Mix64(filter->shard_salt_ + s);
    filter->shards_.push_back(std::make_unique<Shard>(
        ShardFilter(filter->per_shard_capacity_, shard_options)));
  }
  return filter;
}

bool ShardedFilter::ParseName(const std::string& name, uint32_t* num_shards) {
  constexpr char kPrefix[] = "SHARD";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.rfind(kPrefix, 0) != 0) return false;
  size_t i = kPrefixLen;
  // A leading zero ("SHARD016") would parse to a count whose Name() is
  // spelled differently, so the name could not round-trip.
  if (i < name.size() && name[i] == '0') return false;
  uint64_t shards = 0;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    shards = shards * 10 + static_cast<uint64_t>(name[i] - '0');
    if (shards > kMaxShards) return false;
    ++i;
  }
  // Power-of-two counts only: rounding here would make Name() differ from
  // the configuration name the filter was requested by, silently breaking
  // every registry keyed on the factory name.
  if (i == kPrefixLen || shards == 0 || (shards & (shards - 1)) != 0 ||
      name.compare(i, std::string::npos, kShardSuffix) != 0) {
    return false;
  }
  *num_shards = static_cast<uint32_t>(shards);
  return true;
}

bool ShardedFilter::Insert(uint64_t key) {
  Shard& shard = *shards_[ShardOf(key)];
  MutexLock guard(shard.mutex);
  ++shard.stats.inserts;
  if (shard.filter.Insert(key)) return true;
  ++shard.stats.insert_failures;
  return false;
}

bool ShardedFilter::Contains(uint64_t key) const {
  Shard& shard = *shards_[ShardOf(key)];
  MutexLock guard(shard.mutex);
  ++shard.stats.queries;
  const bool hit = shard.filter.Contains(key);
  shard.stats.hits += hit;
  return hit;
}

void ShardedFilter::ContainsBatch(const uint64_t* keys, size_t count,
                                  uint8_t* out) const {
  // Scalar fast path: a 1-key "batch" routes inline — counting-sorting a
  // single key would pay the router's full per-batch setup (the ~35-40%
  // single-thread overhead the PR-2 sweep flagged).
  if (count == 1) {
    out[0] = Contains(keys[0]) ? 1 : 0;
    return;
  }
  // Single-shard fast path: every key lands in shard 0, so the grouping
  // passes are pure overhead — drain the batch straight through the shard's
  // prefetching ContainsBatch under one lock.
  if (shard_bits_ == 0) {
    QueryShardIndexed(0, keys, IdentityIndex{}, count, out);
    return;
  }
  // Per-thread fixed scratch: callers hammering the batch path (service
  // workers, benches) pay no per-call allocations.
  ThreadLocalRouter().Route(*this, keys, count, out);
}

void ShardedFilter::QueryShard(uint32_t shard_index, const uint64_t* keys,
                               const uint16_t* index, size_t count,
                               uint8_t* out) const {
  QueryShardIndexed(shard_index, keys, index, count, out);
}

template <typename Index>
void ShardedFilter::QueryShardIndexed(uint32_t shard_index,
                                      const uint64_t* keys, const Index& index,
                                      size_t count, uint8_t* out) const {
  // Traced requests record one span per shard group probed, including the
  // wait for the shard lock (lock contention is exactly what a slow-request
  // timeline needs to show).  Picked up through the thread-local so the
  // AnyFilter interface stays trace-free; constant-nullptr when PF_OBS=OFF.
  obs::ActiveTrace* trace = obs::CurrentTrace();
  const uint64_t probe_start_ns = trace != nullptr ? obs::NowNanos() : 0;
  {
    Shard& shard = *shards_[shard_index];
    MutexLock guard(shard.mutex);
    shard.stats.queries += count;
    shard.stats.hits += shard.filter.ContainsIndexed(keys, index, count, out);
  }
  if (trace != nullptr) {
    trace->AddSpan(obs::TraceStage::kShardProbe, probe_start_ns,
                   obs::NowNanos(),
                   (static_cast<uint64_t>(shard_index) << 32) |
                       static_cast<uint64_t>(count & 0xffffffffu));
  }
}

uint64_t ShardedFilter::InsertShard(uint32_t shard_index,
                                    const uint64_t* keys,
                                    const uint16_t* index, size_t count) {
  Shard& shard = *shards_[shard_index];
  MutexLock guard(shard.mutex);
  shard.stats.inserts += count;
  const uint64_t failures = shard.filter.InsertIndexed(keys, index, count);
  shard.stats.insert_failures += failures;
  return failures;
}

void ShardedFilter::StartInsert(const uint64_t* keys, size_t count,
                                InsertJob* job) {
  job->keys_ = keys;
  job->count_ = count;
  job->next_key_ = 0;
  job->chunk_ = nullptr;
  job->groups_.clear();
  job->next_group_ = 0;
  job->next_indexed_ = 0;
  job->failures_ = 0;
}

bool ShardedFilter::InsertSlice(InsertJob* job, size_t budget) {
  while (budget > 0 && !job->done()) {
    if (job->next_group_ == job->groups_.size()) {
      job->chunk_ = job->keys_ + job->next_key_;
      const size_t n = std::min(kRouteChunkKeys, job->count_ - job->next_key_);
      job->next_key_ += n;
      job->index_.resize(n);
      job->groups_.clear();
      job->next_group_ = 0;
      job->next_indexed_ = 0;
      uint16_t* index = job->index_.data();
      ThreadLocalRouter().GroupChunk(
          *this, job->chunk_, n, index,
          [job, index](uint32_t shard, const uint16_t* shard_index,
                       size_t shard_count) {
            job->groups_.push_back(
                {shard,
                 static_cast<size_t>(shard_index - index) + shard_count});
          });
    }
    const InsertJob::Group& group = job->groups_[job->next_group_];
    const size_t n = std::min(budget, group.end - job->next_indexed_);
    job->failures_ +=
        InsertShard(group.shard, job->chunk_,
                    job->index_.data() + job->next_indexed_, n);
    job->next_indexed_ += n;
    budget -= n;
    if (job->next_indexed_ == group.end) ++job->next_group_;
  }
  return job->done();
}

uint64_t ShardedFilter::InsertBatch(const uint64_t* keys, size_t count) {
  // Mirrors the ContainsBatch scalar fast path.
  if (count == 1) return Insert(keys[0]) ? 0 : 1;
  // Per-thread job, like the router: no per-call allocation once warm.
  thread_local InsertJob job;
  StartInsert(keys, count, &job);
  InsertSlice(&job, count);
  return job.failures();
}

bool ShardedFilter::SerializeTo(std::vector<uint8_t>* out) const {
  WriteFilterEnvelope(Name(), out);
  ByteWriter w(out);
  w.U8(kSnapshotVersion);
  w.U32(num_shards_);
  w.U64(capacity_);
  w.U64(seed_);
  std::vector<uint8_t> blob;
  for (const auto& shard : shards_) {
    blob.clear();
    MutexLock guard(shard->mutex);
    shard->filter.SerializeTo(&blob);
    w.U64(shard->stats.inserts);
    w.U64(shard->stats.insert_failures);
    w.U64(shard->stats.queries);
    w.U64(shard->stats.hits);
    w.U64(blob.size());
    w.Raw(blob.data(), blob.size());
  }
  return true;
}

std::unique_ptr<ShardedFilter> ShardedFilter::Deserialize(const uint8_t* data,
                                                          size_t len) {
  ByteReader r(data, len);
  uint32_t named_shards = 0;
  if (r.U32() != kAnyFilterMagic || r.U8() != 1 ||
      !ParseName(r.Str(), &named_shards) || r.U8() != kSnapshotVersion) {
    return nullptr;
  }
  const uint32_t num_shards = r.U32();
  const uint64_t capacity = r.U64();
  const uint64_t seed = r.U64();
  // The payload geometry must agree with the shard count the envelope name
  // was filed under.
  if (!r.ok() || capacity == 0 || capacity > kMaxCapacity ||
      num_shards != named_shards) {
    return nullptr;
  }
  auto filter = std::unique_ptr<ShardedFilter>(
      new ShardedFilter(capacity, num_shards, seed));
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardStats stats;
    stats.inserts = r.U64();
    stats.insert_failures = r.U64();
    stats.queries = r.U64();
    stats.hits = r.U64();
    const uint64_t blob_len = r.U64();
    if (!r.ok() || blob_len > r.remaining()) return nullptr;
    auto shard_filter =
        ShardFilter::Deserialize(data + (len - r.remaining()), blob_len);
    // A shard of another geometry is corruption, not a shard.
    if (!shard_filter.has_value() ||
        shard_filter->capacity() != filter->per_shard_capacity_) {
      return nullptr;
    }
    filter->shards_.push_back(std::make_unique<Shard>(std::move(*shard_filter)));
    {
      // Unpublished filter: the lock is uncontended, and taking it satisfies
      // the guarded_by proof without an analysis exception.
      Shard& shard = *filter->shards_.back();
      MutexLock guard(shard.mutex);
      shard.stats = stats;
    }
    r.Skip(blob_len);
  }
  if (!r.ok() || r.remaining() != 0) return nullptr;
  return filter;
}

size_t ShardedFilter::SpaceBytes() const {
  // Takes each shard lock: shard.filter is a guarded member.  PF[TC]'s
  // SpaceBytes() reads construction-time geometry, so nothing races today,
  // but an unlocked walk is exactly the kind of exception the analysis
  // exists to forbid.  See ShardedFilter.SpaceBytesConcurrentWithInserts.
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock guard(shard->mutex);
    total += shard->filter.SpaceBytes();
  }
  return total;
}

std::string ShardedFilter::Name() const {
  return "SHARD" + std::to_string(num_shards_) + kShardSuffix;
}

ShardedFilter::~ShardedFilter() {
  // Must detach before the shards the collector reads are destroyed;
  // RemoveCollector blocks out any in-flight Collect().
  if (registry_ != nullptr) registry_->RemoveCollector(collector_id_);
}

void ShardedFilter::EnableMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr || registry_ != nullptr) return;
  registry_ = registry;
  // Scrape-time view over the ShardStats already maintained under the shard
  // locks — per-shard occupancy (keys the shard absorbed), insert failures,
  // probe counts, and hits cost the hot path nothing extra.  These are the
  // service's only key and failure totals.
  collector_id_ = registry->AddCollector(
      [this](std::vector<obs::MetricSample>* samples) {
        for (uint32_t s = 0; s < num_shards_; ++s) {
          const ShardStats stats = shard_stats(s);
          const std::string shard_label = std::to_string(s);
          const auto emit = [&](const char* name, obs::MetricKind kind,
                                uint64_t value) {
            obs::MetricSample sample;
            sample.name = name;
            sample.labels = {{"shard", shard_label}};
            sample.kind = kind;
            sample.value = static_cast<int64_t>(value);
            samples->push_back(std::move(sample));
          };
          emit("shard.occupancy.keys", obs::MetricKind::kGauge,
               stats.inserts - stats.insert_failures);
          emit("shard.insert.failures", obs::MetricKind::kCounter,
               stats.insert_failures);
          emit("shard.probes", obs::MetricKind::kCounter, stats.queries);
          emit("shard.hits", obs::MetricKind::kCounter, stats.hits);
        }
      });
}

ShardStats ShardedFilter::shard_stats(uint32_t shard_index) const {
  const Shard& shard = *shards_[shard_index];
  MutexLock guard(shard.mutex);
  return shard.stats;
}

ShardStats ShardedFilter::TotalStats() const {
  ShardStats total;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const ShardStats stats = shard_stats(s);
    total.inserts += stats.inserts;
    total.insert_failures += stats.insert_failures;
    total.queries += stats.queries;
    total.hits += stats.hits;
  }
  return total;
}

}  // namespace prefixfilter
