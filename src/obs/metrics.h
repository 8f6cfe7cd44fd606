// Low-overhead in-process metrics: counters, gauges, latency histograms,
// and the process-wide registry behind the STATS / /metrics exposition.
//
// Design constraints (ROADMAP: production-scale membership service):
//  * Hot-path updates must be cheap enough to stay always-on — a counter
//    increment is one relaxed fetch_add on a thread-striped cache line, a
//    histogram record is one array-index computation plus two relaxed
//    fetch_adds.  No locks, no allocation, no syscalls on the update path.
//  * Reads (scrapes) are rare and may be linear: Value() sums the stripes,
//    Snapshot() walks the bucket array.  Scrape-time cost never shows up in
//    request latency.
//  * Histograms are fixed-footprint and mergeable: log-linear HDR-style
//    buckets (16 sub-buckets per power-of-two octave, exact below 16) give
//    a bounded ~6% relative bucket error at every magnitude, so p50..p999
//    extraction works identically on live instruments, wire-decoded
//    snapshots, and merged snapshots.
//
// Compile-out: configuring with -DPF_OBS=OFF defines PF_OBS_DISABLED and
// turns every update into an inline no-op (NowNanos stops reading the
// clock), which is how the "within 3% of instrumentation compiled out"
// acceptance bound is measured.  obs::kEnabled lets tests and exposition
// paths skip themselves in that configuration.
#ifndef PREFIXFILTER_SRC_OBS_METRICS_H_
#define PREFIXFILTER_SRC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/thread_annotations.h"

namespace prefixfilter::obs {

#ifdef PF_OBS_DISABLED
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

// Monotonic nanoseconds for latency measurement.  Returns 0 when the
// subsystem is compiled out so disabled builds do not pay the clock read.
inline uint64_t NowNanos() {
#ifdef PF_OBS_DISABLED
  return 0;
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

namespace internal {
// Stable per-thread stripe index: threads are assigned round-robin at first
// use, so up to kStripes concurrent writers touch distinct cache lines.
size_t ThreadStripe();
}  // namespace internal

// Monotonically increasing event count.  Thread-striped: concurrent writers
// land on distinct cache lines (modulo thread count), readers sum on demand.
class Counter {
 public:
  static constexpr size_t kStripes = 16;  // power of two

  void Add(uint64_t delta = 1) {
#ifndef PF_OBS_DISABLED
    stripes_[internal::ThreadStripe() & (kStripes - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };
  Stripe stripes_[kStripes];
};

// Instantaneous signed level (queue depth, active connections).  A single
// atomic: gauges move far less often than counters and must read exactly.
class Gauge {
 public:
  void Add(int64_t delta) {
#ifndef PF_OBS_DISABLED
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  void Set(int64_t value) {
#ifndef PF_OBS_DISABLED
    value_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Point-in-time copy of a histogram, detached from its atomics: mergeable,
// wire-encodable, and the unit percentile extraction operates on.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when count == 0
  uint64_t max = 0;
  // Sparse (bucket index, count) pairs in ascending index order.
  std::vector<std::pair<uint32_t, uint64_t>> buckets;
  // Best-effort trace exemplars: the most recent (value, trace id) pair per
  // octave that went through RecordWithExemplar — the jump-off point from a
  // histogram's tail to the /traces timeline that produced it.  NOT part of
  // the STATS wire encoding; the Prometheus text exposition renders them as
  // comments.
  struct Exemplar {
    uint64_t value = 0;
    uint64_t trace_id = 0;
  };
  std::vector<Exemplar> exemplars;

  void Merge(const HistogramSnapshot& other);
  // Value at quantile q in [0, 1]: the upper edge of the bucket holding the
  // ceil(q * count)-th observation, clamped into [min, max].  Exact for
  // values < 16; within one sub-bucket (~6%) above.  0 when empty.
  double Percentile(double q) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

// Fixed-footprint log-linear histogram of non-negative 64-bit values
// (nanoseconds by convention).  Values 0..15 get exact unit buckets; above
// that each power-of-two octave splits into 16 sub-buckets, out to ~2^43
// (~2.4 hours in ns); larger values clamp into the last bucket.
class LatencyHistogram {
 public:
  static constexpr uint32_t kSubBits = 4;
  static constexpr uint32_t kSubBuckets = 1u << kSubBits;  // 16
  static constexpr uint32_t kOctaves = 39;                 // exp 0..38
  static constexpr uint32_t kNumBuckets = kSubBuckets * (kOctaves + 1);  // 640

  static uint32_t BucketIndex(uint64_t value);
  // Smallest value mapping to bucket `index` (indices >= kNumBuckets clamp).
  static uint64_t BucketLowerBound(uint32_t index);
  // Number of distinct values the bucket covers.
  static uint64_t BucketWidth(uint32_t index);

  void Record(uint64_t value) {
#ifndef PF_OBS_DISABLED
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    // Best-effort extrema: a lost CAS race under-reports by one sample at
    // worst, which is fine for a diagnostic min/max.
    uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
#else
    (void)value;
#endif
  }

  // Record() plus an exemplar: remembers (value, trace_id) in the octave
  // cell the value lands in, so a scrape can point from a latency bucket to
  // the retained trace that produced it.  Best-effort under concurrency —
  // two racing writers may pair one's value with the other's trace id; an
  // exemplar is a debugging pointer, not an accounting record.
  void RecordWithExemplar(uint64_t value, uint64_t trace_id) {
#ifndef PF_OBS_DISABLED
    Record(value);
    ExemplarCell& cell = exemplars_[BucketIndex(value) >> kSubBits];
    cell.value.store(value, std::memory_order_relaxed);
    cell.trace_id.store(trace_id, std::memory_order_relaxed);
#else
    (void)value;
    (void)trace_id;
#endif
  }

  HistogramSnapshot Snapshot() const;

 private:
  // One exemplar cell per octave (the 0..15 unit buckets share cell 0).
  static constexpr uint32_t kExemplarCells = kOctaves + 1;

  struct ExemplarCell {
    std::atomic<uint64_t> value{0};
    std::atomic<uint64_t> trace_id{0};
  };

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  ExemplarCell exemplars_[kExemplarCells];
};

// Records NowNanos() elapsed between construction and destruction into a
// histogram; a null histogram (instrumentation detached) records nothing.
class ScopedLatency {
 public:
  explicit ScopedLatency(LatencyHistogram* h) : h_(h), start_(NowNanos()) {}
  ~ScopedLatency() {
    if (h_ != nullptr) h_->Record(NowNanos() - start_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  LatencyHistogram* h_;
  uint64_t start_;
};

enum class MetricKind : uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

// One scraped series: a dotted name, sorted labels, and either a scalar
// value (counter/gauge) or a histogram snapshot.
struct MetricSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;         // counter / gauge
  HistogramSnapshot hist;    // histogram
};

// Process-wide instrument directory.  Get* registers on first use and
// returns the same instrument for the same (kind, name, labels) thereafter
// (instruments are never destroyed, so returned pointers stay valid for the
// registry's lifetime — callers cache them at construction and update
// lock-free).  Collectors are callbacks evaluated only at scrape time, the
// zero-hot-path-cost way to expose counters a subsystem already maintains
// (ShardStats, the server's per-loop counters).
class MetricsRegistry {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;
  using CollectFn = std::function<void(std::vector<MetricSample>*)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, Labels labels = {});
  Gauge* GetGauge(const std::string& name, Labels labels = {});
  LatencyHistogram* GetHistogram(const std::string& name, Labels labels = {});

  // Registers a scrape-time callback; returns an id for RemoveCollector.
  // The callback must not call back into the registry.  Owners MUST remove
  // their collector before the state it reads dies (destructors do).
  uint64_t AddCollector(CollectFn fn) PF_EXCLUDES(mutex_);
  void RemoveCollector(uint64_t id) PF_EXCLUDES(mutex_);

  // Evaluates every instrument and collector into one sorted sample list.
  // Duplicate (name, labels, kind) series — e.g. two service instances
  // sharing the registry — are aggregated (sums for scalars, bucket merge
  // for histograms).  Empty when the subsystem is compiled out.
  std::vector<MetricSample> Collect() const PF_EXCLUDES(mutex_);

  // The default process-wide registry.
  static MetricsRegistry& Global();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Entry& GetEntry(const std::string& name, Labels&& labels, MetricKind kind)
      PF_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  // key: kind + name + sorted labels.  Entries are created under the lock
  // but the instruments they own are updated lock-free (atomics); the lock
  // guards the maps, not the instrument payloads.
  std::map<std::string, Entry> entries_ PF_GUARDED_BY(mutex_);
  std::map<uint64_t, CollectFn> collectors_ PF_GUARDED_BY(mutex_);
  uint64_t next_collector_id_ PF_GUARDED_BY(mutex_) = 1;
};

// Finds a sample by name (and optionally one label pair) in a Collect()
// result; nullptr when absent.  Shared by tests, pf_stat, and the loadgen.
const MetricSample* FindSample(const std::vector<MetricSample>& samples,
                               const std::string& name,
                               const std::string& label_key = std::string(),
                               const std::string& label_value = std::string());

}  // namespace prefixfilter::obs

#endif  // PREFIXFILTER_SRC_OBS_METRICS_H_
