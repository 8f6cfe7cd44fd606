// Thread-pool front-end over a ShardedFilter: the membership service the
// ROADMAP's north star asks for (many clients, batched traffic, async).
//
// Clients submit whole batches (the unit the paper's evaluation §7.3 uses).
// Inserts and queries from a thread that may block run synchronously on the
// caller (InsertBatchSync, QueryBatchSync); a caller that must not wait on
// the probe (the network event loop) hands a query batch to a fixed pool of
// workers with QueryBatchAsync and gets the answers through a callback.  Every
// batch goes through ShardedFilter's thread-local BatchRouter (fixed ~24 KB
// scratch), so it pays one lock acquisition per touched shard per 4096-key
// chunk and rides the prefetching batch path inside each shard, which reads
// the shard's keys and writes their answers in place through an index list.
// The shard locks are the only locks a batch takes: the service adds none
// of its own around the filter.
//
// The request queue has no bound of its own and QueryBatchAsync never waits,
// so an event loop never blocks on the pool; the submitter bounds what it
// queues (see MembershipServer::kMaxConnections).  num_threads == 0
// configures a synchronous service (batches execute on the submitting
// thread) — useful for tests and single-core deployments.
//
// Snapshot/restore: filter().SerializeTo() writes a restorable image of all
// shards, one shard at a time under that shard's lock, so every insert that
// returned before the call is in it (ByteWriter wire format);
// ShardedFilter::Deserialize is the inverse.  The snapshot is a plain byte
// vector: persist it next to your data like an LSM run's filter block (§1).
#ifndef PREFIXFILTER_SRC_SERVICE_FILTER_SERVICE_H_
#define PREFIXFILTER_SRC_SERVICE_FILTER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/sharded_filter.h"
#include "src/util/thread_annotations.h"

namespace prefixfilter {

struct FilterServiceOptions {
  // Worker threads draining the request queue; 0 = synchronous execution on
  // the submitting thread.
  uint32_t num_threads = 4;
  // Metrics registry the service (and its ShardedFilter) instruments into;
  // nullptr = the process-wide obs::MetricsRegistry::Global().  Tests pass a
  // local registry for isolation.
  obs::MetricsRegistry* registry = nullptr;
};

class FilterService {
 public:
  explicit FilterService(std::shared_ptr<ShardedFilter> filter,
                         FilterServiceOptions options = {});
  ~FilterService();

  FilterService(const FilterService&) = delete;
  FilterService& operator=(const FilterService&) = delete;

  // Completion callback for QueryBatchAsync: one 0/1 byte per key, in the
  // order submitted.  Invoked exactly once, on the worker thread that
  // executed the batch (or inline on the submitting thread when the service
  // is synchronous or stopping) — keep it cheap and non-blocking; the
  // network event loop hands completions back to itself through a wakeup fd.
  using QueryCallback = std::function<void(std::vector<uint8_t> results)>;

  // Enqueues a query batch for the worker pool, so a submitter that must not
  // wait on the probe (an event loop) can decouple decode from filter
  // execution.  Never waits; see MembershipServer::kMaxConnections.
  // A non-null `trace` rides along: the worker records queue-wait and exec
  // spans into it (plus per-shard probe spans via the thread-local
  // CurrentTrace()) before the callback fires.
  void QueryBatchAsync(std::vector<uint64_t> keys, QueryCallback done,
                       std::shared_ptr<obs::ActiveTrace> trace = nullptr)
      PF_EXCLUDES(mutex_);

  // Synchronous batch entry points for callers that already own a thread
  // (the network event loop hands decoded frames straight here): they bypass
  // the request queue but feed the same histograms and ride the same
  // BatchRouter path as queued batches.  Safe concurrently with queued
  // traffic.  InsertBatchSync returns the number of keys the filter failed
  // to absorb (0 on full success).
  uint64_t InsertBatchSync(const uint64_t* keys, size_t count);

  // The same insert applied in slices, for a caller that must bound how long
  // one call runs (the network event loop applies a large INSERT_BATCH
  // between polls).  StartInsert points `job` at the keys, which must stay
  // alive until the batch lands; each InsertSlice applies up to `budget`
  // more of them (ShardedFilter::InsertSlice) and returns true once the
  // whole batch has landed, with job->sharded.failures() the keys the filter
  // failed to absorb.  The insert histograms record once per batch, when it
  // lands: service.exec.ns as the sum of the slice times.  A snapshot taken
  // between two slices holds some of the batch's keys; a landed batch is
  // whole in every later image.
  struct InsertJob {
    ShardedFilter::InsertJob sharded;
    uint64_t exec_ns = 0;
  };
  static void StartInsert(const uint64_t* keys, size_t count, InsertJob* job);
  bool InsertSlice(InsertJob* job, size_t budget);
  // A non-null `trace` receives the exec span and (via CurrentTrace()) the
  // per-shard probe spans recorded while the batch runs.
  void QueryBatchSync(const uint64_t* keys, size_t count, uint8_t* out,
                      obs::ActiveTrace* trace = nullptr);

  // Blocks until every previously submitted batch has completed.
  void Drain() PF_EXCLUDES(mutex_);

  const ShardedFilter& filter() const { return *filter_; }
  uint32_t num_threads() const { return num_threads_; }

  // Completes queued work and joins the workers.  Idempotent; batches
  // submitted after Stop() execute synchronously.
  void Stop() PF_EXCLUDES(mutex_);

  // Test-only fault injection: when set, the hook runs on the executing
  // thread at the top of every query batch (before the filter is touched),
  // seeing the batch's keys.  Tests use it to delay batches that contain a
  // marker key so out-of-order completion and backpressure paths become
  // deterministic.  Guarded by a mutex on both sides, so it may be installed
  // or cleared while traffic is flowing.  Pass nullptr to clear.
  void SetQueryFaultHookForTesting(
      std::function<void(const uint64_t* keys, size_t count)> hook)
      PF_EXCLUDES(query_fault_hook_mutex_);

 private:
  // One queued QueryBatchAsync call.
  struct Request {
    std::vector<uint64_t> keys;
    QueryCallback done;
    // Enqueue timestamp feeding the service.queue.wait.ns histogram.
    uint64_t enqueue_ns = 0;
    // Non-null when the request is traced: the worker records queue-wait,
    // exec, and shard-probe spans into it.  shared_ptr because the network
    // layer keeps its own reference until the completion drains.
    std::shared_ptr<obs::ActiveTrace> trace;
  };

  void Execute(Request& request);
  void WorkerLoop() PF_EXCLUDES(mutex_);

  std::shared_ptr<ShardedFilter> filter_;
  uint32_t num_threads_;

  Mutex mutex_;
  CondVar queue_nonempty_;
  CondVar idle_;
  std::deque<Request> queue_ PF_GUARDED_BY(mutex_);
  size_t in_flight_ PF_GUARDED_BY(mutex_) = 0;
  bool stopping_ PF_GUARDED_BY(mutex_) = false;
  // Written by the constructor before any concurrency exists, then read only
  // by Stop() after the stopping_ handshake — not guarded by mutex_.
  std::vector<std::thread> workers_;

  // Test-only query fault hook (see SetQueryFaultHookForTesting).  The
  // atomic flag keeps the disabled hot path to one relaxed load; the mutex
  // makes install/clear safe against in-flight batches.
  std::atomic<bool> query_fault_hook_armed_{false};
  mutable Mutex query_fault_hook_mutex_;
  std::function<void(const uint64_t*, size_t)> query_fault_hook_
      PF_GUARDED_BY(query_fault_hook_mutex_);

  // Observability: histograms/gauges resolved once at construction, updated
  // lock-free on the request path.  The service keeps no counters of its
  // own: key and failure totals live in the shards (ShardStats), batch
  // counts and key sums in the service.batch.keys{op} histograms.
  obs::MetricsRegistry* registry_;
  obs::Gauge* queue_depth_gauge_;
  obs::LatencyHistogram* queue_wait_hist_;
  obs::LatencyHistogram* insert_exec_hist_;
  obs::LatencyHistogram* query_exec_hist_;
  obs::LatencyHistogram* insert_batch_keys_hist_;
  obs::LatencyHistogram* query_batch_keys_hist_;
};

// Builds a FilterService over a ShardedFilter named "SHARD<n>[PF[TC]]" (n a
// power of two <= 4096), the name STATS reports back as filter_name.  The
// shared bootstrap of the membership-server example, the network load
// generator and perfbench — one spelling of the name-to-service rule.
// Returns nullptr for any other name.
std::shared_ptr<FilterService> MakeFilterService(
    const std::string& filter_name, uint64_t capacity,
    FilterServiceOptions options = {},
    uint64_t seed = ShardedFilterOptions{}.seed);

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_SERVICE_FILTER_SERVICE_H_
