#include "src/service/filter_service.h"

#include <utility>

namespace prefixfilter {

FilterService::FilterService(std::shared_ptr<ShardedFilter> filter,
                             FilterServiceOptions options)
    : filter_(std::move(filter)),
      num_threads_(options.num_threads),
      registry_(options.registry != nullptr
                    ? options.registry
                    : &obs::MetricsRegistry::Global()),
      queue_depth_gauge_(registry_->GetGauge("service.queue.depth")),
      queue_wait_hist_(registry_->GetHistogram("service.queue.wait.ns")),
      insert_exec_hist_(
          registry_->GetHistogram("service.exec.ns", {{"op", "insert"}})),
      query_exec_hist_(
          registry_->GetHistogram("service.exec.ns", {{"op", "query"}})),
      insert_batch_keys_hist_(
          registry_->GetHistogram("service.batch.keys", {{"op", "insert"}})),
      query_batch_keys_hist_(
          registry_->GetHistogram("service.batch.keys", {{"op", "query"}})) {
  filter_->EnableMetrics(registry_);
  workers_.reserve(num_threads_);
  for (uint32_t t = 0; t < num_threads_; ++t) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

FilterService::~FilterService() { Stop(); }

void FilterService::QueryBatchAsync(std::vector<uint64_t> keys,
                                    QueryCallback done,
                                    std::shared_ptr<obs::ActiveTrace> trace) {
  Request request;
  request.keys = std::move(keys);
  request.done = std::move(done);
  request.trace = std::move(trace);
  if (num_threads_ == 0) {
    Execute(request);
    return;
  }
  request.enqueue_ns = obs::NowNanos();
  bool queued = false;
  {
    MutexLock lock(mutex_);
    if (!stopping_) {
      queue_.push_back(std::move(request));
      queued = true;
    }
  }
  if (!queued) {
    // The pool is gone; degrade to synchronous execution rather than
    // dropping the batch or deadlocking the submitter.
    Execute(request);
    return;
  }
  queue_depth_gauge_->Add(1);
  queue_nonempty_.NotifyOne();
}

void FilterService::Execute(Request& request) {
  std::vector<uint8_t> out(request.keys.size());
  QueryBatchSync(request.keys.data(), request.keys.size(), out.data(),
                 request.trace.get());
  request.done(std::move(out));
}

uint64_t FilterService::InsertBatchSync(const uint64_t* keys, size_t count) {
  obs::ScopedLatency timer(insert_exec_hist_);
  insert_batch_keys_hist_->Record(count);
  return filter_->InsertBatch(keys, count);
}

void FilterService::StartInsert(const uint64_t* keys, size_t count,
                                InsertJob* job) {
  ShardedFilter::StartInsert(keys, count, &job->sharded);
  job->exec_ns = 0;
}

bool FilterService::InsertSlice(InsertJob* job, size_t budget) {
  const uint64_t start_ns = obs::NowNanos();
  const bool done = filter_->InsertSlice(&job->sharded, budget);
  job->exec_ns += obs::NowNanos() - start_ns;
  if (done) {
    insert_exec_hist_->Record(job->exec_ns);
    insert_batch_keys_hist_->Record(job->sharded.size());
  }
  return done;
}

void FilterService::QueryBatchSync(const uint64_t* keys, size_t count,
                                   uint8_t* out, obs::ActiveTrace* trace) {
  if (query_fault_hook_armed_.load(std::memory_order_acquire)) {
    std::function<void(const uint64_t*, size_t)> hook;
    {
      MutexLock lock(query_fault_hook_mutex_);
      hook = query_fault_hook_;
    }
    if (hook) hook(keys, count);
  }
  obs::ScopedLatency timer(query_exec_hist_);
  query_batch_keys_hist_->Record(count);
  const uint64_t exec_start_ns = trace != nullptr ? obs::NowNanos() : 0;
  {
    // Deep layers (ShardedFilter's per-shard probes) pick the trace up via
    // the thread-local; the shard-probe spans land inside the exec span.
    obs::ScopedCurrentTrace current(trace);
    filter_->ContainsBatch(keys, count, out);
  }
  if (trace != nullptr) {
    trace->AddSpan(obs::TraceStage::kExec, exec_start_ns, obs::NowNanos());
  }
}

void FilterService::WorkerLoop() {
  for (;;) {
    Request request;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) queue_nonempty_.Wait(mutex_);
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      request = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    queue_depth_gauge_->Add(-1);
    const uint64_t picked_up_ns = obs::NowNanos();
    queue_wait_hist_->Record(picked_up_ns - request.enqueue_ns);
    if (request.trace != nullptr) {
      request.trace->AddSpan(obs::TraceStage::kQueueWait, request.enqueue_ns,
                             picked_up_ns);
    }
    Execute(request);
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.NotifyAll();
    }
  }
}

void FilterService::Drain() {
  if (num_threads_ == 0) return;
  MutexLock lock(mutex_);
  while (!queue_.empty() || in_flight_ != 0) idle_.Wait(mutex_);
}

void FilterService::SetQueryFaultHookForTesting(
    std::function<void(const uint64_t* keys, size_t count)> hook) {
  MutexLock lock(query_fault_hook_mutex_);
  query_fault_hook_ = std::move(hook);
  query_fault_hook_armed_.store(query_fault_hook_ != nullptr,
                                std::memory_order_release);
}

void FilterService::Stop() {
  {
    // Idempotent: on a second call workers_ is already empty and the joins
    // below are no-ops.
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  queue_nonempty_.NotifyAll();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Workers exit only once the queue is empty, so every accepted batch has
  // completed by the time Stop() returns.
}

std::shared_ptr<FilterService> MakeFilterService(
    const std::string& filter_name, uint64_t capacity,
    FilterServiceOptions options, uint64_t seed) {
  ShardedFilterOptions sharded;
  sharded.seed = seed;
  if (!ShardedFilter::ParseName(filter_name, &sharded.num_shards)) {
    return nullptr;
  }
  std::shared_ptr<ShardedFilter> filter =
      ShardedFilter::Make(capacity, sharded);
  if (filter == nullptr) return nullptr;
  return std::make_shared<FilterService>(std::move(filter), options);
}

}  // namespace prefixfilter
