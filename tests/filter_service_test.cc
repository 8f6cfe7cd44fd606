// Tests for the thread-pool filter service: futures, concurrent clients,
// backpressure-safe shutdown, stats, snapshot/restore, and the LSM table's
// shared-service integration.
#include "src/service/filter_service.h"

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/lsm/table.h"
#include "src/util/random.h"

namespace prefixfilter {
namespace {

std::shared_ptr<ShardedFilter> MakeSharded(uint64_t capacity, uint64_t seed,
                                           uint32_t shards = 16) {
  ShardedFilterOptions options;
  options.num_shards = shards;
  options.seed = seed;
  auto filter = ShardedFilter::Make(capacity, options);
  EXPECT_NE(filter, nullptr);
  return std::shared_ptr<ShardedFilter>(filter.release());
}

TEST(FilterService, InsertAndQueryBatchesThroughFutures) {
  const uint64_t n = 100000;
  obs::MetricsRegistry registry;  // local: batch histograms count only ours
  FilterServiceOptions options;
  options.registry = &registry;
  FilterService service(MakeSharded(n, 191), options);
  const auto keys = RandomKeys(n, 192);

  std::vector<std::future<uint64_t>> inserts;
  const size_t batch = 10000;
  for (size_t base = 0; base < keys.size(); base += batch) {
    inserts.push_back(service.InsertBatch(std::vector<uint64_t>(
        keys.begin() + base, keys.begin() + base + batch)));
  }
  for (auto& f : inserts) EXPECT_EQ(f.get(), 0u);

  // Mixed stream: even positions positive, odd almost-surely negative.
  std::vector<uint64_t> stream = RandomKeys(50000, 193);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];
  auto result = service.QueryBatch(stream).get();
  ASSERT_EQ(result.size(), 50000u);
  uint64_t negatives_hit = 0;
  for (size_t i = 0; i < result.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(result[i], 1) << "false negative at " << i;
    } else {
      negatives_hit += result[i];
    }
  }
  // Negative half: false positives only, at roughly the backend's rate.
  EXPECT_LT(negatives_hit, result.size() / 2 / 50);

  // Key and failure totals live in the shards; batch counts and key sums in
  // the service.batch.keys histograms.
  const ShardStats stats = service.filter().TotalStats();
  EXPECT_EQ(stats.inserts, n);
  EXPECT_EQ(stats.queries, 50000u);
  EXPECT_EQ(stats.insert_failures, 0u);
  if (!obs::kEnabled) return;  // histograms compiled out
  const auto samples = registry.Collect();
  const obs::MetricSample* inserted =
      obs::FindSample(samples, "service.batch.keys", "op", "insert");
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(inserted->hist.count, n / batch);
  EXPECT_EQ(inserted->hist.sum, n);
  const obs::MetricSample* queried =
      obs::FindSample(samples, "service.batch.keys", "op", "query");
  ASSERT_NE(queried, nullptr);
  EXPECT_EQ(queried->hist.count, 1u);
  EXPECT_EQ(queried->hist.sum, 50000u);
}

// The worker-pool path is the only one that queues, so it alone feeds the
// queue-wait histogram and depth gauge; exec-time histograms count batches.
TEST(FilterService, WorkerPathRecordsQueueAndExecTelemetry) {
  if (!obs::kEnabled) GTEST_SKIP() << "instrumentation compiled out";
  obs::MetricsRegistry registry;  // local: isolated from other tests
  FilterServiceOptions options;
  options.num_threads = 2;
  options.registry = &registry;
  const uint64_t n = 50000;
  FilterService service(MakeSharded(n, 881), options);
  const auto keys = RandomKeys(n, 882);

  constexpr size_t kBatch = 5000;
  std::vector<std::future<uint64_t>> inserts;
  for (size_t base = 0; base < keys.size(); base += kBatch) {
    inserts.push_back(service.InsertBatch(std::vector<uint64_t>(
        keys.begin() + base, keys.begin() + base + kBatch)));
  }
  for (auto& f : inserts) EXPECT_EQ(f.get(), 0u);
  const auto answers =
      service.QueryBatch(std::vector<uint64_t>(keys.begin(),
                                               keys.begin() + 10000)).get();
  ASSERT_EQ(answers.size(), 10000u);

  const auto samples = registry.Collect();
  const obs::MetricSample* wait =
      obs::FindSample(samples, "service.queue.wait.ns");
  ASSERT_NE(wait, nullptr);
  // Every queued request recorded a wait (n/kBatch inserts + 1 query).
  EXPECT_EQ(wait->hist.count, n / kBatch + 1);
  const obs::MetricSample* exec =
      obs::FindSample(samples, "service.exec.ns", "op", "insert");
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->hist.count, n / kBatch);
  EXPECT_GT(exec->hist.Percentile(0.99), 0.0);
  const obs::MetricSample* depth =
      obs::FindSample(samples, "service.queue.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0);  // queue drained once the futures resolved
}

TEST(FilterService, ManyConcurrentClients) {
  const uint64_t n = 160000;
  FilterService service(MakeSharded(n, 194),
                        FilterServiceOptions{/*num_threads=*/3,
                                             /*max_pending=*/8});
  const auto keys = RandomKeys(n, 195);
  constexpr int kClients = 4;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      // Each client owns an interleaved slice and submits it in batches.
      std::vector<uint64_t> mine;
      for (uint64_t i = c; i < n; i += kClients) mine.push_back(keys[i]);
      const size_t batch = 1000;
      for (size_t base = 0; base < mine.size(); base += batch) {
        const size_t count = std::min(batch, mine.size() - base);
        failures += service
                        .InsertBatch(std::vector<uint64_t>(
                            mine.begin() + base, mine.begin() + base + count))
                        .get();
      }
      // Immediately read back through the query path.
      auto result = service.QueryBatch(mine).get();
      for (uint8_t b : result) {
        if (!b) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(service.filter().TotalStats().inserts, n);
}

TEST(FilterService, SynchronousModeWorksWithoutThreads) {
  const uint64_t n = 20000;
  FilterService service(MakeSharded(n, 196),
                        FilterServiceOptions{/*num_threads=*/0,
                                             /*max_pending=*/1});
  const auto keys = RandomKeys(n, 197);
  EXPECT_EQ(service.InsertBatch(keys).get(), 0u);
  auto result = service.QueryBatch(keys).get();
  for (uint8_t b : result) ASSERT_TRUE(b);
}

TEST(FilterService, SubmitAfterStopDegradesToSynchronous) {
  const uint64_t n = 10000;
  FilterService service(MakeSharded(n, 198), {});
  const auto keys = RandomKeys(n, 199);
  EXPECT_EQ(service.InsertBatch(keys).get(), 0u);
  service.Stop();
  auto result = service.QueryBatch(keys).get();
  for (uint8_t b : result) ASSERT_TRUE(b);
}

TEST(FilterService, SnapshotRestoreRoundTrip) {
  const uint64_t n = 60000;
  FilterService service(MakeSharded(n, 200, /*shards=*/8), {});
  const auto keys = RandomKeys(n, 201);
  EXPECT_EQ(service.InsertBatch(keys).get(), 0u);

  std::vector<uint8_t> snapshot;
  ASSERT_TRUE(service.Snapshot(&snapshot));
  auto restored = FilterService::Restore(snapshot.data(), snapshot.size());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->Name(), service.filter().Name());

  FilterService revived(restored, {});
  auto result = revived.QueryBatch(keys).get();
  for (uint8_t b : result) ASSERT_TRUE(b);
  // The restored filter answers probes identically (same hash seeds).
  const auto probes = RandomKeys(100000, 202);
  for (uint64_t k : probes) {
    ASSERT_EQ(revived.Contains(k), service.Contains(k));
  }
  // Restore rejects non-sharded images.
  auto single = MakeFilter("PF[TC]", 1000, 1);
  std::vector<uint8_t> single_bytes;
  ASSERT_TRUE(single->SerializeTo(&single_bytes));
  EXPECT_EQ(FilterService::Restore(single_bytes.data(), single_bytes.size()),
            nullptr);
}

TEST(FilterService, LsmTableUsesSharedServiceAsGate) {
  const uint64_t n = 40000;
  auto service = std::make_shared<FilterService>(
      MakeSharded(n * 2, 203), FilterServiceOptions{/*num_threads=*/2,
                                                    /*max_pending=*/64});
  lsm::TableOptions options;
  options.memtable_entries = 4096;
  options.filter_service = service;
  lsm::Table table(options);

  const auto keys = RandomKeys(n, 204);
  for (uint64_t i = 0; i < n; ++i) table.Put(keys[i], i);
  table.Flush();
  ASSERT_GT(table.NumRuns(), 1u);

  // Every written key readable; the service saw every sealed key.
  for (uint64_t i = 0; i < n; i += 7) {
    auto v = table.Get(keys[i]);
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(service->filter().TotalStats().inserts, n);

  // Absent keys short-circuit at the table gate: data accesses stay flat.
  const uint64_t accesses_before = table.DataAccesses();
  const auto probes = RandomKeys(20000, 205);
  uint64_t found = 0;
  for (uint64_t k : probes) found += table.Get(k).has_value();
  EXPECT_EQ(found, 0u);
  const uint64_t futile = table.DataAccesses() - accesses_before;
  // Without the gate every probe would walk every run's filter and a few FPs
  // per run would reach the data; with it only global FPs do.
  EXPECT_LT(futile, probes.size() / 100);

  // MultiGet agrees with Get on a mixed stream.
  std::vector<uint64_t> stream(probes.begin(), probes.begin() + 1000);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i * 3 % n];
  const auto batch = table.MultiGet(stream);
  ASSERT_EQ(batch.size(), stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(batch[i], table.Get(stream[i])) << i;
  }
}

TEST(FilterService, QueryBatchAsyncDeliversCallbackOffTheSubmittingThread) {
  const uint64_t n = 50000;
  FilterServiceOptions options;
  options.num_threads = 2;
  FilterService service(MakeSharded(n, 881), options);
  const auto keys = RandomKeys(n, 882);
  EXPECT_EQ(service.InsertBatch(keys).get(), 0u);

  // Callback flavor answers identically to the future flavor, and (with a
  // worker pool) runs on a worker thread, not the submitter.
  std::promise<std::vector<uint8_t>> done;
  std::thread::id callback_thread;
  service.QueryBatchAsync(
      std::vector<uint64_t>(keys.begin(), keys.begin() + 4096),
      [&](std::vector<uint8_t> results) {
        callback_thread = std::this_thread::get_id();
        done.set_value(std::move(results));
      });
  const std::vector<uint8_t> results = done.get_future().get();
  ASSERT_EQ(results.size(), 4096u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], 1) << "false negative at " << i;
  }
  EXPECT_NE(callback_thread, std::this_thread::get_id());
  service.Drain();
  EXPECT_EQ(service.filter().TotalStats().queries, 4096u);
}

TEST(FilterService, QueryBatchAsyncRunsInlineWhenSynchronous) {
  FilterService service(MakeSharded(1000, 883), {.num_threads = 0});
  const uint64_t key = 77;
  EXPECT_EQ(service.InsertBatch({key}).get(), 0u);
  bool called = false;
  service.QueryBatchAsync({key}, [&](std::vector<uint8_t> results) {
    called = true;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0], 1);
  });
  // Synchronous service: the callback completed before the call returned.
  EXPECT_TRUE(called);
}

TEST(FilterService, QueryFaultHookSeesBatchKeysAndClears) {
  FilterService service(MakeSharded(1000, 884), {.num_threads = 0});
  std::vector<uint64_t> seen;
  service.SetQueryFaultHookForTesting(
      [&](const uint64_t* keys, size_t count) {
        seen.assign(keys, keys + count);
      });
  const std::vector<uint64_t> probe = {1, 2, 3};
  std::vector<uint8_t> out(probe.size());
  service.QueryBatchSync(probe.data(), probe.size(), out.data());
  EXPECT_EQ(seen, probe);
  service.SetQueryFaultHookForTesting(nullptr);
  seen.clear();
  service.QueryBatchSync(probe.data(), probe.size(), out.data());
  EXPECT_TRUE(seen.empty());
}

}  // namespace
}  // namespace prefixfilter
