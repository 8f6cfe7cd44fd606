// Tests for the thread-pool filter service: synchronous and queued batches,
// concurrent clients, backpressure-safe shutdown, stats, snapshot/restore,
// and the LSM table's shared-service integration.
#include "src/service/filter_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
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

TEST(FilterService, InsertAndQueryBatchesSynchronously) {
  const uint64_t n = 100000;
  obs::MetricsRegistry registry;  // local: batch histograms count only ours
  FilterServiceOptions options;
  options.registry = &registry;
  FilterService service(MakeSharded(n, 191), options);
  const auto keys = RandomKeys(n, 192);

  const size_t batch = 10000;
  for (size_t base = 0; base < keys.size(); base += batch) {
    EXPECT_EQ(service.InsertBatchSync(keys.data() + base, batch), 0u);
  }

  // Mixed stream: even positions positive, odd almost-surely negative.
  std::vector<uint64_t> stream = RandomKeys(50000, 193);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];
  std::vector<uint8_t> result(stream.size());
  service.QueryBatchSync(stream.data(), stream.size(), result.data());
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

// QueryBatchAsync is the only path that queues, so it alone feeds the
// queue-wait histogram and depth gauge; exec-time histograms count batches
// from every path.
TEST(FilterService, WorkerPathRecordsQueueAndExecTelemetry) {
  if (!obs::kEnabled) GTEST_SKIP() << "instrumentation compiled out";
  obs::MetricsRegistry registry;  // local: isolated from other tests
  FilterServiceOptions options;
  options.num_threads = 2;
  options.registry = &registry;
  const uint64_t n = 50000;
  std::atomic<uint64_t> hits{0};  // outlives the workers that add to it
  FilterService service(MakeSharded(n, 881), options);
  const auto keys = RandomKeys(n, 882);

  constexpr size_t kBatch = 5000;
  for (size_t base = 0; base < keys.size(); base += kBatch) {
    EXPECT_EQ(service.InsertBatchSync(keys.data() + base, kBatch), 0u);
  }
  for (size_t base = 0; base < keys.size(); base += kBatch) {
    service.QueryBatchAsync(
        std::vector<uint64_t>(keys.begin() + base,
                              keys.begin() + base + kBatch),
        [&](std::vector<uint8_t> results) {
          for (uint8_t b : results) hits += b;
        });
  }
  service.Drain();
  EXPECT_EQ(hits.load(), n);

  const auto samples = registry.Collect();
  const obs::MetricSample* wait =
      obs::FindSample(samples, "service.queue.wait.ns");
  ASSERT_NE(wait, nullptr);
  // Every queued query recorded a wait; the synchronous inserts did not.
  EXPECT_EQ(wait->hist.count, n / kBatch);
  const obs::MetricSample* insert_exec =
      obs::FindSample(samples, "service.exec.ns", "op", "insert");
  ASSERT_NE(insert_exec, nullptr);
  EXPECT_EQ(insert_exec->hist.count, n / kBatch);
  EXPECT_GT(insert_exec->hist.Percentile(0.99), 0.0);
  const obs::MetricSample* query_exec =
      obs::FindSample(samples, "service.exec.ns", "op", "query");
  ASSERT_NE(query_exec, nullptr);
  EXPECT_EQ(query_exec->hist.count, n / kBatch);
  const obs::MetricSample* depth =
      obs::FindSample(samples, "service.queue.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0);  // queue drained before Drain() returned
}

// Four clients insert concurrently, then each fires its whole slice at the
// pool as 1000-key QueryBatchAsync batches without waiting: 40 submits per
// client against 3 workers, so the queue backs up while submits keep
// returning.
TEST(FilterService, ManyConcurrentClients) {
  const uint64_t n = 160000;
  constexpr int kClients = 4;
  constexpr size_t kBatch = 1000;
  // Declared before the service so they outlive its workers.
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> answered{0};
  FilterService service(MakeSharded(n, 194), {.num_threads = 3});
  const auto keys = RandomKeys(n, 195);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      // Each client owns an interleaved slice and submits it in batches.
      std::vector<uint64_t> mine;
      for (uint64_t i = c; i < n; i += kClients) mine.push_back(keys[i]);
      for (size_t base = 0; base < mine.size(); base += kBatch) {
        const size_t count = std::min(kBatch, mine.size() - base);
        failures += service.InsertBatchSync(mine.data() + base, count);
      }
      // Read back through the queued path.
      for (size_t base = 0; base < mine.size(); base += kBatch) {
        const size_t count = std::min(kBatch, mine.size() - base);
        service.QueryBatchAsync(
            std::vector<uint64_t>(mine.begin() + base,
                                  mine.begin() + base + count),
            [&](std::vector<uint8_t> results) {
              for (uint8_t b : results) {
                if (!b) failures.fetch_add(1);
              }
              answered += results.size();
            });
      }
    });
  }
  for (auto& t : clients) t.join();
  service.Drain();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(answered.load(), n);
  EXPECT_EQ(service.filter().TotalStats().inserts, n);
}

// QueryBatchAsync never waits on the pool: with the only worker held in the
// fault hook, 5000 submits all return while it is still held.  A watchdog
// releases the worker after 10 s, so a submit that waits for queue room
// fails the test instead of hanging it.
TEST(FilterService, QueryBatchAsyncNeverWaitsWhileTheWorkerIsHeld) {
  constexpr int kSubmits = 5000;
  // Declared before the service so they outlive its worker.
  std::atomic<bool> release{false};
  std::atomic<bool> watchdog_fired{false};
  std::atomic<int> answered{0};
  FilterService service(MakeSharded(1000, 885), {.num_threads = 1});
  service.SetQueryFaultHookForTesting([&](const uint64_t*, size_t) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread watchdog([&]() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!release.load()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        watchdog_fired = true;
        release = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < kSubmits; ++i) {
    service.QueryBatchAsync({static_cast<uint64_t>(i)},
                            [&](std::vector<uint8_t> results) {
                              answered += static_cast<int>(results.size());
                            });
  }
  const bool returned_while_held = !watchdog_fired.load();
  const int answered_while_held = answered.load();
  release = true;
  watchdog.join();
  service.Drain();
  EXPECT_TRUE(returned_while_held) << "a submit waited for the worker";
  EXPECT_EQ(answered_while_held, 0);
  EXPECT_EQ(answered.load(), kSubmits);
  service.SetQueryFaultHookForTesting(nullptr);
}

TEST(FilterService, SynchronousModeWorksWithoutThreads) {
  const uint64_t n = 20000;
  FilterService service(MakeSharded(n, 196), {.num_threads = 0});
  const auto keys = RandomKeys(n, 197);
  EXPECT_EQ(service.InsertBatchSync(keys.data(), keys.size()), 0u);
  std::vector<uint8_t> result(keys.size());
  service.QueryBatchSync(keys.data(), keys.size(), result.data());
  for (uint8_t b : result) ASSERT_TRUE(b);
}

TEST(FilterService, SubmitAfterStopDegradesToSynchronous) {
  const uint64_t n = 10000;
  FilterService service(MakeSharded(n, 198), {});
  const auto keys = RandomKeys(n, 199);
  EXPECT_EQ(service.InsertBatchSync(keys.data(), keys.size()), 0u);
  service.Stop();
  std::vector<uint8_t> result;
  service.QueryBatchAsync(keys, [&](std::vector<uint8_t> results) {
    result = std::move(results);
  });
  // No pool left: the callback ran before QueryBatchAsync returned.
  ASSERT_EQ(result.size(), keys.size());
  for (uint8_t b : result) ASSERT_TRUE(b);
}

TEST(FilterService, SnapshotRestoreRoundTrip) {
  const uint64_t n = 60000;
  FilterService service(MakeSharded(n, 200, /*shards=*/8), {});
  const auto keys = RandomKeys(n, 201);
  EXPECT_EQ(service.InsertBatchSync(keys.data(), keys.size()), 0u);

  std::vector<uint8_t> snapshot;
  ASSERT_TRUE(service.filter().SerializeTo(&snapshot));
  auto restored =
      ShardedFilter::Deserialize(snapshot.data(), snapshot.size());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->Name(), service.filter().Name());

  FilterService revived(std::move(restored), {});
  std::vector<uint8_t> result(keys.size());
  revived.QueryBatchSync(keys.data(), keys.size(), result.data());
  for (uint8_t b : result) ASSERT_TRUE(b);
  // The restored filter answers probes identically (same hash seeds).
  const auto probes = RandomKeys(100000, 202);
  for (uint64_t k : probes) {
    ASSERT_EQ(revived.filter().Contains(k), service.filter().Contains(k));
  }
  // Deserialize rejects non-sharded images.
  auto single = MakeFilter("PF[TC]", 1000, 1);
  std::vector<uint8_t> single_bytes;
  ASSERT_TRUE(single->SerializeTo(&single_bytes));
  EXPECT_EQ(
      ShardedFilter::Deserialize(single_bytes.data(), single_bytes.size()),
      nullptr);
}

TEST(FilterService, LsmTableUsesSharedServiceAsGate) {
  const uint64_t n = 40000;
  auto service = std::make_shared<FilterService>(
      MakeSharded(n * 2, 203), FilterServiceOptions{.num_threads = 2});
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
  // Declared before the service so they outlive its workers.
  std::vector<uint8_t> results;
  std::thread::id callback_thread;
  FilterService service(MakeSharded(n, 881), options);
  const auto keys = RandomKeys(n, 882);
  EXPECT_EQ(service.InsertBatchSync(keys.data(), keys.size()), 0u);

  // With a worker pool the callback runs on a worker thread, not the
  // submitter.  Drain() returns only after the callback has, so reading its
  // captures afterwards is ordered.
  service.QueryBatchAsync(
      std::vector<uint64_t>(keys.begin(), keys.begin() + 4096),
      [&](std::vector<uint8_t> answers) {
        callback_thread = std::this_thread::get_id();
        results = std::move(answers);
      });
  service.Drain();
  ASSERT_EQ(results.size(), 4096u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], 1) << "false negative at " << i;
  }
  EXPECT_NE(callback_thread, std::this_thread::get_id());
  EXPECT_EQ(service.filter().TotalStats().queries, 4096u);
}

TEST(FilterService, QueryBatchAsyncRunsInlineWhenSynchronous) {
  FilterService service(MakeSharded(1000, 883), {.num_threads = 0});
  const uint64_t key = 77;
  EXPECT_EQ(service.InsertBatchSync(&key, 1), 0u);
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
