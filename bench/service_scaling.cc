// Sharded-service scaling grid: batched mixed-stream query throughput as a
// function of client threads x shards, against the single-filter baseline.
//
// Workload: a 50/50 positive/negative stream (the paper's §7.3 mixed round),
// pre-partitioned into per-thread slices; every thread owns a BatchRouter
// and drives ShardedFilter::ContainsBatch over its slice in batches of 4096,
// so each batch pays one lock per touched shard and rides the prefetching
// batch path inside each shard.  With 1 shard every thread serializes on one
// lock; with >= threads shards the locks spread and throughput scales with
// cores (the acceptance target: >= 3x single-thread at 8 threads on
// hardware with >= 8 cores).
//
//   bench_service_scaling [--n-log2=L] [--seed=S] [--csv]
#include <cinttypes>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/service/batch_router.h"
#include "src/service/sharded_filter.h"

namespace {

using prefixfilter::BatchRouter;
using prefixfilter::ShardedFilter;
using prefixfilter::ShardedFilterOptions;

constexpr size_t kBatch = 4096;

struct Cell {
  double mops = 0;
  uint64_t hits = 0;
};

// Each thread routes its slice of the stream in batches; returns aggregate
// throughput over the slowest thread's wall time (the honest fleet number).
Cell RunCell(const ShardedFilter& filter, const std::vector<uint64_t>& stream,
             int threads) {
  std::vector<uint64_t> hits(threads, 0);
  std::vector<std::thread> pool;
  const size_t per_thread = stream.size() / threads;
  prefixfilter::bench::Timer timer;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      BatchRouter router;
      std::vector<uint8_t> out(kBatch);
      const size_t begin = t * per_thread;
      const size_t end = (t == threads - 1) ? stream.size() : begin + per_thread;
      uint64_t local_hits = 0;
      for (size_t base = begin; base < end; base += kBatch) {
        const size_t count = std::min(kBatch, end - base);
        router.Route(filter, stream.data() + base, count, out.data());
        for (size_t i = 0; i < count; ++i) local_hits += out[i];
      }
      hits[t] = local_hits;
    });
  }
  for (auto& th : pool) th.join();
  const double secs = timer.Seconds();
  Cell cell;
  cell.mops = prefixfilter::bench::OpsPerSec(stream.size(), secs) / 1e6;
  for (uint64_t h : hits) cell.hits += h;
  prefixfilter::bench::KeepAlive(cell.hits);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = prefixfilter::bench::ParseOptions(argc, argv);
  const uint64_t n = options.n();

  // Mixed 50/50 positive/negative stream from the standard workload suite
  // (the same "mixed-50-50" cell bench_all sweeps, at 2n queries).
  prefixfilter::workload::Spec spec;
  if (!prefixfilter::workload::FindStandardSpec("mixed-50-50", n, 2 * n,
                                                options.seed, &spec)) {
    return 2;
  }
  const prefixfilter::workload::Stream generated =
      prefixfilter::workload::Generate(spec);
  const std::vector<uint64_t>& keys = generated.insert_keys;
  const std::vector<uint64_t>& stream = generated.queries;

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("# service_scaling: n=%" PRIu64 " stream=%zu hw_threads=%d\n",
              n, stream.size(), hw);

  const std::vector<uint32_t> shard_counts = {1, 4, 16, 64};
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  prefixfilter::bench::BenchRunner runner("service_scaling", options);

  if (options.csv) {
    std::printf("shards,threads,mqps,speedup_vs_1thread\n");
  } else {
    std::printf("%-22s |", "batched queries, Mq/s");
    for (int t : thread_counts) std::printf("  %2d thr |", t);
    std::printf(" 8thr/1thr\n");
  }

  for (uint32_t shards : shard_counts) {
    ShardedFilterOptions sharded_options;
    sharded_options.num_shards = shards;
    sharded_options.seed = options.seed;
    auto filter = ShardedFilter::Make(n, sharded_options);
    if (filter == nullptr) {
      std::fprintf(stderr, "failed to build SHARD%u[PF[TC]]\n", shards);
      return 1;
    }
    const uint64_t failures = filter->InsertBatch(keys.data(), keys.size());
    if (failures != 0) {
      std::fprintf(stderr, "SHARD%u: %" PRIu64 " insert failures\n", shards,
                   failures);
      return 1;
    }
    double first = 0, last = 0;
    if (!options.csv) std::printf("%-22s |", filter->Name().c_str());
    for (int threads : thread_counts) {
      const Cell cell = RunCell(*filter, stream, threads);
      if (threads == thread_counts.front()) first = cell.mops;
      last = cell.mops;
      if (options.csv) {
        std::printf("SHARD%u,%d,%.2f,%.2f\n", shards, threads, cell.mops,
                    first > 0 ? cell.mops / first : 0.0);
      } else {
        std::printf(" %6.1f |", cell.mops);
      }
      char workload[48];
      std::snprintf(workload, sizeof(workload), "mixed-50-50,threads=%d",
                    threads);
      prefixfilter::json::Value m = prefixfilter::json::Value::MakeObject();
      m.Set("batched_query_mops", cell.mops);
      m.Set("speedup_vs_1thread", first > 0 ? cell.mops / first : 0.0);
      runner.Add(filter->Name(), workload, std::move(m));
    }
    if (!options.csv) {
      std::printf("   %5.2fx\n", first > 0 ? last / first : 0.0);
    }
  }

  // Single unsharded prefix filter, one thread: the paper-level baseline the
  // sharded grid is normalized against.
  {
    auto single = prefixfilter::MakeFilter("PF[TC]", n, options.seed);
    for (uint64_t k : keys) single->Insert(k);
    std::vector<uint8_t> out(kBatch);
    uint64_t found = 0;
    prefixfilter::bench::Timer timer;
    for (size_t base = 0; base < stream.size(); base += kBatch) {
      const size_t count = std::min(kBatch, stream.size() - base);
      single->ContainsBatch(stream.data() + base, count, out.data());
      for (size_t i = 0; i < count; ++i) found += out[i];
    }
    const double secs = timer.Seconds();
    prefixfilter::bench::KeepAlive(found);
    const double mqps =
        prefixfilter::bench::OpsPerSec(stream.size(), secs) / 1e6;
    if (options.csv) {
      std::printf("PF,1,%.2f,1.00\n", mqps);
    } else {
      std::printf("%-22s | %6.1f | (unsharded baseline)\n", "PF[TC] single",
                  mqps);
    }
    prefixfilter::json::Value m = prefixfilter::json::Value::MakeObject();
    m.Set("batched_query_mops", mqps);
    runner.Add("PF[TC]", "mixed-50-50,threads=1", std::move(m));
  }

  // Scalar fast path (ROADMAP: SHARD16 paid ~35-40% single-thread overhead
  // on non-batched queries): 1-key ContainsBatch calls now route inline, so
  // the sharded filter's scalar rate should sit within a few percent of its
  // inner filter instead of paying the full counting-sort setup per key.
  {
    ShardedFilterOptions sharded_options;
    sharded_options.num_shards = 16;
    sharded_options.seed = options.seed;
    auto sharded = ShardedFilter::Make(n, sharded_options);
    auto inner = prefixfilter::MakeFilter("PF[TC]", n, options.seed);
    sharded->InsertBatch(keys.data(), keys.size());
    for (uint64_t k : keys) inner->Insert(k);

    auto scalar_mqps = [&](const prefixfilter::AnyFilter& filter) {
      uint64_t found = 0;
      uint8_t one = 0;
      prefixfilter::bench::Timer timer;
      for (uint64_t k : stream) {
        filter.ContainsBatch(&k, 1, &one);  // the 1-key batch fast path
        found += one;
      }
      const double secs = timer.Seconds();
      prefixfilter::bench::KeepAlive(found);
      return prefixfilter::bench::OpsPerSec(stream.size(), secs) / 1e6;
    };
    const double sharded_mqps = scalar_mqps(*sharded);
    const double inner_mqps = scalar_mqps(*inner);
    const double overhead_pct =
        inner_mqps > 0 ? 100.0 * (inner_mqps - sharded_mqps) / inner_mqps
                       : 0.0;
    if (options.csv) {
      std::printf("SHARD16-scalar,1,%.2f,%.2f\nPF-scalar,1,%.2f,1.00\n",
                  sharded_mqps, overhead_pct, inner_mqps);
    } else {
      std::printf("%-22s | %6.1f | vs inner %6.1f -> %+.1f%% overhead "
                  "(scalar 1-key fast path)\n",
                  "SHARD16[PF[TC]] scalar", sharded_mqps, inner_mqps,
                  overhead_pct);
    }
    prefixfilter::json::Value m = prefixfilter::json::Value::MakeObject();
    m.Set("scalar_query_mops", sharded_mqps);
    m.Set("inner_scalar_query_mops", inner_mqps);
    m.Set("scalar_overhead_pct", overhead_pct);
    runner.Add("SHARD16[PF[TC]]", "mixed-50-50,scalar", std::move(m));
  }
  if (!runner.WriteJsonIfRequested()) return 1;
  return 0;
}
