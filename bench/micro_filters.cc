// google-benchmark microbenchmarks: per-operation latencies of every filter
// at low (25%) and high (95%) load — the per-op view of Figure 3.
//
// Streams come from src/workload (seeded, deterministic); machine-readable
// output is google-benchmark's own (--benchmark_format=json), not the
// BenchRunner document, since gbench owns the measurement loop here.
#include <benchmark/benchmark.h>

#include "src/core/prefix_filter.h"
#include "src/core/spare.h"
#include "src/filters/blocked_bloom.h"
#include "src/filters/bloom.h"
#include "src/filters/cuckoo.h"
#include "src/filters/twochoicer.h"
#include "src/util/random.h"
#include "src/workload/workload.h"

namespace prefixfilter {
namespace {

constexpr uint64_t kN = uint64_t{1} << 20;

workload::Stream MakeStream(double load, double positive_fraction,
                            uint64_t seed) {
  workload::Spec spec;
  spec.num_keys = static_cast<uint64_t>(load * kN);
  spec.num_queries = 1 << 16;
  spec.positive_fraction = positive_fraction;
  spec.seed = seed;
  return workload::Generate(spec);
}

template <typename Filter>
void RunNegativeQueries(benchmark::State& state, Filter filter, double load) {
  const workload::Stream stream = MakeStream(load, 0.0, 11);
  for (uint64_t k : stream.insert_keys) filter.Insert(k);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Contains(stream.queries[i++ & 0xffff]));
  }
  state.SetItemsProcessed(state.iterations());
}

template <typename Filter>
void RunPositiveQueries(benchmark::State& state, Filter filter, double load) {
  const workload::Stream stream = MakeStream(load, 1.0, 13);
  for (uint64_t k : stream.insert_keys) filter.Insert(k);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Contains(stream.queries[i++ & 0xffff]));
  }
  state.SetItemsProcessed(state.iterations());
}

PrefixFilterOptions PfOptions() {
  PrefixFilterOptions o;
  o.seed = 99;
  return o;
}

#define NEGATIVE_BENCH(name, expr)                              \
  void BM_Neg_##name(benchmark::State& state) {                 \
    RunNegativeQueries(state, expr, state.range(0) / 100.0);    \
  }                                                             \
  BENCHMARK(BM_Neg_##name)->Arg(25)->Arg(95)

#define POSITIVE_BENCH(name, expr)                              \
  void BM_Pos_##name(benchmark::State& state) {                 \
    RunPositiveQueries(state, expr, state.range(0) / 100.0);    \
  }                                                             \
  BENCHMARK(BM_Pos_##name)->Arg(95)

NEGATIVE_BENCH(PF_TC, PrefixFilter<SpareTcTraits>(kN, PfOptions()));
NEGATIVE_BENCH(PF_CF12, PrefixFilter<SpareCf12Traits>(kN, PfOptions()));
NEGATIVE_BENCH(PF_BBF, PrefixFilter<SpareBbfTraits>(kN, PfOptions()));
NEGATIVE_BENCH(CF12, CuckooFilter12(kN, false, 99));
NEGATIVE_BENCH(CF12Flex, CuckooFilter12(kN, true, 99));
NEGATIVE_BENCH(TC, TwoChoicer(kN, 99));
NEGATIVE_BENCH(BBF, BlockedBloomFilter::MakeNonFlexible(kN, 99));
NEGATIVE_BENCH(BBFFlex, BlockedBloomFilter::MakeFlexible(kN, 10.67, 99));
NEGATIVE_BENCH(BF12, BloomFilter(kN, 12.0, 8, 99));

POSITIVE_BENCH(PF_TC, PrefixFilter<SpareTcTraits>(kN, PfOptions()));
POSITIVE_BENCH(CF12, CuckooFilter12(kN, false, 99));
POSITIVE_BENCH(TC, TwoChoicer(kN, 99));
POSITIVE_BENCH(BBF, BlockedBloomFilter::MakeNonFlexible(kN, 99));

void BM_Insert_PF_TC(benchmark::State& state) {
  // Insert throughput from empty to ~95% in a rotating pool of filters.
  PrefixFilter<SpareTcTraits> pf(kN, PfOptions());
  Xoshiro256 rng(15);
  uint64_t inserted = 0;
  for (auto _ : state) {
    if (inserted >= kN * 95 / 100) {
      state.PauseTiming();
      pf = PrefixFilter<SpareTcTraits>(kN, PfOptions());
      inserted = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(pf.Insert(rng.Next()));
    ++inserted;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Insert_PF_TC);

}  // namespace
}  // namespace prefixfilter
