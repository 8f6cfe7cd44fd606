// google-benchmark microbenchmarks for the pocket dictionaries (paper §5):
// per-operation costs of PD256/PD512 queries and inserts at varying
// occupancies, isolating the data structure from the filter around it.
//
// Machine-readable output is google-benchmark's own
// (--benchmark_format=json); query streams come from src/workload.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "src/pd/pd256.h"
#include "src/pd/pd512.h"
#include "src/util/aligned.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/workload/workload.h"

namespace prefixfilter {
namespace {

constexpr size_t kNumPds = 1 << 14;  // large enough to defeat the L1/L2

// Fills `pds` to `occupancy` elements each with uniform elements.
template <typename PD>
void FillPds(AlignedBuffer<PD>& pds, int occupancy, uint64_t seed) {
  Xoshiro256 rng(seed);
  for (size_t i = 0; i < pds.size(); ++i) {
    for (int j = 0; j < occupancy; ++j) {
      pds[i].Insert(static_cast<int>(rng.Below(PD::kNumLists)),
                    static_cast<uint8_t>(rng.Next()));
    }
  }
}

// Uniform negative-query stream via the shared workload generator (no keys
// inserted, so every query is a miss w.o.p. — the PD cutoff's common case).
template <typename PD>
std::vector<uint64_t> QueryStream(size_t count, uint64_t seed) {
  workload::Spec spec;
  spec.num_queries = count;
  spec.seed = seed;
  return workload::Generate(spec).queries;
}

// The query benches take the query body as a template argument: the shipped
// Find, or FindBranching, the paper's branching body (which Find is on builds
// without BMI2).
template <typename PD>
using QueryBody = bool (PD::*)(int, uint8_t) const;

template <typename PD, QueryBody<PD> kQuery>
void BM_PdNegativeQuery(benchmark::State& state) {
  AlignedBuffer<PD> pds(kNumPds);
  FillPds(pds, static_cast<int>(state.range(0)), 1);
  const auto stream = QueryStream<PD>(1 << 16, 2);
  size_t i = 0;
  for (auto _ : state) {
    const uint64_t h = stream[i++ & 0xffff];
    const size_t pd = FastRange64(h, kNumPds);
    const int q = static_cast<int>(
        FastRange32(static_cast<uint32_t>(h >> 32), PD::kNumLists));
    benchmark::DoNotOptimize((pds[pd].*kQuery)(q, static_cast<uint8_t>(h)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_PdNegativeQuery, PD256, &PD256::Find)
    ->Arg(12)->Arg(20)->Arg(25);
BENCHMARK_TEMPLATE(BM_PdNegativeQuery, PD256, &PD256::FindBranching)
    ->Arg(12)->Arg(20)->Arg(25);
BENCHMARK_TEMPLATE(BM_PdNegativeQuery, PD512, &PD512::Find)
    ->Arg(24)->Arg(40)->Arg(48);
BENCHMARK_TEMPLATE(BM_PdNegativeQuery, PD512, &PD512::FindBranching)
    ->Arg(24)->Arg(40)->Arg(48);

// A PD query as a membership service sees it: half the (PD, q, r) probes
// are stored elements and half uniform (absent w.o.p.), in random order.
// BM_PdNegativeQuery's all-negative stream makes every data-dependent
// branch of a query predictable; here a branch on "does any body byte
// match r" mispredicts about half the time, so this is the bench that
// shows what a branch-free query saves (or an alternating or segregated
// stream would hide).
struct Probe {
  uint32_t pd;
  uint8_t q;
  uint8_t r;
};

template <typename PD>
std::vector<Probe> MixedStream(const AlignedBuffer<PD>& pds, size_t count,
                               uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Probe> stream;
  stream.reserve(count);
  while (stream.size() < count) {
    const uint32_t pd = static_cast<uint32_t>(rng.Below(pds.size()));
    if (rng.Next() & 1) {
      const auto elements = pds[pd].Decode();
      if (elements.empty()) continue;
      const auto [q, r] = elements[rng.Below(elements.size())];
      stream.push_back({pd, static_cast<uint8_t>(q), r});
    } else {
      stream.push_back({pd, static_cast<uint8_t>(rng.Below(PD::kNumLists)),
                        static_cast<uint8_t>(rng.Next())});
    }
  }
  return stream;
}

template <typename PD, QueryBody<PD> kQuery>
void BM_PdMixedQuery(benchmark::State& state) {
  AlignedBuffer<PD> pds(kNumPds);
  FillPds(pds, static_cast<int>(state.range(0)), 1);
  const auto stream = MixedStream(pds, 1 << 16, 2);
  size_t i = 0;
  for (auto _ : state) {
    const Probe& p = stream[i++ & 0xffff];
    benchmark::DoNotOptimize((pds[p.pd].*kQuery)(p.q, p.r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_PdMixedQuery, PD256, &PD256::Find)
    ->Arg(12)->Arg(20)->Arg(25);
BENCHMARK_TEMPLATE(BM_PdMixedQuery, PD256, &PD256::FindBranching)
    ->Arg(12)->Arg(20)->Arg(25);
BENCHMARK_TEMPLATE(BM_PdMixedQuery, PD512, &PD512::Find)
    ->Arg(24)->Arg(40)->Arg(48);
BENCHMARK_TEMPLATE(BM_PdMixedQuery, PD512, &PD512::FindBranching)
    ->Arg(24)->Arg(40)->Arg(48);

// One dependent PD insert per iteration at low occupancy: the table resets
// as soon as the first PD fills, so the PDs stay far from full.  It times
// the PD insert alone and does not predict build throughput, where the gain
// of a call-free insert comes from the whole insert inlining into the
// batched build loop; bench_fig4_build_time's "PF[TC] batch" row is the
// kernel-level build number.
template <typename PD>
void BM_PdInsert(benchmark::State& state) {
  AlignedBuffer<PD> pds(kNumPds);
  Xoshiro256 rng(3);
  size_t filled = 0;
  for (auto _ : state) {
    const uint64_t h = rng.Next();
    const size_t pd = FastRange64(h, kNumPds);
    const int q = static_cast<int>(
        FastRange32(static_cast<uint32_t>(h >> 32), PD::kNumLists));
    if (!pds[pd].Insert(q, static_cast<uint8_t>(h))) {
      // Table saturated: reset outside timing.
      state.PauseTiming();
      std::memset(pds.data(), 0, pds.SizeBytes());
      filled = 0;
      state.ResumeTiming();
    }
    ++filled;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_PdInsert, PD256);
BENCHMARK_TEMPLATE(BM_PdInsert, PD512);

void BM_Pd256ReplaceMax(benchmark::State& state) {
  AlignedBuffer<PD256> pds(kNumPds);
  FillPds(pds, PD256::kCapacity, 4);
  for (size_t i = 0; i < kNumPds; ++i) pds[i].MarkOverflowed();
  Xoshiro256 rng(5);
  for (auto _ : state) {
    const uint64_t h = rng.Next();
    const size_t pd = FastRange64(h, kNumPds);
    const int q = static_cast<int>(
        FastRange32(static_cast<uint32_t>(h >> 32), PD256::kNumLists));
    const uint8_t r = static_cast<uint8_t>(h);
    const uint16_t fp = static_cast<uint16_t>((q << 8) | r);
    if (fp <= pds[pd].MaxFingerprint()) {
      pds[pd].ReplaceMax(q, r);
    }
    benchmark::DoNotOptimize(pds[pd].Overflowed());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Pd256ReplaceMax);

void BM_Pd256MaxFingerprint(benchmark::State& state) {
  AlignedBuffer<PD256> pds(kNumPds);
  FillPds(pds, PD256::kCapacity, 6);
  for (size_t i = 0; i < kNumPds; ++i) pds[i].MarkOverflowed();
  Xoshiro256 rng(7);
  for (auto _ : state) {
    const size_t pd = rng.Below(kNumPds);
    benchmark::DoNotOptimize(pds[pd].MaxFingerprint());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Pd256MaxFingerprint);

}  // namespace
}  // namespace prefixfilter
