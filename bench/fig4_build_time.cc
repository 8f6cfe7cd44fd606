// Regenerates Figure 4 (paper §7.4): filter build time — the time to insert
// n random keys into an initially empty filter.  This is the LSM-tree
// workload the paper singles out (a run's filter is built once, then only
// queried), and the headline result: PF builds 1.39-1.46x faster than the
// vector quotient filter and >3.2x faster than the cuckoo filter.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/core/prefix_filter.h"
#include "src/core/spare.h"
#include "src/filters/blocked_bloom.h"
#include "src/filters/bloom.h"
#include "src/filters/cuckoo.h"
#include "src/filters/twochoicer.h"

namespace {

namespace bench = prefixfilter::bench;
using prefixfilter::PrefixFilter;

struct Result {
  std::string name;
  double seconds;
  uint64_t failures;
  bench::PhaseStats stats;
};

template <typename Filter>
Result Build(const std::string& name, Filter filter,
             const std::vector<uint64_t>& keys) {
  const bench::PhaseStats stats =
      bench::TimedInserts(filter, keys, 0, keys.size());
  bench::KeepAlive(filter.Contains(keys[0]));
  return {name, stats.seconds, stats.failures, stats};
}

// The same build through the filter's batched insert, in 4096-key calls
// (the service's batch size).  Its "PF[TC] batch" row is the kernel-level
// build number: the PD insert kernels and the insert pipeline without the
// shard and service layers above them.
template <typename Filter>
Result BuildBatched(const std::string& name, Filter filter,
                    const std::vector<uint64_t>& keys) {
  constexpr size_t kInsertBatch = 4096;
  const bench::PhaseStats stats =
      bench::TimedBatchInserts(filter, keys, 0, keys.size(), kInsertBatch);
  bench::KeepAlive(filter.Contains(keys[0]));
  return {name, stats.seconds, stats.failures, stats};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::ParseOptions(argc, argv);
  const uint64_t n = options.n();
  const uint64_t seed = options.seed;
  const auto keys = prefixfilter::RandomKeys(n, options.seed);

  std::printf("== Figure 4: build time for n = 0.94 * 2^%d = %llu keys ==\n\n",
              options.n_log2, static_cast<unsigned long long>(n));

  std::vector<Result> results;
  results.push_back(Build(
      "BBF", prefixfilter::BlockedBloomFilter::MakeNonFlexible(n, seed), keys));
  results.push_back(Build(
      "BBF-Flex", prefixfilter::BlockedBloomFilter::MakeFlexible(n, 10.67, seed),
      keys));
  prefixfilter::PrefixFilterOptions pf_options;
  pf_options.seed = seed;
  results.push_back(
      Build("PF[BBF-Flex]",
            PrefixFilter<prefixfilter::SpareBbfTraits>(n, pf_options), keys));
  results.push_back(
      Build("PF[TC]", PrefixFilter<prefixfilter::SpareTcTraits>(n, pf_options),
            keys));
  results.push_back(BuildBatched(
      "PF[TC] batch", PrefixFilter<prefixfilter::SpareTcTraits>(n, pf_options),
      keys));
  results.push_back(
      Build("PF[CF12-Flex]",
            PrefixFilter<prefixfilter::SpareCf12Traits>(n, pf_options), keys));
  results.push_back(Build("TC", prefixfilter::TwoChoicer(n, seed), keys));
  results.push_back(Build("BF-8[k=6]", prefixfilter::BloomFilter(n, 8, 6, seed),
                          keys));
  results.push_back(
      Build("BF-12[k=8]", prefixfilter::BloomFilter(n, 12, 8, seed), keys));
  results.push_back(Build("CF-8", prefixfilter::CuckooFilter8(n, false, seed),
                          keys));
  results.push_back(
      Build("CF-8-Flex", prefixfilter::CuckooFilter8(n, true, seed), keys));
  results.push_back(
      Build("BF-16[k=11]", prefixfilter::BloomFilter(n, 16, 11, seed), keys));
  results.push_back(Build("CF-12", prefixfilter::CuckooFilter12(n, false, seed),
                          keys));
  results.push_back(
      Build("CF-12-Flex", prefixfilter::CuckooFilter12(n, true, seed), keys));

  std::printf("%-14s | %10s | %10s\n", "Filter", "Seconds", "Mkeys/s");
  std::printf("---------------+------------+-----------\n");
  for (const auto& r : results) {
    std::printf("%-14s | %10.3f | %10.2f%s\n", r.name.c_str(), r.seconds,
                static_cast<double>(n) / r.seconds / 1e6,
                r.failures ? "  (!)" : "");
  }

  auto find = [&](const char* name) {
    return std::find_if(results.begin(), results.end(),
                        [&](const Result& r) { return r.name == name; })
        ->seconds;
  };
  const double pf_best =
      std::min({find("PF[BBF-Flex]"), find("PF[TC]"), find("PF[CF12-Flex]")});
  const double pf_worst =
      std::max({find("PF[BBF-Flex]"), find("PF[TC]"), find("PF[CF12-Flex]")});
  std::printf("\nSpeedups (paper: TC/PF 1.39-1.46x, CF/PF > 3.2x):\n");
  std::printf("  TC / PF(best)     = %.2fx\n", find("TC") / pf_best);
  std::printf("  TC / PF(worst)    = %.2fx\n", find("TC") / pf_worst);
  std::printf("  CF-12 / PF(best)  = %.2fx\n", find("CF-12") / pf_best);
  std::printf("  CF-12-Flex / PF   = %.2fx\n", find("CF-12-Flex") / pf_best);
  std::printf("  PF(worst)/PF(best)= %.2fx (paper: spare choice ~5.6%%)\n",
              pf_worst / pf_best);

  bench::BenchRunner runner("fig4_build_time", options);
  for (const auto& r : results) {
    prefixfilter::json::Value m = bench::PhaseMetrics(r.stats, "build");
    m.Set("build_seconds", r.seconds);
    m.Set("insert_failures", r.failures);
    runner.Add(r.name, "build", std::move(m));
  }
  prefixfilter::json::Value speedups = prefixfilter::json::Value::MakeObject();
  speedups.Set("tc_over_pf_best", find("TC") / pf_best);
  speedups.Set("cf12_over_pf_best", find("CF-12") / pf_best);
  runner.Add("summary", "build", std::move(speedups));
  if (!runner.WriteJsonIfRequested()) return 1;
  return 0;
}
