// A tour of every filter in the library through the uniform AnyFilter
// interface: builds each configuration on the same dataset and prints a
// one-line profile (space, error rate, build speed) — a miniature of the
// paper's evaluation for choosing a filter in practice.
//
//   build/examples/filter_tour [num_keys]
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/core/filter_factory.h"
#include "src/util/random.h"

int main(int argc, char** argv) {
  const uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 500'000;
  const auto keys = prefixfilter::RandomKeys(n, 3);
  const auto probes = prefixfilter::RandomKeys(n, 4);

  std::printf("filter tour over %llu keys\n\n",
              static_cast<unsigned long long>(n));
  std::printf("%-14s | %9s | %9s | %11s | %s\n", "filter", "bits/key",
              "error(%)", "build Mops", "notes");
  std::printf("---------------+-----------+-----------+-------------+----------------\n");

  for (const auto& name : prefixfilter::KnownFilterNames()) {
    auto filter = prefixfilter::MakeFilter(name, n, /*seed=*/5);
    if (!filter) continue;

    const auto start = std::chrono::steady_clock::now();
    uint64_t failures = 0;
    for (uint64_t k : keys) failures += !filter->Insert(k);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    uint64_t fp = 0;
    for (uint64_t k : probes) fp += filter->Contains(k);

    std::printf("%-14s | %9.2f | %9.4f | %11.1f | %s\n", filter->Name().c_str(),
                8.0 * filter->SpaceBytes() / static_cast<double>(n),
                100.0 * static_cast<double>(fp) / static_cast<double>(n),
                static_cast<double>(n) / secs / 1e6,
                failures ? "insert failures!" : "");
  }

  std::printf(
      "\nRules of thumb (paper §8): need raw speed and can spend bits ->\n"
      "blocked Bloom; need space efficiency with fast queries AND fast\n"
      "builds, no deletions -> prefix filter; need deletions -> cuckoo (slow\n"
      "builds) or TC (slower queries).\n");
  return 0;
}
