// Ablation: the PD query cutoff of §5.2.2.
//
// Compares four PD(25,8,25) query strategies on identical pocket
// dictionaries:
//   (1) the shipped query, PD256::Find: SIMD byte match, then one PDEP
//       list-range read (RunMask64) with no branch on the match mask
//       (FindBranching on builds without BMI2),
//   (2) the paper's cutoff, PD256::FindBranching: SIMD byte match, no match
//       ends the query, one match costs a POPCOUNT, several read list q's
//       range,
//   (3) an always-Select decoder (what a "standard" PD implementation does:
//       two Selects to find the list, then a body scan), and
//   (4) a scalar-comparison variant of (2) (no SIMD byte-match kernel),
// and reports the distribution over the cutoff's paths (Claims 3 and 4).
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/harness.h"
#include "src/pd/pd256.h"
#include "src/util/aligned.h"
#include "src/util/bits.h"
#include "src/util/hash.h"
#include "src/util/simd.h"

namespace {

namespace bench = prefixfilter::bench;
using prefixfilter::PD256;

// Strategy (3): the standard Select-based PD search (paper §5.1), working on
// the same in-memory PD256 layout.
bool SelectBasedFind(const PD256& pd, int q, uint8_t r) {
  uint64_t header;
  std::memcpy(&header, pd.raw(), 8);
  header &= (uint64_t{1} << 50) - 1;
  const uint64_t terminators = ~header;
  const int begin =
      (q == 0) ? 0 : prefixfilter::Select64(terminators, q - 1) + 1 - q;
  const int end = prefixfilter::Select64(terminators, q) - q;
  const uint8_t* body = pd.raw() + PD256::kBodyOffset;
  for (int i = begin; i < end; ++i) {
    if (body[i] == r) return true;
  }
  return false;
}

// Strategy (4): the paper's cutoff with a scalar byte-match kernel.
bool ScalarCutoffFind(const PD256& pd, int q, uint8_t r) {
  const uint32_t v = static_cast<uint32_t>(prefixfilter::FindByteMaskScalar(
                         pd.raw(), r, 32)) >>
                     PD256::kBodyOffset;
  if (v == 0) return false;
  uint64_t header;
  std::memcpy(&header, pd.raw(), 8);
  header &= (uint64_t{1} << 50) - 1;
  const uint64_t w = static_cast<uint64_t>(v) << q;
  if ((v & (v - 1)) == 0) {
    const int i = prefixfilter::CountTrailingZeros64(v);
    return (header & w) != 0 && prefixfilter::PopCount64(header & (w - 1)) == i;
  }
  return (w & prefixfilter::RunMask64(header, q)) != 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options options = bench::ParseOptions(argc, argv);
  // PD microbenchmark scale: number of PDs (two per cache line).
  const size_t num_pds = size_t{1} << 16;
  const size_t num_queries = 1 << 22;

  // Build full PDs with uniform elements (the distribution Claims 3/4
  // assume, justified because elements are mini-fingerprints).
  prefixfilter::AlignedBuffer<PD256> pds(num_pds);
  prefixfilter::Xoshiro256 rng(options.seed);
  for (size_t i = 0; i < num_pds; ++i) {
    for (int j = 0; j < PD256::kCapacity; ++j) {
      pds[i].Insert(static_cast<int>(rng.Below(25)),
                    static_cast<uint8_t>(rng.Next()));
    }
  }
  // Pre-generate the query stream.
  std::vector<uint32_t> stream(num_queries);
  for (auto& s : stream) {
    // pd index | q | r packed into 32 bits.
    const uint64_t h = rng.Next();
    s = static_cast<uint32_t>(((h % num_pds) << 13) |
                              (prefixfilter::FastRange32(
                                   static_cast<uint32_t>(h >> 40), 25)
                               << 8) |
                              (h >> 56 & 0xff));
  }
  auto decode = [&](uint32_t s, size_t* pd, int* q, uint8_t* r) {
    *pd = s >> 13;
    *q = (s >> 8) & 0x1f;
    *r = static_cast<uint8_t>(s);
  };

  std::printf("== Ablation: PD query strategies (%zu full PDs, %zu queries) ==\n",
              num_pds, num_queries);
  std::printf("compiled SIMD kernel: %s\n\n", prefixfilter::SimdKernelName());

  bench::BenchRunner runner("ablation_pd_kernel", options);
  auto run = [&](const char* name, auto&& find) {
    uint64_t found = 0;
    bench::Timer timer;
    for (uint32_t s : stream) {
      size_t pd;
      int q;
      uint8_t r;
      decode(s, &pd, &q, &r);
      found += find(pds[pd], q, r);
    }
    const double secs = timer.Seconds();
    bench::KeepAlive(found);
    const double mops = bench::OpsPerSec(num_queries, secs) / 1e6;
    std::printf("%-28s %8.1f Mops/s  (hit rate %.3f%%)\n", name, mops,
                100.0 * static_cast<double>(found) / num_queries);
    prefixfilter::json::Value m = prefixfilter::json::Value::MakeObject();
    m.Set("query_mops", mops);
    m.Set("hit_rate", static_cast<double>(found) / num_queries);
    runner.Add(name, "full-pd-query", std::move(m));
  };

  run("Find (shipped)",
      [](const PD256& pd, int q, uint8_t r) { return pd.Find(q, r); });
  run("FindBranching (paper cutoff)",
      [](const PD256& pd, int q, uint8_t r) { return pd.FindBranching(q, r); });
  run("always-Select (standard PD)", SelectBasedFind);
  run("cutoff + scalar kernel", ScalarCutoffFind);

  // Path distribution (Claims 3 and 4).
  uint64_t empty = 0, single = 0, fallback = 0;
  for (uint32_t s : stream) {
    size_t pd;
    int q;
    uint8_t r;
    decode(s, &pd, &q, &r);
    prefixfilter::PdQueryPath path;
    pds[pd].FindWithPath(q, r, &path);
    switch (path) {
      case prefixfilter::PdQueryPath::kEmptyMask: ++empty; break;
      case prefixfilter::PdQueryPath::kSingleCandidate: ++single; break;
      case prefixfilter::PdQueryPath::kSelectFallback: ++fallback; break;
    }
  }
  const double total = static_cast<double>(num_queries);
  std::printf(
      "\nCutoff path distribution (Claims 3/4: >90%% empty; >95%% of the rest\n"
      "single-candidate):\n");
  std::printf("  v==0 (no header work): %6.2f%%\n", 100 * empty / total);
  std::printf("  single candidate:      %6.2f%%\n", 100 * single / total);
  std::printf("  Select fallback:       %6.2f%%\n", 100 * fallback / total);
  std::printf("  => Select avoided for  %6.2f%% of queries (paper: >99%%)\n",
              100 * (empty + single) / total);

  prefixfilter::json::Value paths = prefixfilter::json::Value::MakeObject();
  paths.Set("path_empty_mask_fraction", empty / total);
  paths.Set("path_single_candidate_fraction", single / total);
  paths.Set("path_select_fallback_fraction", fallback / total);
  runner.Add("PD256", "cutoff-paths", std::move(paths));
  if (!runner.WriteJsonIfRequested()) return 1;
  return 0;
}
