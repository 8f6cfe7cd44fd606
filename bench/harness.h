// Shared benchmark harness reproducing the paper's methodology (§7.1, §7.3),
// plus the machine-readable result pipeline every bench in this tree feeds.
//
//  * Keys and query streams are pre-generated (src/workload/) so measured
//    times reflect only filter work.
//  * Uniform queries over a 2^64 universe are negative with overwhelming
//    probability; positive queries sample previously inserted keys.
//  * The default dataset is n = 0.94 * 2^22 — the paper's 0.94 * 2^28 scaled
//    to this machine; pass --n-log2=28 to reproduce the paper's size on
//    suitable hardware.  n = 0.94 * 2^L keeps the non-flexible
//    implementations at their intended load factor (§7.1).
//  * Every bench accepts --json=PATH and appends its numbers to a
//    BenchRunner, which serializes them as one JSON document tagged with
//    git SHA, build type, and PF_NATIVE (see README "Benchmarks" for the
//    schema).  --quick shrinks the dataset for CI smoke runs.
//
// Measurement discipline (BenchRunner::Measure*):
//  * warm phase: one untimed pass over a prefix of the stream primes
//    caches, TLBs, and branch predictors;
//  * steady phase: timed in chunks of kChunkOps operations, so ns/op
//    percentiles (p50/p90/p99 over chunks) are available without paying a
//    clock read per operation;
//  * no virtual dispatch inside timed loops — the helpers are templated on
//    the concrete filter type (AnyFilter works too; its virtual-call cost is
//    then part of what is measured, which is what bench_all wants).
#ifndef PREFIXFILTER_BENCH_HARNESS_H_
#define PREFIXFILTER_BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/filter_factory.h"
#include "src/util/json.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/workload/workload.h"

// Generated at CMake configure time (git SHA, build type, PF_NATIVE).
#if defined(__has_include)
#if __has_include("pf_build_info.h")
#include "pf_build_info.h"
#endif
#endif
#ifndef PF_BUILD_GIT_SHA
#define PF_BUILD_GIT_SHA "unknown"
#endif
#ifndef PF_BUILD_TYPE
#define PF_BUILD_TYPE "unknown"
#endif
#ifndef PF_BUILD_NATIVE
#define PF_BUILD_NATIVE false
#endif

namespace prefixfilter::bench {

// Defeats dead-code elimination of query results.
inline void KeepAlive(uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct Options {
  int n_log2 = 22;       // n = 0.94 * 2^n_log2
  uint64_t seed = 0x5eedf00du;
  int rounds = 20;       // load-sweep rounds (5% each, §7.3)
  bool csv = false;      // machine-readable text output (legacy)
  bool quick = false;    // CI smoke scale: n_log2=16, rounds=5
  std::string json_path; // --json=PATH: write the BenchRunner document here

  uint64_t n() const {
    return static_cast<uint64_t>(0.94 * static_cast<double>(uint64_t{1} << n_log2));
  }
};

// Splits a comma-separated flag value ("A,B,C"); empty segments dropped.
inline std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= csv.size()) {
    const size_t comma = csv.find(',', begin);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) out.push_back(csv.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

// Parses --n-log2=<L>, --seed=<S>, --rounds=<R>, --csv, --quick,
// --json=<PATH>.  Unknown flags abort with a usage message (benches take no
// positional arguments).  --quick lowers n/rounds unless explicitly set.
inline Options ParseOptions(int argc, char** argv) {
  Options options;
  bool n_set = false, rounds_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n-log2=", 0) == 0) {
      options.n_log2 = std::atoi(arg.c_str() + 9);
      n_set = true;
      if (options.n_log2 < 10 || options.n_log2 > 32) {
        std::fprintf(stderr, "--n-log2 must be in [10, 32]\n");
        std::exit(2);
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 0);
    } else if (arg.rfind("--rounds=", 0) == 0) {
      options.rounds = std::atoi(arg.c_str() + 9);
      rounds_set = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = arg.substr(7);
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--n-log2=L] [--seed=S] [--rounds=R] [--csv] [--quick]\n"
          "          [--json=PATH]\n"
          "  dataset size is n = 0.94 * 2^L (default L=22; paper uses L=28)\n"
          "  --quick: smoke-test scale (L=16, 5 rounds) for CI\n"
          "  --json=PATH: write machine-readable results (see README)\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  if (options.quick) {
    if (!n_set) options.n_log2 = 16;
    if (!rounds_set) options.rounds = 5;
  }
  return options;
}

// Backwards-compatible alias: the §7.3 round workload now lives in
// src/workload/ so tests and the service layer can reuse it.
struct Workload : public workload::RoundWorkload {
  static Workload Generate(const Options& options) {
    Workload w;
    static_cast<workload::RoundWorkload&>(w) = workload::RoundWorkload::
        Generate(options.n(), options.rounds, options.seed);
    return w;
  }
};

inline double OpsPerSec(size_t ops, double seconds) {
  return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
}

// Per-phase measurement: total rate plus ns/op percentiles over timing
// chunks (see file header for the discipline).
struct PhaseStats {
  uint64_t ops = 0;
  double seconds = 0;
  uint64_t failures = 0;   // inserts: rejected keys; queries: positives
  double ns_p50 = 0, ns_p90 = 0, ns_p99 = 0;

  double Mops() const { return OpsPerSec(ops, seconds) / 1e6; }
};

namespace internal {

constexpr size_t kChunkOps = 2048;

inline double Percentile(std::vector<double>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0;
  const size_t idx = std::min(
      sorted_ns.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_ns.size())));
  return sorted_ns[idx];
}

inline void FillPercentiles(std::vector<double>& chunk_ns, PhaseStats* stats) {
  std::sort(chunk_ns.begin(), chunk_ns.end());
  stats->ns_p50 = Percentile(chunk_ns, 0.50);
  stats->ns_p90 = Percentile(chunk_ns, 0.90);
  stats->ns_p99 = Percentile(chunk_ns, 0.99);
}

}  // namespace internal

// --- templated measurement loops (no virtual dispatch in timed regions) ----

// Inserts keys [begin, end); returns {seconds, failed_inserts}.  The
// fine-grained path is TimedInserts below; this stays for benches that time
// whole rounds.
template <typename Filter>
std::pair<double, uint64_t> TimeInserts(Filter& filter,
                                        const std::vector<uint64_t>& keys,
                                        size_t begin, size_t end) {
  uint64_t failures = 0;
  Timer timer;
  for (size_t i = begin; i < end; ++i) {
    failures += !filter.Insert(keys[i]);
  }
  const double secs = timer.Seconds();
  return {secs, failures};
}

// Queries every key; returns {seconds, positive_count}.
template <typename Filter>
std::pair<double, uint64_t> TimeQueries(const Filter& filter,
                                        const std::vector<uint64_t>& keys) {
  uint64_t found = 0;
  Timer timer;
  for (uint64_t k : keys) {
    found += filter.Contains(k);
  }
  const double secs = timer.Seconds();
  KeepAlive(found);
  return {secs, found};
}

namespace internal {

// Times apply(base, count) over [begin, end) in `chunk`-key steps; apply
// returns the step's failure count.
template <typename Apply>
PhaseStats TimedChunks(size_t begin, size_t end, size_t chunk,
                       const Apply& apply) {
  PhaseStats stats;
  std::vector<double> chunk_ns;
  chunk_ns.reserve((end - begin) / chunk + 1);
  Timer total;
  for (size_t base = begin; base < end; base += chunk) {
    const size_t count = std::min(end - base, chunk);
    Timer step;
    stats.failures += apply(base, count);
    chunk_ns.push_back(step.Seconds() * 1e9 / static_cast<double>(count));
  }
  stats.seconds = total.Seconds();
  stats.ops = end - begin;
  FillPercentiles(chunk_ns, &stats);
  return stats;
}

}  // namespace internal

// Chunk-timed insertion of keys [begin, end) into `filter`.
template <typename Filter>
PhaseStats TimedInserts(Filter& filter, const std::vector<uint64_t>& keys,
                        size_t begin, size_t end) {
  return internal::TimedChunks(
      begin, end, internal::kChunkOps, [&](size_t base, size_t count) {
        uint64_t failures = 0;
        for (size_t i = base; i < base + count; ++i) {
          failures += !filter.Insert(keys[i]);
        }
        return failures;
      });
}

// TimedInserts through the filter's own batched insert: keys [begin, end)
// go in `batch`-key InsertBatch calls, one timed chunk per call.
template <typename Filter>
PhaseStats TimedBatchInserts(Filter& filter, const std::vector<uint64_t>& keys,
                             size_t begin, size_t end, size_t batch) {
  return internal::TimedChunks(begin, end, batch,
                               [&](size_t base, size_t count) {
                                 return filter.InsertBatch(keys.data() + base,
                                                           count);
                               });
}

// Warm + steady query measurement.  One untimed pass over the first
// `warm_fraction` of the stream, then a chunk-timed pass over the whole
// stream; `failures` holds the positive count of the steady pass.
template <typename Filter>
PhaseStats TimedQueries(const Filter& filter,
                        const std::vector<uint64_t>& queries,
                        double warm_fraction = 0.1) {
  const size_t warm =
      static_cast<size_t>(warm_fraction * static_cast<double>(queries.size()));
  uint64_t sink = 0;
  for (size_t i = 0; i < warm; ++i) sink += filter.Contains(queries[i]);
  KeepAlive(sink);

  PhaseStats stats;
  std::vector<double> chunk_ns;
  chunk_ns.reserve(queries.size() / internal::kChunkOps + 1);
  Timer total;
  for (size_t base = 0; base < queries.size();
       base += internal::kChunkOps) {
    const size_t stop =
        std::min(queries.size(), base + internal::kChunkOps);
    uint64_t found = 0;
    Timer chunk;
    for (size_t i = base; i < stop; ++i) {
      found += filter.Contains(queries[i]);
    }
    chunk_ns.push_back(chunk.Seconds() * 1e9 /
                       static_cast<double>(stop - base));
    stats.failures += found;
  }
  stats.seconds = total.Seconds();
  stats.ops = queries.size();
  KeepAlive(stats.failures);
  internal::FillPercentiles(chunk_ns, &stats);
  return stats;
}

// Warm + steady BATCH query measurement: drains the stream through the
// filter's byte-output batch path in batches of `batch_size` keys (the
// service/router regime — one dispatch per batch, prefetching inside).
// Works on AnyFilter (virtual ContainsBatch, resolved once per batch) and on
// concrete filters (ContainsBatchOrScalar routes to their batch path or a
// concrete scalar loop), so the two sides of the --concrete dispatch-tax
// comparison run the identical drain shape.
template <typename Filter>
PhaseStats TimedBatchQueries(const Filter& filter,
                             const std::vector<uint64_t>& queries,
                             size_t batch_size = 256,
                             double warm_fraction = 0.1) {
  std::vector<uint8_t> out(std::max<size_t>(1, batch_size));
  const auto drain = [&](size_t begin, size_t end) {
    uint64_t found = 0;
    for (size_t base = begin; base < end; base += batch_size) {
      const size_t n = std::min(batch_size, end - base);
      ContainsBatchOrScalar(filter, queries.data() + base, n, out.data());
      for (size_t i = 0; i < n; ++i) found += out[i];
    }
    return found;
  };
  const size_t warm =
      static_cast<size_t>(warm_fraction * static_cast<double>(queries.size()));
  KeepAlive(drain(0, warm));

  PhaseStats stats;
  std::vector<double> chunk_ns;
  chunk_ns.reserve(queries.size() / internal::kChunkOps + 1);
  Timer total;
  for (size_t base = 0; base < queries.size(); base += internal::kChunkOps) {
    const size_t stop = std::min(queries.size(), base + internal::kChunkOps);
    Timer chunk;
    stats.failures += drain(base, stop);
    chunk_ns.push_back(chunk.Seconds() * 1e9 /
                       static_cast<double>(stop - base));
  }
  stats.seconds = total.Seconds();
  stats.ops = queries.size();
  KeepAlive(stats.failures);
  internal::FillPercentiles(chunk_ns, &stats);
  return stats;
}

// Chunk-timed interleaved op stream (workload::Spec::insert_ratio > 0).
template <typename Filter>
PhaseStats TimedOps(Filter& filter, const std::vector<workload::Op>& ops) {
  PhaseStats stats;
  std::vector<double> chunk_ns;
  chunk_ns.reserve(ops.size() / internal::kChunkOps + 1);
  uint64_t sink = 0;
  Timer total;
  for (size_t base = 0; base < ops.size(); base += internal::kChunkOps) {
    const size_t stop = std::min(ops.size(), base + internal::kChunkOps);
    Timer chunk;
    for (size_t i = base; i < stop; ++i) {
      const workload::Op& op = ops[i];
      if (op.is_insert) {
        stats.failures += !filter.Insert(op.key);
      } else {
        sink += filter.Contains(op.key);
      }
    }
    chunk_ns.push_back(chunk.Seconds() * 1e9 /
                       static_cast<double>(stop - base));
  }
  stats.seconds = total.Seconds();
  stats.ops = ops.size();
  KeepAlive(sink);
  internal::FillPercentiles(chunk_ns, &stats);
  return stats;
}

// Converts a PhaseStats to the JSON metrics object used across all benches.
inline json::Value PhaseMetrics(const PhaseStats& stats,
                                const std::string& prefix) {
  json::Value m = json::Value::MakeObject();
  m.Set(prefix + "_mops", stats.Mops());
  m.Set(prefix + "_ns_p50", stats.ns_p50);
  m.Set(prefix + "_ns_p90", stats.ns_p90);
  m.Set(prefix + "_ns_p99", stats.ns_p99);
  return m;
}

// Collects one benchmark binary's results and serializes them as a single
// JSON document:
//
//   { "schema": "prefixfilter-bench-v1", "bench": ..., "git_sha": ...,
//     "build_type": ..., "pf_native": ..., "simd_kernel": ..., "n": ...,
//     "seed": ..., "quick": ..., "results": [
//       { "filter": ..., "workload": ..., "metrics": { ... } }, ... ] }
//
// Metric-key conventions the regression gate (bench_compare) relies on:
// throughput metrics end in "_mops" (higher is better), latency metrics in
// "_ns_p50/_ns_p90/_ns_p99" (lower is better), and "fpr" / "bits_per_key"
// are exact-reproducible quality metrics (lower is better).
class BenchRunner {
 public:
  BenchRunner(std::string bench_name, const Options& options)
      : options_(options), doc_(json::Value::MakeObject()) {
    doc_.Set("schema", "prefixfilter-bench-v1");
    doc_.Set("bench", std::move(bench_name));
    doc_.Set("git_sha", PF_BUILD_GIT_SHA);
    doc_.Set("build_type", PF_BUILD_TYPE);
    doc_.Set("pf_native", static_cast<bool>(PF_BUILD_NATIVE));
    doc_.Set("simd_kernel", SimdKernelName());
    doc_.Set("n", options.n());
    // The seed is a full 64-bit value; JSON numbers are doubles, so emit it
    // as a decimal string to keep runs above 2^53 exactly reproducible.
    doc_.Set("seed", std::to_string(options.seed));
    doc_.Set("quick", options.quick);
    doc_.Set("results", json::Value::MakeArray());
  }

  const Options& options() const { return options_; }

  // Appends one result row.  `metrics` must be a JSON object; `workload` is
  // "-" for benches without a meaningful workload axis (analytic tables).
  void Add(const std::string& filter, const std::string& workload,
           json::Value metrics) {
    json::Value row = json::Value::MakeObject();
    row.Set("filter", filter);
    row.Set("workload", workload);
    row.Set("metrics", std::move(metrics));
    doc_.Get("results")->Append(std::move(row));
  }

  // Merges `extra`'s members into the result identified by (filter,
  // workload) if present, else adds a new row.
  void Merge(const std::string& filter, const std::string& workload,
             const json::Value& extra) {
    for (auto& row : doc_.Get("results")->AsArray()) {
      if (row.GetString("filter") == filter &&
          row.GetString("workload") == workload) {
        json::Value* metrics = row.Get("metrics");
        for (const auto& [k, v] : extra.AsObject()) metrics->Set(k, v);
        return;
      }
    }
    Add(filter, workload, extra);
  }

  size_t NumResults() const { return doc_.Get("results")->AsArray().size(); }

  const json::Value& Document() const { return doc_; }

  // Writes the document to options.json_path when --json was given.
  // Returns false on I/O failure (and complains on stderr).
  bool WriteJsonIfRequested() const {
    if (options_.json_path.empty()) return true;
    return WriteJson(options_.json_path);
  }

  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n",
                   path.c_str());
      return false;
    }
    const std::string text = doc_.Dump(2);
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fputc('\n', f);
    std::fclose(f);
    if (!ok) std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
    return ok;
  }

 private:
  Options options_;
  json::Value doc_;
};

}  // namespace prefixfilter::bench

#endif  // PREFIXFILTER_BENCH_HARNESS_H_
