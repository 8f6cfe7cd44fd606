// bench_all: the aggregated factory-sweep benchmark the CI perf gate runs.
//
// Sweeps filter configurations (src/core/filter_factory.h names, plus the
// sharded service filter "SHARD<n>[PF[TC]]") against the standard workload
// suite (src/workload/workload.h) and writes one JSON document ("BENCH.json"
// by default) with, per (filter x workload) cell: insert and query
// throughput (Mops/s), chunked ns/op percentiles, bits per key,
// exact-reproducible FPR, and a false-negative canary (must be 0).
//
// An extra "mixed-rw-25i" cell per filter exercises the interleaved
// insert/query stream (25% inserts) end to end.
//
// Usage:
//   bench_all [--quick] [--n-log2=L] [--seed=S] [--out=BENCH.json]
//             [--filters=A,B,...] [--workloads=a,b,...] [--concrete]
//
// --quick is the CI smoke scale (n = 0.94 * 2^16); compare runs against
// bench/baseline.json with bench_compare.  Filters run through AnyFilter, so
// the virtual-dispatch cost is part of every measured cell (identical across
// configurations, which is what a comparative sweep wants).  --concrete
// instead sweeps filters through their concrete types (no virtual dispatch,
// the regime the paper's figures measure) AND through AnyFilter, reporting
// the dispatch tax side by side.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/filter_factory.h"
#include "src/core/prefix_filter.h"
#include "src/core/spare.h"
#include "src/filters/blocked_bloom.h"
#include "src/filters/bloom.h"
#include "src/filters/cuckoo.h"
#include "src/filters/fast_multiblock.h"
#include "src/filters/twochoicer.h"
#include "src/service/sharded_filter.h"
#include "src/workload/workload.h"

namespace {

namespace bench = prefixfilter::bench;
namespace workload = prefixfilter::workload;
using prefixfilter::AnyFilter;
using prefixfilter::MakeFilter;
using prefixfilter::ShardedFilter;

// The default sweep: the paper's main contenders plus the sharded service
// configuration.  (KnownFilterNames() has 16+ entries; this is the curated
// subset the baseline pins so the smoke job stays fast.)
const char* kDefaultFilters[] = {
    "BF-12",        "BBF-Flex",      "FMB32",   "FMB64",
    "CF-8",         "CF-12-Flex",    "TC",
    "PF[BBF-Flex]", "PF[CF12-Flex]",
    "PF[TC]",       "SHARD16[PF[TC]]",
};

// A factory configuration via MakeFilter, or the sharded service filter
// "SHARD<n>[PF[TC]]" via ShardedFilter::Make (an AnyFilter, but not a
// factory configuration).
std::unique_ptr<AnyFilter> MakeSweepFilter(const std::string& name,
                                           uint64_t capacity, uint64_t seed) {
  prefixfilter::ShardedFilterOptions sharded;
  sharded.seed = seed;
  if (ShardedFilter::ParseName(name, &sharded.num_shards)) {
    return ShardedFilter::Make(capacity, sharded);
  }
  return MakeFilter(name, capacity, seed);
}

// Accumulated best-of-repeats state for one (filter x workload) cell.
//
// Repeats are driven from the OUTSIDE of the filter loop (sweep the whole
// filter list, then repeat), so one cell's repeats land seconds apart: at
// --quick scale a measurement phase is only a few ms, and a transient
// machine-wide slowdown (noisy neighbor, frequency dip) that spans
// back-to-back repeats would otherwise poison every sample of one cell at
// once while the CI gate expects <15% drift.
struct Cell {
  bool ok = false;
  bench::PhaseStats ins, qry, bqry, ops;
  prefixfilter::json::Value quality = prefixfilter::json::Value::MakeObject();

  void MergeBest(const bench::PhaseStats& i, const bench::PhaseStats& q,
                 const bench::PhaseStats& b, bool first) {
    if (first || i.Mops() > ins.Mops()) ins = i;
    if (first || q.Mops() > qry.Mops()) qry = q;
    if (first || b.Mops() > bqry.Mops()) bqry = b;
  }
};

// One timed pass over the phase-separated cell; on `measure_quality` also
// records the exact-reproducible metrics (FPR over ground-truth negatives,
// bits/key, and a false-negative canary — a membership filter must never
// miss).
bool RunCellOnce(const std::string& filter_name,
                 const workload::Stream& stream, const bench::Options& options,
                 bool measure_quality, Cell* cell) {
  const uint64_t n = stream.spec.num_keys;
  auto filter = MakeSweepFilter(filter_name, n, options.seed);
  if (filter == nullptr) {
    std::fprintf(stderr, "bench_all: unknown filter %s\n",
                 filter_name.c_str());
    return false;
  }
  const bench::PhaseStats ins = bench::TimedInserts(
      *filter, stream.insert_keys, 0, stream.insert_keys.size());
  const bench::PhaseStats qry = bench::TimedQueries(*filter, stream.queries);
  // Batched drain through the devirtualized AnyFilter batch path (the
  // router/service regime) alongside the scalar virtual-per-key loop above.
  const bench::PhaseStats bqry =
      bench::TimedBatchQueries(*filter, stream.queries);
  cell->MergeBest(ins, qry, bqry, !cell->ok);

  if (measure_quality) {
    uint64_t false_positives = 0, false_negatives = 0;
    for (size_t i = 0; i < stream.queries.size(); ++i) {
      const bool hit = filter->Contains(stream.queries[i]);
      if (stream.query_expected[i] == 0) {
        false_positives += hit;
      } else {
        false_negatives += !hit;
      }
    }
    const uint64_t negatives = stream.NumNegativeQueries();
    cell->quality.Set("insert_failures", ins.failures);
    cell->quality.Set("bits_per_key",
                      8.0 * static_cast<double>(filter->SpaceBytes()) /
                          static_cast<double>(n));
    cell->quality.Set("fpr", negatives > 0
                                 ? static_cast<double>(false_positives) /
                                       static_cast<double>(negatives)
                                 : 0.0);
    cell->quality.Set("false_negatives", false_negatives);
  }
  cell->ok = true;
  return true;
}

bool RunInterleavedOnce(const std::string& filter_name,
                        const workload::Stream& stream,
                        const bench::Options& options, bool measure_quality,
                        Cell* cell) {
  auto filter =
      MakeSweepFilter(filter_name, stream.spec.num_keys, options.seed);
  if (filter == nullptr) {
    std::fprintf(stderr, "bench_all: unknown filter %s\n",
                 filter_name.c_str());
    return false;
  }
  const bench::PhaseStats ops = bench::TimedOps(*filter, stream.ops);
  if (!cell->ok || ops.Mops() > cell->ops.Mops()) cell->ops = ops;
  if (measure_quality) {
    cell->quality.Set("insert_failures", ops.failures);
    cell->quality.Set("bits_per_key",
                      8.0 * static_cast<double>(filter->SpaceBytes()) /
                          static_cast<double>(stream.spec.num_keys));
  }
  cell->ok = true;
  return true;
}

// --- --concrete: dispatch-tax sweep ------------------------------------------

// One timed pass with the CONCRETE filter type: the harness helpers are
// templates, so Insert/Contains inline and no virtual call sits in the timed
// loops — the regime the paper's figure benches (and micro_*) measure.
template <typename Filter>
void RunConcreteOnce(Filter&& filter, const workload::Stream& stream,
                     Cell* cell) {
  const bench::PhaseStats ins = bench::TimedInserts(
      filter, stream.insert_keys, 0, stream.insert_keys.size());
  const bench::PhaseStats qry = bench::TimedQueries(filter, stream.queries);
  const bench::PhaseStats bqry =
      bench::TimedBatchQueries(filter, stream.queries);
  cell->MergeBest(ins, qry, bqry, !cell->ok);
  cell->ok = true;
}

struct ConcreteEntry {
  const char* name;  // the factory name the concrete construction mirrors
  std::function<void(const workload::Stream&, uint64_t seed, Cell*)> run;
};

// Concrete constructions mirroring MakeFilter's parameters exactly (same
// bits/key, hash counts, and seeds), so the AnyFilter cell measured next to
// each differs only by the virtual-dispatch wrapper.
std::vector<ConcreteEntry> ConcreteRegistry() {
  using prefixfilter::BlockedBloomFilter;
  using prefixfilter::BloomFilter;
  using prefixfilter::CuckooFilter12;
  using prefixfilter::PrefixFilter;
  using prefixfilter::PrefixFilterOptions;
  using prefixfilter::TwoChoicer;
  const auto pf_options = [](uint64_t seed) {
    PrefixFilterOptions o;
    o.seed = seed;
    return o;
  };
  return {
      {"BF-12",
       [](const workload::Stream& s, uint64_t seed, Cell* c) {
         RunConcreteOnce(BloomFilter(s.spec.num_keys, 12.0, 8, seed), s, c);
       }},
      {"BBF-Flex",
       [](const workload::Stream& s, uint64_t seed, Cell* c) {
         RunConcreteOnce(
             BlockedBloomFilter::MakeFlexible(s.spec.num_keys, 10.67, seed),
             s, c);
       }},
      {"FMB32",
       [](const workload::Stream& s, uint64_t seed, Cell* c) {
         RunConcreteOnce(
             prefixfilter::FastMultiBlock32::Make(s.spec.num_keys, 8.0, seed),
             s, c);
       }},
      {"FMB64",
       [](const workload::Stream& s, uint64_t seed, Cell* c) {
         RunConcreteOnce(
             prefixfilter::FastMultiBlock64::Make(s.spec.num_keys, 12.0, seed),
             s, c);
       }},
      {"CF-12-Flex",
       [](const workload::Stream& s, uint64_t seed, Cell* c) {
         RunConcreteOnce(CuckooFilter12(s.spec.num_keys, true, seed), s, c);
       }},
      {"TC",
       [](const workload::Stream& s, uint64_t seed, Cell* c) {
         RunConcreteOnce(TwoChoicer(s.spec.num_keys, seed), s, c);
       }},
      {"PF[BBF-Flex]",
       [pf_options](const workload::Stream& s, uint64_t seed, Cell* c) {
         RunConcreteOnce(PrefixFilter<prefixfilter::SpareBbfTraits>(
                             s.spec.num_keys, pf_options(seed)),
                         s, c);
       }},
      {"PF[CF12-Flex]",
       [pf_options](const workload::Stream& s, uint64_t seed, Cell* c) {
         RunConcreteOnce(PrefixFilter<prefixfilter::SpareCf12Traits>(
                             s.spec.num_keys, pf_options(seed)),
                         s, c);
       }},
      {"PF[TC]",
       [pf_options](const workload::Stream& s, uint64_t seed, Cell* c) {
         RunConcreteOnce(PrefixFilter<prefixfilter::SpareTcTraits>(
                             s.spec.num_keys, pf_options(seed)),
                         s, c);
       }},
  };
}

double TaxPct(double concrete_mops, double any_mops) {
  return concrete_mops > 0
             ? 100.0 * (concrete_mops - any_mops) / concrete_mops
             : 0.0;
}

// Sweeps the concrete registry x suite, measuring each cell both through the
// concrete type and through AnyFilter, and emits one row per cell with the
// dispatch tax (how much of the concrete rate the virtual wrapper costs).
int RunConcreteSweep(const std::vector<std::string>& filters,
                     const std::vector<workload::Spec>& suite,
                     const bench::Options& options, int repeats,
                     bench::BenchRunner* runner) {
  // Respect the filter selection (--filters): sweep the
  // intersection with the concrete registry, and say which selected names
  // have no concrete construction instead of silently ignoring them.
  std::vector<ConcreteEntry> registry;
  std::string skipped;
  for (const auto& name : filters) {
    bool found = false;
    for (auto& entry : ConcreteRegistry()) {
      if (entry.name == name) {
        registry.push_back(std::move(entry));
        found = true;
        break;
      }
    }
    if (!found) skipped += (skipped.empty() ? "" : ", ") + name;
  }
  if (!skipped.empty()) {
    std::printf("bench_all: no concrete construction for: %s (skipped)\n",
                skipped.c_str());
  }
  if (registry.empty()) {
    std::fprintf(stderr,
                 "bench_all: none of the selected filters has a concrete "
                 "construction\n");
    return 2;
  }
  // Throwaway warm-up of BOTH paths: the dispatch tax is the one quantity
  // this mode measures, so neither side may absorb process cold-start costs
  // (page faults, frequency ramp-up) that the other side skips.
  if (!suite.empty() && !registry.empty()) {
    const workload::Stream warm = workload::Generate(suite.front());
    Cell discard_concrete, discard_any;
    registry.front().run(warm, options.seed, &discard_concrete);
    (void)RunCellOnce(registry.front().name, warm, options, false,
                      &discard_any);
  }
  // Geometric means over all cells of the fraction of the concrete rate the
  // AnyFilter path retains — the headline dispatch-tax numbers.
  double log_batch_ratio = 0.0, log_scalar_ratio = 0.0;
  size_t geomean_cells = 0;
  for (const auto& spec : suite) {
    const workload::Stream stream = workload::Generate(spec);
    for (const auto& entry : registry) {
      Cell concrete, any;
      for (int rep = 0; rep < repeats; ++rep) {
        entry.run(stream, options.seed, &concrete);
        if (!RunCellOnce(entry.name, stream, options, false, &any)) return 2;
      }
      const double insert_tax = TaxPct(concrete.ins.Mops(), any.ins.Mops());
      const double query_tax = TaxPct(concrete.qry.Mops(), any.qry.Mops());
      const double batch_tax = TaxPct(concrete.bqry.Mops(), any.bqry.Mops());
      prefixfilter::json::Value metrics = bench::PhaseMetrics(concrete.ins,
                                                              "insert");
      const prefixfilter::json::Value query_metrics =
          bench::PhaseMetrics(concrete.qry, "query");
      for (const auto& [k, v] : query_metrics.AsObject()) metrics.Set(k, v);
      const prefixfilter::json::Value batch_metrics =
          bench::PhaseMetrics(concrete.bqry, "batch_query");
      for (const auto& [k, v] : batch_metrics.AsObject()) metrics.Set(k, v);
      metrics.Set("any_insert_mops", any.ins.Mops());
      metrics.Set("any_query_mops", any.qry.Mops());
      metrics.Set("any_batch_query_mops", any.bqry.Mops());
      metrics.Set("insert_dispatch_tax_pct", insert_tax);
      metrics.Set("query_dispatch_tax_pct", query_tax);
      metrics.Set("batch_dispatch_tax_pct", batch_tax);
      if (concrete.qry.Mops() > 0 && any.qry.Mops() > 0 &&
          concrete.bqry.Mops() > 0 && any.bqry.Mops() > 0) {
        log_scalar_ratio += std::log(any.qry.Mops() / concrete.qry.Mops());
        log_batch_ratio += std::log(any.bqry.Mops() / concrete.bqry.Mops());
        ++geomean_cells;
      }
      std::printf("  %-14s x %-18s concrete %7.1f / any %7.1f Mops/s query"
                  "  (tax %+5.1f%%, batch %+5.1f%%)\n",
                  entry.name, spec.name.c_str(), concrete.qry.Mops(),
                  any.qry.Mops(), query_tax, batch_tax);
      runner->Add(std::string(entry.name) + "#concrete", spec.name,
                  std::move(metrics));
    }
  }
  if (geomean_cells > 0) {
    const double denom = static_cast<double>(geomean_cells);
    const double scalar_geomean_tax =
        100.0 * (1.0 - std::exp(log_scalar_ratio / denom));
    const double batch_geomean_tax =
        100.0 * (1.0 - std::exp(log_batch_ratio / denom));
    std::printf(
        "bench_all: AnyFilter dispatch tax geomean over %zu cells: "
        "batch %+.1f%%, scalar %+.1f%%\n",
        geomean_cells, batch_geomean_tax, scalar_geomean_tax);
    prefixfilter::json::Value summary = prefixfilter::json::Value::MakeObject();
    summary.Set("batch_dispatch_tax_geomean_pct", batch_geomean_tax);
    summary.Set("scalar_dispatch_tax_geomean_pct", scalar_geomean_tax);
    runner->Add("ALL#concrete", "geomean", std::move(summary));
  }
  return 0;
}

prefixfilter::json::Value CellMetrics(const Cell& cell, bool interleaved) {
  prefixfilter::json::Value metrics =
      interleaved ? bench::PhaseMetrics(cell.ops, "ops")
                  : bench::PhaseMetrics(cell.ins, "insert");
  if (!interleaved) {
    const prefixfilter::json::Value query_metrics =
        bench::PhaseMetrics(cell.qry, "query");
    for (const auto& [k, v] : query_metrics.AsObject()) metrics.Set(k, v);
    const prefixfilter::json::Value batch_metrics =
        bench::PhaseMetrics(cell.bqry, "batch_query");
    for (const auto& [k, v] : batch_metrics.AsObject()) metrics.Set(k, v);
  }
  for (const auto& [k, v] : cell.quality.AsObject()) metrics.Set(k, v);
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  // Split bench_all-specific flags from the shared harness flags.
  std::vector<std::string> filters(std::begin(kDefaultFilters),
                                   std::end(kDefaultFilters));
  std::vector<std::string> workload_names;
  std::string out_path;
  bool concrete = false;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--filters=", 0) == 0) {
      filters = bench::SplitCsv(arg.substr(10));
    } else if (arg.rfind("--workloads=", 0) == 0) {
      workload_names = bench::SplitCsv(arg.substr(12));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--concrete") {
      concrete = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_all [--quick] [--n-log2=L] [--seed=S]\n"
          "                 [--out=BENCH.json] [--filters=A,B,...]\n"
          "                 [--workloads=a,b,...] [--concrete]\n"
          "workloads: uniform-negative mixed-50-50 zipf-positive\n"
          "           adversarial-dup disjoint-negative (default: all,\n"
          "           plus the interleaved mixed-rw-25i stream)\n"
          "--concrete: dispatch-tax sweep through concrete filter types\n");
      return 0;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  bench::Options options = bench::ParseOptions(
      static_cast<int>(passthrough.size()), passthrough.data());
  // --out wins, then the shared --json flag, then the documented default.
  if (!out_path.empty()) options.json_path = out_path;
  if (options.json_path.empty()) options.json_path = "BENCH.json";
  out_path = options.json_path;

  const uint64_t n = options.n();
  // Queries per cell: enough steady-phase ops for stable chunk timing even
  // at --quick scale.
  const uint64_t num_queries =
      std::max<uint64_t>(n, options.quick ? (uint64_t{1} << 20) : n);

  bench::BenchRunner runner("bench_all", options);
  std::printf("bench_all: n=%llu queries/cell=%llu filters=%zu -> %s\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(num_queries), filters.size(),
              out_path.c_str());

  bool interleaved_requested = workload_names.empty();
  std::vector<workload::Spec> suite;
  if (workload_names.empty()) {
    suite = workload::StandardSuite(n, num_queries, options.seed);
  } else {
    for (const auto& name : workload_names) {
      if (name == "mixed-rw-25i") {
        interleaved_requested = true;
        continue;
      }
      workload::Spec spec;
      if (!workload::FindStandardSpec(name, n, num_queries, options.seed,
                                      &spec)) {
        std::fprintf(stderr, "bench_all: unknown workload %s\n", name.c_str());
        return 2;
      }
      suite.push_back(spec);
    }
  }

  // Best-of-R at smoke scale, repeats OUTSIDE the filter loop (see Cell);
  // plus one throwaway warm-up cell so the first measured cell doesn't
  // absorb process cold-start costs (page faults on the key arrays,
  // frequency ramp-up).
  const int repeats = options.quick ? 5 : 1;

  if (concrete) {
    const int rc = RunConcreteSweep(filters, suite, options, repeats, &runner);
    if (rc != 0) return rc;
    if (!runner.WriteJsonIfRequested()) return 1;
    std::printf("bench_all: %zu concrete results -> %s\n",
                runner.NumResults(), out_path.c_str());
    return 0;
  }

  if (!suite.empty() && !filters.empty()) {
    const workload::Stream warm = workload::Generate(suite.front());
    Cell discard;
    (void)RunCellOnce(filters.front(), warm, options, false, &discard);
  }

  for (const auto& spec : suite) {
    const workload::Stream stream = workload::Generate(spec);
    std::vector<Cell> cells(filters.size());
    for (int rep = 0; rep < repeats; ++rep) {
      for (size_t f = 0; f < filters.size(); ++f) {
        if (!RunCellOnce(filters[f], stream, options, rep == 0, &cells[f])) {
          return 2;
        }
      }
    }
    for (size_t f = 0; f < filters.size(); ++f) {
      prefixfilter::json::Value metrics = CellMetrics(cells[f], false);
      std::printf("  %-18s x %-18s insert %7.1f Mops/s  query %7.1f Mops/s"
                  "  fpr %.5f%%\n",
                  filters[f].c_str(), spec.name.c_str(),
                  metrics.GetDouble("insert_mops"),
                  metrics.GetDouble("query_mops"),
                  100.0 * metrics.GetDouble("fpr"));
      runner.Add(filters[f], spec.name, std::move(metrics));
    }
  }

  if (interleaved_requested) {
    workload::Spec rw;
    rw.name = "mixed-rw-25i";
    rw.num_keys = n;
    rw.num_queries = std::max<uint64_t>(num_queries, 3 * n);
    rw.insert_ratio = 0.25;
    rw.positive_fraction = 0.5;
    rw.seed = options.seed;
    const workload::Stream stream = workload::Generate(rw);
    std::vector<Cell> cells(filters.size());
    for (int rep = 0; rep < repeats; ++rep) {
      for (size_t f = 0; f < filters.size(); ++f) {
        if (!RunInterleavedOnce(filters[f], stream, options, rep == 0,
                                &cells[f])) {
          return 2;
        }
      }
    }
    for (size_t f = 0; f < filters.size(); ++f) {
      prefixfilter::json::Value metrics = CellMetrics(cells[f], true);
      std::printf("  %-18s x %-18s ops    %7.1f Mops/s\n", filters[f].c_str(),
                  rw.name.c_str(), metrics.GetDouble("ops_mops"));
      runner.Add(filters[f], rw.name, std::move(metrics));
    }
  }

  if (!runner.WriteJsonIfRequested()) return 1;
  std::printf("bench_all: %zu results -> %s\n", runner.NumResults(),
              out_path.c_str());
  return 0;
}
