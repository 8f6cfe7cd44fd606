// Integration tests: the prefix filter inside its motivating application
// (paper §1) — an LSM table whose immutable runs are each guarded by a
// build-once/query-forever filter.
#include "src/lsm/table.h"

#include <gtest/gtest.h>

#include "src/lsm/run.h"
#include "src/util/random.h"

namespace prefixfilter::lsm {
namespace {

TEST(LsmRun, GetFindsAllEntries) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t i = 0; i < 1000; ++i) entries.push_back({i * 7, i});
  lsm::Run run(std::move(entries), "PF[TC]", 1);
  for (uint64_t i = 0; i < 1000; ++i) {
    const auto v = run.Get(i * 7);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(LsmRun, FilterSavesFutileAccesses) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  Xoshiro256 rng(151);
  for (int i = 0; i < 20000; ++i) entries.push_back({rng.Next(), 1});
  lsm::Run run(std::move(entries), "PF[TC]", 2);
  // 100k misses: without a filter every one would be a futile data access;
  // with eps ~0.4% almost all are saved.
  for (int i = 0; i < 100000; ++i) run.Get(rng.Next());
  EXPECT_LT(run.data_accesses(), 2000u);
  EXPECT_EQ(run.data_accesses(), run.futile_accesses());
}

TEST(LsmRun, NoFilterMeansEveryGetTouchesData) {
  std::vector<std::pair<uint64_t, uint64_t>> entries = {{1, 10}, {2, 20}};
  lsm::Run run(std::move(entries), "", 3);
  run.Get(1);
  run.Get(999);
  EXPECT_EQ(run.data_accesses(), 2u);
  EXPECT_EQ(run.futile_accesses(), 1u);
}

TEST(LsmRun, DuplicateKeysKeepLastValue) {
  std::vector<std::pair<uint64_t, uint64_t>> entries = {{5, 1}, {5, 2}, {5, 3}};
  lsm::Run run(std::move(entries), "PF[TC]", 4);
  EXPECT_EQ(run.NumEntries(), 1u);
  EXPECT_EQ(run.Get(5), 3u);
}

// A filter that fails an insert would give false negatives, so the run must
// not consult it.  CF-8 sized for 7 keys rejects some inserts at these
// seeds; every key must still be found.
TEST(LsmRun, FilterInsertFailureLosesNoKeys) {
  const auto keys = RandomKeys(7, 393);
  for (const uint64_t seed : {56u, 123u, 147u}) {
    std::vector<std::pair<uint64_t, uint64_t>> entries;
    for (uint64_t k : keys) entries.push_back({k, k + 1});
    lsm::Run run(std::move(entries), "CF-8", seed);
    for (uint64_t k : keys) {
      ASSERT_EQ(run.Get(k), k + 1) << "seed " << seed;
    }
  }
}

TEST(Table, PutGetRoundTrip) {
  TableOptions options;
  options.memtable_entries = 1000;
  Table table(options);
  Xoshiro256 rng(152);
  std::vector<std::pair<uint64_t, uint64_t>> kvs;
  for (int i = 0; i < 10000; ++i) kvs.push_back({rng.Next(), rng.Next()});
  for (auto [k, v] : kvs) table.Put(k, v);
  EXPECT_GT(table.NumRuns(), 5u);
  for (auto [k, v] : kvs) {
    const auto got = table.Get(k);
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(*got, v);
  }
}

TEST(Table, NewerRunsShadowOlder) {
  TableOptions options;
  options.memtable_entries = 4;
  Table table(options);
  table.Put(1, 100);
  table.Flush();
  table.Put(1, 200);
  table.Flush();
  EXPECT_EQ(table.Get(1), 200u);
}

TEST(Table, FiltersGateDataAccesses) {
  TableOptions options;
  options.memtable_entries = 5000;
  options.filter_name = "PF[CF12-Flex]";
  Table table(options);
  Xoshiro256 rng(153);
  for (int i = 0; i < 50000; ++i) table.Put(rng.Next(), 1);
  table.Flush();
  const uint64_t misses = 100000;
  for (uint64_t i = 0; i < misses; ++i) table.Get(rng.Next());
  // 10 runs x 100k misses = 1M potential futile accesses; the filters
  // should eliminate >99% of them.
  EXPECT_LT(table.FutileAccesses(), misses * table.NumRuns() / 100);
  EXPECT_GT(table.FilterBytes(), 0u);
}

TEST(Table, CompactMergesToOneRunAndPreservesData) {
  TableOptions options;
  options.memtable_entries = 500;
  Table table(options);
  Xoshiro256 rng(154);
  std::vector<std::pair<uint64_t, uint64_t>> kvs;
  for (int i = 0; i < 5000; ++i) kvs.push_back({rng.Next(), rng.Next()});
  for (auto [k, v] : kvs) table.Put(k, v);
  table.Flush();
  ASSERT_GT(table.NumRuns(), 1u);
  table.Compact();
  EXPECT_EQ(table.NumRuns(), 1u);
  for (auto [k, v] : kvs) {
    const auto got = table.Get(k);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }
}

TEST(Table, CompactKeepsNewestVersion) {
  TableOptions options;
  options.memtable_entries = 2;
  Table table(options);
  table.Put(42, 1);
  table.Put(43, 1);  // seals run 1
  table.Put(42, 2);
  table.Put(44, 1);  // seals run 2
  table.Compact();
  EXPECT_EQ(table.NumRuns(), 1u);
  EXPECT_EQ(table.Get(42), 2u);
}

TEST(Table, CompactReducesPerLookupProbes) {
  TableOptions options;
  options.memtable_entries = 1000;
  options.filter_name = "";  // no filters: probes go straight to data
  Table table(options);
  Xoshiro256 rng(155);
  for (int i = 0; i < 10000; ++i) table.Put(rng.Next(), 1);
  table.Flush();
  const size_t runs_before = table.NumRuns();
  for (int i = 0; i < 1000; ++i) table.Get(rng.Next());
  const uint64_t probes_fragmented = table.DataAccesses();
  EXPECT_EQ(probes_fragmented, 1000 * runs_before);
  table.Compact();
  for (int i = 0; i < 1000; ++i) table.Get(rng.Next());
  EXPECT_EQ(table.DataAccesses(), 1000u);  // counters reset with new run
}

TEST(Table, GetFromMemtableBeforeFlush) {
  Table table;
  table.Put(77, 88);
  EXPECT_EQ(table.Get(77), 88u);
  EXPECT_EQ(table.NumRuns(), 0u);
  EXPECT_FALSE(table.Get(78).has_value());
}

}  // namespace
}  // namespace prefixfilter::lsm
