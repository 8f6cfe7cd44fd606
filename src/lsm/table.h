// A miniature LSM table: a memtable plus levels of immutable runs, each run
// guarded by an incremental filter (paper §1's motivating application).
//
// Writes go to an in-memory buffer; when it fills, it is sealed into an
// immutable Run (building the run's filter exactly once — the paper's
// "build time" workload, §7.4).  Reads probe the memtable, then runs from
// newest to oldest; each run's filter short-circuits runs that cannot
// contain the key, so the filter quality directly controls how many counted
// "I/Os" a point lookup costs.
#ifndef PREFIXFILTER_SRC_LSM_TABLE_H_
#define PREFIXFILTER_SRC_LSM_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/lsm/run.h"
#include "src/service/filter_service.h"

namespace prefixfilter::lsm {

struct TableOptions {
  size_t memtable_entries = 64 * 1024;  // seal threshold
  std::string filter_name = "PF[TC]";   // filter per run ("" = none)
  uint64_t seed = 0x15a7ab1eu;
  // Optional shared membership service: when set, every sealed run's keys
  // are batch-inserted into the service's sharded filter, and Get consults
  // it as a table-level gate before probing any run (one sharded-filter
  // query saves a whole newest-to-oldest run walk for absent keys), while
  // MultiGet batches the gate through the service queue.  The service's
  // filter must be provisioned for the table's total key volume (duplicate
  // Puts of a key across memtables re-insert it); if it ever fails to absorb
  // a key the table stops consulting it — correctness (no lost keys) is
  // preserved, only the shortcut is lost.  The service may be shared by many
  // tables or other clients.
  std::shared_ptr<FilterService> filter_service;
};

class Table {
 public:
  explicit Table(TableOptions options = {}) : options_(options) {}

  void Put(uint64_t key, uint64_t value);
  std::optional<uint64_t> Get(uint64_t key) const;

  // Batched point lookups (results positionally parallel to `keys`).  With a
  // filter_service configured, the table-level gate for the whole batch is
  // one QueryBatchSync call through the service's shard-routing path.
  std::vector<std::optional<uint64_t>> MultiGet(
      const std::vector<uint64_t>& keys) const;

  // Seals the current memtable into a run (no-op when empty).
  void Flush();

  // Merges all runs (and the memtable) into a single run, dropping shadowed
  // versions and building one fresh filter — the LSM compaction that makes
  // "filters are built once per immutable run" the common case (§1).
  void Compact();

  size_t NumRuns() const { return runs_.size(); }
  size_t FilterBytes() const;
  size_t DataBytes() const;
  // Total counted data accesses across runs (the "I/O" the filters gate).
  uint64_t DataAccesses() const;
  uint64_t FutileAccesses() const;

 private:
  // True while the shared service filter can be trusted as a gate (set to
  // false forever if it ever fails to absorb a key: a key missing from the
  // filter would otherwise read as a false negative and lose the key).
  bool ServiceGateUsable() const;

  TableOptions options_;
  std::map<uint64_t, uint64_t> memtable_;
  std::vector<std::unique_ptr<Run>> runs_;  // newest last
  uint64_t run_counter_ = 0;
  bool service_filter_ok_ = true;
};

}  // namespace prefixfilter::lsm

#endif  // PREFIXFILTER_SRC_LSM_TABLE_H_
