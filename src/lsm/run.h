// An immutable sorted run — the storage unit of an LSM tree (paper §1).
//
// The paper motivates incremental filters with log-structured merge trees:
// data lives in immutable sorted files ("runs"), each guarded by an
// in-memory filter built once at run creation and only queried afterwards.
// This module is a compact in-memory model of that substrate: a sorted
// key/value array with binary search, an access counter standing in for
// the "slow data store" I/O the filter is meant to save, and an attached
// incremental filter.
#ifndef PREFIXFILTER_SRC_LSM_RUN_H_
#define PREFIXFILTER_SRC_LSM_RUN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/filter_factory.h"

namespace prefixfilter::lsm {

class Run {
 public:
  // Builds a run from entries (sorted by key internally; duplicate keys keep
  // the last value).  A filter of configuration `filter_name` is built over
  // the keys; an empty name, or a filter that fails any insert, disables
  // filtering (every Get probes the data).
  Run(std::vector<std::pair<uint64_t, uint64_t>> entries,
      const std::string& filter_name, uint64_t seed);

  // Point lookup.  Consults the filter first: a negative filter response
  // skips the (counted) data access entirely.
  std::optional<uint64_t> Get(uint64_t key) const;

  size_t NumEntries() const { return keys_.size(); }
  size_t DataBytes() const {
    return (keys_.size() + values_.size()) * sizeof(uint64_t);
  }
  size_t FilterBytes() const { return filter_ ? filter_->SpaceBytes() : 0; }

  // Number of binary searches performed (the stand-in for disk I/O).
  uint64_t data_accesses() const { return data_accesses_; }
  // Of those, how many found nothing (futile I/O a better filter would save).
  uint64_t futile_accesses() const { return futile_accesses_; }

  uint64_t MinKey() const { return keys_.empty() ? 0 : keys_.front(); }
  uint64_t MaxKey() const { return keys_.empty() ? 0 : keys_.back(); }

  // Read access for compaction (runs are immutable; merging builds new ones).
  const std::vector<uint64_t>& keys() const { return keys_; }
  const std::vector<uint64_t>& values() const { return values_; }

 private:
  std::vector<uint64_t> keys_;    // sorted
  std::vector<uint64_t> values_;  // parallel to keys_
  std::unique_ptr<AnyFilter> filter_;
  mutable uint64_t data_accesses_ = 0;
  mutable uint64_t futile_accesses_ = 0;
};

}  // namespace prefixfilter::lsm

#endif  // PREFIXFILTER_SRC_LSM_RUN_H_
