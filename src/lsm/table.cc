#include "src/lsm/table.h"

#include <utility>

namespace prefixfilter::lsm {

void Table::Put(uint64_t key, uint64_t value) {
  memtable_[key] = value;
  if (memtable_.size() >= options_.memtable_entries) Flush();
}

void Table::Flush() {
  if (memtable_.empty()) return;
  std::vector<std::pair<uint64_t, uint64_t>> entries(memtable_.begin(),
                                                     memtable_.end());
  memtable_.clear();
  if (options_.filter_service != nullptr && service_filter_ok_) {
    // Feed the sealed keys to the shared membership service before the run
    // becomes probe-able, so the table-level gate never under-approximates
    // the run set.
    std::vector<uint64_t> keys;
    keys.reserve(entries.size());
    for (const auto& [key, value] : entries) keys.push_back(key);
    const uint64_t failures =
        options_.filter_service->InsertBatchSync(keys.data(), keys.size());
    if (failures != 0) service_filter_ok_ = false;
  }
  runs_.push_back(std::make_unique<Run>(std::move(entries),
                                        options_.filter_name,
                                        options_.seed + run_counter_));
  ++run_counter_;
}

void Table::Compact() {
  Flush();
  if (runs_.size() <= 1) return;
  // Oldest-to-newest replay: later writes overwrite earlier ones.
  std::map<uint64_t, uint64_t> merged;
  for (const auto& run : runs_) {
    const auto& keys = run->keys();
    const auto& values = run->values();
    for (size_t i = 0; i < keys.size(); ++i) merged[keys[i]] = values[i];
  }
  std::vector<std::pair<uint64_t, uint64_t>> entries(merged.begin(),
                                                     merged.end());
  runs_.clear();
  runs_.push_back(std::make_unique<Run>(std::move(entries),
                                        options_.filter_name,
                                        options_.seed + run_counter_));
  ++run_counter_;
}

bool Table::ServiceGateUsable() const {
  return options_.filter_service != nullptr && service_filter_ok_;
}

std::optional<uint64_t> Table::Get(uint64_t key) const {
  if (const auto it = memtable_.find(key); it != memtable_.end()) {
    return it->second;
  }
  // Table-level gate: one sharded-filter probe instead of a walk over every
  // run's filter (no false negatives, so a miss proves absence).
  if (ServiceGateUsable() && !runs_.empty() &&
      !options_.filter_service->filter().Contains(key)) {
    return std::nullopt;
  }
  // Newest run first: later writes shadow earlier ones.
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    if (auto v = (*it)->Get(key)) return v;
  }
  return std::nullopt;
}

std::vector<std::optional<uint64_t>> Table::MultiGet(
    const std::vector<uint64_t>& keys) const {
  std::vector<std::optional<uint64_t>> results(keys.size());
  std::vector<uint8_t> maybe_present;
  if (ServiceGateUsable() && !runs_.empty()) {
    maybe_present.resize(keys.size());
    options_.filter_service->QueryBatchSync(keys.data(), keys.size(),
                                            maybe_present.data());
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    if (const auto it = memtable_.find(keys[i]); it != memtable_.end()) {
      results[i] = it->second;
      continue;
    }
    if (!maybe_present.empty() && maybe_present[i] == 0) continue;
    for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
      if (auto v = (*it)->Get(keys[i])) {
        results[i] = v;
        break;
      }
    }
  }
  return results;
}

size_t Table::FilterBytes() const {
  size_t total = 0;
  for (const auto& run : runs_) total += run->FilterBytes();
  return total;
}

size_t Table::DataBytes() const {
  size_t total = 0;
  for (const auto& run : runs_) total += run->DataBytes();
  return total;
}

uint64_t Table::DataAccesses() const {
  uint64_t total = 0;
  for (const auto& run : runs_) total += run->data_accesses();
  return total;
}

uint64_t Table::FutileAccesses() const {
  uint64_t total = 0;
  for (const auto& run : runs_) total += run->futile_accesses();
  return total;
}

}  // namespace prefixfilter::lsm
