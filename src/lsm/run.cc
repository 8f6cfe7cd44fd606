#include "src/lsm/run.h"

#include <algorithm>

namespace prefixfilter::lsm {

Run::Run(std::vector<std::pair<uint64_t, uint64_t>> entries,
         const std::string& filter_name, uint64_t seed) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  keys_.reserve(entries.size());
  values_.reserve(entries.size());
  for (const auto& [k, v] : entries) {
    if (!keys_.empty() && keys_.back() == k) {
      values_.back() = v;  // keep the last write
      continue;
    }
    keys_.push_back(k);
    values_.push_back(v);
  }
  if (!filter_name.empty() && !keys_.empty()) {
    filter_ = MakeFilter(filter_name, keys_.size(), seed);
    // A filter that failed to absorb a key would answer false negatives, so
    // the run goes filterless instead (Table's service gate does the same).
    if (filter_ != nullptr &&
        filter_->InsertBatch(keys_.data(), keys_.size()) != 0) {
      filter_ = nullptr;
    }
  }
}

std::optional<uint64_t> Run::Get(uint64_t key) const {
  if (filter_ != nullptr && !filter_->Contains(key)) {
    return std::nullopt;  // guaranteed absent: data access saved
  }
  ++data_accesses_;
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) {
    ++futile_accesses_;
    return std::nullopt;
  }
  return values_[static_cast<size_t>(it - keys_.begin())];
}

}  // namespace prefixfilter::lsm
