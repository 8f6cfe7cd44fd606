// Fuzz target: the PFAE snapshot surface.  Every input goes to both
// restore paths: DeserializeFilter, which every factory configuration (all
// 11 concrete families) restores through, and ShardedFilter::Deserialize,
// which restores the sharded service's SHARD<n>[PF[TC]] snapshots.
//
// Any input must either be rejected (nullptr) or produce a fully working
// filter: queries answer, serialization round-trips, and the round-tripped
// image restores again through the same path.  A restored-but-broken
// filter is a bug even if nothing crashes.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/filter_factory.h"
#include "src/service/sharded_filter.h"

namespace {

template <typename RestoreFn>
void Exercise(prefixfilter::AnyFilter& filter, RestoreFn restore) {
  // The restored filter must be usable: probe the whole AnyFilter surface.
  const uint64_t keys[4] = {0, 1, 0x9e3779b97f4a7c15ULL, ~uint64_t{0}};
  uint8_t out[4] = {0, 0, 0, 0};
  filter.ContainsBatch(keys, 4, out);
  for (uint64_t key : keys) (void)filter.Contains(key);
  (void)filter.SpaceBytes();
  (void)filter.Capacity();
  (void)filter.Name();
  // A full filter may legitimately refuse inserts; it must not crash.
  (void)filter.Insert(0x5eedULL);
  (void)filter.InsertBatch(keys, 4);

  // Serialization round-trip: what a valid envelope restores must itself
  // re-serialize into a restorable envelope.
  std::vector<uint8_t> reserialized;
  if (filter.SerializeTo(&reserialized)) {
    auto again = restore(reserialized.data(), reserialized.size());
    if (again == nullptr) __builtin_trap();
    if (again->Name() != filter.Name()) __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (auto filter = prefixfilter::DeserializeFilter(data, size)) {
    Exercise(*filter, prefixfilter::DeserializeFilter);
  }
  if (auto sharded = prefixfilter::ShardedFilter::Deserialize(data, size)) {
    Exercise(*sharded, prefixfilter::ShardedFilter::Deserialize);
  }
  return 0;
}
