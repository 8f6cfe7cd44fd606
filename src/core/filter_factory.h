// Type-erased filter interface and by-name factory.
//
// The benchmarks use concrete filter types (templates, no virtual dispatch
// in timing loops); the examples and the LSM substrate want to switch
// filter implementations at run time.  AnyFilter wraps every filter in this
// library behind a uniform incremental-filter interface, including batched
// queries and a name-tagged wire format.
#ifndef PREFIXFILTER_SRC_CORE_FILTER_FACTORY_H_
#define PREFIXFILTER_SRC_CORE_FILTER_FACTORY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace prefixfilter {

// Detects a concrete filter's prefetching byte-output batch path
// (`void ContainsBatch(const uint64_t*, size_t, uint8_t*) const`).  The
// adapter below, the benches, and the differential-test harness all use this
// to route batches to the concrete loop when one exists.
template <typename F, typename = void>
struct HasByteBatch : std::false_type {};
template <typename F>
struct HasByteBatch<
    F, std::void_t<decltype(std::declval<const F&>().ContainsBatch(
           static_cast<const uint64_t*>(nullptr), size_t{0},
           static_cast<uint8_t*>(nullptr)))>> : std::true_type {};

// Detects a concrete filter's batched insert
// (`uint64_t InsertBatch(const uint64_t*, size_t)`, returning the failure
// count).  FilterAdapter::InsertBatch routes to it when one exists.
template <typename F, typename = void>
struct HasInsertBatch : std::false_type {};
template <typename F>
struct HasInsertBatch<
    F, std::enable_if_t<std::is_same_v<
           decltype(std::declval<F&>().InsertBatch(
               static_cast<const uint64_t*>(nullptr), size_t{0})),
           uint64_t>>> : std::true_type {};

// Batch probe over a CONCRETE filter: its prefetching byte-batch path if it
// has one, otherwise a concrete (devirtualized) scalar loop.
template <typename F>
void ContainsBatchOrScalar(const F& filter, const uint64_t* keys, size_t count,
                           uint8_t* out) {
  if constexpr (HasByteBatch<F>::value) {
    filter.ContainsBatch(keys, count, out);
  } else {
    for (size_t i = 0; i < count; ++i) out[i] = filter.Contains(keys[i]) ? 1 : 0;
  }
}

// The incremental-filter contract (paper §2): Insert may assume the key is
// not already present; Contains never reports a false negative.
class AnyFilter {
 public:
  virtual ~AnyFilter() = default;

  // Returns false iff the filter failed to absorb the key.
  virtual bool Insert(uint64_t key) = 0;
  virtual bool Contains(uint64_t key) const = 0;

  // Batched membership: out[i] = 1 if keys[i] may be present, else 0.
  // Implementations run a concrete loop: one virtual dispatch per batch,
  // not per key.
  virtual void ContainsBatch(const uint64_t* keys, size_t count,
                             uint8_t* out) const = 0;

  // Batched insert: returns the number of FAILED inserts (0 == every key
  // absorbed), the service and wire-protocol convention.
  virtual uint64_t InsertBatch(const uint64_t* keys, size_t count) = 0;

  // Appends a self-describing snapshot (envelope: magic + factory name +
  // payload) that DeserializeFilter() can restore without knowing the
  // concrete type.  Returns false iff this filter has no wire format.
  virtual bool SerializeTo(std::vector<uint8_t>* out) const = 0;

  virtual size_t SpaceBytes() const = 0;
  virtual uint64_t Capacity() const = 0;
  virtual std::string Name() const = 0;
};

// Constructs a filter by configuration name for up to `capacity` keys.
//
// Accepted names (KnownFilterNames() is the authoritative list; every entry
// below is spelled exactly as MakeFilter() matches it):
//   Bloom family:  "BF-8", "BF-12", "BF-16", "BBF", "BBF-Flex",
//                  "FMB32", "FMB64" (fast_multiblock SIMD kernels)
//   Cuckoo family: "CF-8", "CF-8-Flex", "CF-12", "CF-12-Flex", "CF-16",
//                  "CF-16-Flex"
//   Others:        "TC"
//   Prefix filter: "PF[BBF-Flex]", "PF[CF12-Flex]", "PF[TC]"
// The prefix-filter spare tag "CF12-Flex" (no dash, the spare's own Name())
// intentionally differs from the standalone "CF-12-Flex"; the alias
// "PF[CF-12-Flex]" is accepted and canonicalized to "PF[CF12-Flex]".
// Returns nullptr for unknown names.
std::unique_ptr<AnyFilter> MakeFilter(const std::string& name,
                                      uint64_t capacity, uint64_t seed = 42);

// All configuration names MakeFilter understands, in Table 3 order (aliases
// omitted).
std::vector<std::string> KnownFilterNames();

// Restores a filter from an AnyFilter::SerializeTo image.  Returns nullptr
// on unknown names, corrupted headers, or payload/type mismatches.
std::unique_ptr<AnyFilter> DeserializeFilter(const uint8_t* data, size_t len);

// Every AnyFilter snapshot starts with this envelope: magic, format version,
// then the length-prefixed configuration name, then the concrete filter's
// own payload.  Exposed for AnyFilter implementations outside the factory
// that write and read their envelope themselves.
inline constexpr uint32_t kAnyFilterMagic = 0x50464145;  // "PFAE"
void WriteFilterEnvelope(const std::string& factory_name,
                         std::vector<uint8_t>* out);

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_CORE_FILTER_FACTORY_H_
