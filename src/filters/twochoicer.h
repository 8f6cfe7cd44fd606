// TwoChoicer "TC": the paper's re-implementation of the vector quotient
// filter (Pandey et al. [42]) on top of the pocket dictionary (§7.1.1).
//
// Structure: an array of PD512 bins ("mini-filters": Q=80, R=8, k=48, one
// cache line each).  Every key hashes to two candidate bins and to a
// (quotient, remainder) mini-fingerprint; insertion places the fingerprint
// in the less-loaded bin (power-of-two-choices), so insertion time is
// constant at any load — the property the paper contrasts with the cuckoo
// filter's kick loop.  The price is that *every* query must inspect both
// bins, i.e. two cache misses per negative query (Table 1).
//
// Insertion shortcut: below a threshold occupancy the first bin is used
// without loading the second.  This makes low-load insertions single-line
// and explains the throughput knee the paper observes for TC at ~50% load
// (§7.3: "TC's throughput degrades when the load exceeds 50% due to its
// insertion shortcut optimization").
#ifndef PREFIXFILTER_SRC_FILTERS_TWOCHOICER_H_
#define PREFIXFILTER_SRC_FILTERS_TWOCHOICER_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/pd/pd512.h"
#include "src/util/aligned.h"
#include "src/util/batch_pipeline.h"
#include "src/util/hash.h"
#include "src/util/serialize.h"

namespace prefixfilter {

class TwoChoicer {
 public:
  static constexpr double kMaxLoadFactor = 0.935;
  // Shortcut threshold: with bins of 48 and max load 93.5%, the average bin
  // holds ~44.9*load fingerprints; 24 puts the knee at ~50% filter load.
  static constexpr int kShortcutOccupancy = 24;

  explicit TwoChoicer(uint64_t capacity, uint64_t seed = 0x7c01u)
      : capacity_(capacity),
        num_bins_(std::max<uint64_t>(
            2, static_cast<uint64_t>(std::ceil(
                   capacity / (kMaxLoadFactor * PD512::kCapacity))))),
        bins_(num_bins_),
        hash_(seed),
        seed_(seed) {}

  bool Insert(uint64_t key) {
    const uint64_t h = hash_(key);
    uint64_t b1, b2;
    int q;
    uint8_t r;
    Fingerprint(h, &b1, &b2, &q, &r);
    PD512& pd1 = bins_[b1];
    const int t1 = pd1.Size();
    if (t1 < kShortcutOccupancy) {
      pd1.Insert(q, r);
      ++size_;
      return true;
    }
    PD512& pd2 = bins_[b2];
    const int t2 = pd2.Size();
    PD512& target = (t1 <= t2) ? pd1 : pd2;
    if (!target.Insert(q, r)) return false;  // both bins full: failure
    ++size_;
    return true;
  }

  // A key's two candidate bins and mini-fingerprint, hashed once.  The
  // prefix filter locates a spare-bound key, prefetches its bins and tests
  // it later from the same Probe, so the key is not hashed twice.
  struct Probe {
    uint64_t b1;
    uint64_t b2;
    int q;
    uint8_t r;
  };

  Probe Locate(uint64_t key) const {
    Probe p;
    Fingerprint(hash_(key), &p.b1, &p.b2, &p.q, &p.r);
    return p;
  }

  // The paper's query: the branching bin test, second bin only on a miss.
  // In a scalar loop the predicted branches let the core run ahead into the
  // next keys' bin loads.  Over a 48 MB table (n = 2^25; Xeon, GCC 12) the
  // branch-free Contains(Probe) ran 1.9x (present keys) to 2.6x (absent
  // keys) slower in such a loop.
  bool Contains(uint64_t key) const {
    const Probe p = Locate(key);
    return bins_[p.b1].FindBranching(p.q, p.r) ||
           bins_[p.b2].FindBranching(p.q, p.r);
  }

  // The prefix filter's batch test, after Prefetch(p) has loaded both bins:
  // tests both and ORs the answers, with no short-circuit jump, whose
  // outcome a mix of present and absent keys makes unpredictable.
  bool Contains(const Probe& p) const {
    return bins_[p.b1].Find(p.q, p.r) | bins_[p.b2].Find(p.q, p.r);
  }

  // Prefetches the lines Contains(p) reads: both candidate bins.  The
  // prefix filter calls this on a spare-bound key well before it resolves
  // it, so the two misses overlap instead of following one another.
  void Prefetch(const Probe& p) const {
    PrefetchLine(&bins_[p.b1]);
    PrefetchLine(&bins_[p.b2]);
  }

  uint64_t size() const { return size_; }
  uint64_t capacity() const { return capacity_; }
  size_t SpaceBytes() const { return bins_.SizeBytes(); }
  uint64_t num_bins() const { return num_bins_; }
  std::string Name() const { return "TC"; }

  // --- persistence ----------------------------------------------------------

  static constexpr uint32_t kMagic = 0x50465443;  // "PFTC"

  void SerializeTo(std::vector<uint8_t>* out) const {
    ByteWriter w(out);
    w.U32(kMagic);
    w.U8(1);
    w.U64(capacity_);
    w.U64(seed_);
    w.U64(size_);
    w.Raw(bins_.data(), bins_.SizeBytes());
  }

  static std::optional<TwoChoicer> Deserialize(const uint8_t* data,
                                               size_t len) {
    ByteReader r(data, len);
    if (r.U32() != kMagic || r.U8() != 1) return std::nullopt;
    const uint64_t capacity = r.U64();
    const uint64_t seed = r.U64();
    const uint64_t size = r.U64();
    if (!r.ok() || capacity == 0) return std::nullopt;
    const uint64_t bins = std::max<uint64_t>(
        2, static_cast<uint64_t>(std::ceil(
               capacity / (kMaxLoadFactor * PD512::kCapacity))));
    if (bins > r.remaining() / sizeof(PD512) + 1 ||
        RoundUpToCacheLine(bins * sizeof(PD512)) != r.remaining()) {
      return std::nullopt;
    }
    TwoChoicer f(capacity, seed);
    if (!r.Raw(f.bins_.data(), f.bins_.SizeBytes()) || r.remaining() != 0) {
      return std::nullopt;
    }
    f.size_ = size;
    return f;
  }

 private:
  void Fingerprint(uint64_t h, uint64_t* b1, uint64_t* b2, int* q,
                   uint8_t* r) const {
    *b1 = FastRange64(h, num_bins_);
    const uint64_t g = Mix64(h);
    *b2 = FastRange64(g, num_bins_);
    *q = static_cast<int>(
        FastRange32(static_cast<uint32_t>(g >> 8), PD512::kNumLists));
    *r = static_cast<uint8_t>(g);
  }

  uint64_t capacity_;
  uint64_t num_bins_;
  AlignedBuffer<PD512> bins_;
  Dietzfelbinger64 hash_;
  uint64_t seed_;
  uint64_t size_ = 0;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_FILTERS_TWOCHOICER_H_
