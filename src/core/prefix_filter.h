// The prefix filter (paper §4): an incremental filter whose operations
// typically touch a single cache line.
//
// Two-level structure:
//   * Level 1, the *bin table*: m = ceil(n / (alpha * k)) pocket dictionaries
//     PD(25, 8, 25), two per cache line.  A key's fingerprint
//     FP(x) = (bin(x), fp(x)) maps it to one bin and to a mini-fingerprint
//     fp(x) = (q, r) in [25] x [256] (s = 6400, so k/s = 1/256).
//   * Level 2, the *spare*: any incremental filter over the fingerprint
//     universe, holding the fingerprints that do not fit in the bin table.
//
// Insertion (Algorithm 1) maintains the Prefix Invariant: a full bin keeps a
// maximal *prefix* of the sorted multiset of mini-fingerprints mapped to it,
// by always forwarding the maximum of {resident fingerprints} U {new one} to
// the spare.  Queries (Algorithm 2) therefore consult the spare only when
// the bin has overflowed AND the probed fingerprint is larger than the bin's
// maximum — which happens with probability <= 1/sqrt(2*pi*k) (Theorem 17).
// This is what removes the second cache miss that cuckoo/two-choice filters
// pay on every negative query.
//
// The spare's capacity is fixed at construction: n' = slack * E[X], where
// E[X] (the expected number of forwarded fingerprints) is computed exactly
// from the binomial analysis of §6.1, and slack defaults to the paper's 1.1.
//
// Both batch paths, ContainsBatch and InsertBatch, run the rolling prefetch
// pipeline of batch_pipeline.h so that the bin misses of a batch overlap.
// Each is the identity-index case of one body (ContainsIndexed,
// InsertIndexed) that also runs a list of key positions, which is how a
// sharded filter probes one shard's keys of a routed batch in place.
// In ContainsBatch, Algorithm 2's spare test is one comparison that only
// the ~6% of keys it sends to the spare branch on; those keys wait on a
// fixed 32-key queue with their spare lines prefetched, so the spare misses
// overlap too.
// InsertBatch prefetches each bin line for write D keys ahead and then
// applies the keys strictly in input order through the same body as
// Insert(), so a batched build ends bit-identical to an Insert() loop: bin
// table, spare, stats() and snapshot bytes.
#ifndef PREFIXFILTER_SRC_CORE_PREFIX_FILTER_H_
#define PREFIXFILTER_SRC_CORE_PREFIX_FILTER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/bounds.h"
#include "src/core/prefix_filter_stats.h"
#include "src/pd/pd256.h"
#include "src/util/aligned.h"
#include "src/util/batch_pipeline.h"
#include "src/util/hash.h"
#include "src/util/serialize.h"

namespace prefixfilter {

struct PrefixFilterOptions {
  // Maximal load factor of the bin table (the paper evaluates 0.95; 1.0
  // reproduces the worst-case analysis setting m = n/k).
  double bin_load_factor = 0.95;
  // Spare capacity slack over E[X] (§4.2.1 suggests 1.1; §6.1.1 shows 1.015
  // suffices for n >= 2^28 * k).
  double spare_slack = 1.1;
  // §4.4: query the spare before forwarding and skip duplicate fingerprints.
  // Off by default, matching the paper's prototype.
  bool avoid_spare_duplicates = false;
  uint64_t seed = 0x9f1e61a5u;
};

// SpareTraits must provide:
//   using FilterType = ...;                      // the spare filter
//   static FilterType Create(uint64_t n_prime, uint64_t seed);
//   static const char* Name();
// where FilterType supports Insert(uint64_t) -> bool, Contains(uint64_t)
// const -> bool, SpaceBytes() const, and the batch probe contract:
//   using Probe = ...;                    // a located key
//   Probe Locate(uint64_t key) const;     // hashes the key, once
//   void Prefetch(const Probe&) const;
//   bool Contains(const Probe&) const;    // == Contains(key)
// Prefetch(p) prefetches every line Contains(p) may read (e.g. both
// candidate bins of a two-choice table) and nothing else.  The batch path
// locates a spare-bound key once, prefetches it, and tests the same Probe
// later, so the key is hashed and its bins derived only once.  A spare
// whose probe needs no hashing can make Probe the key itself (BBF, CF12).
// Create() applies the §7.1.1 failure-avoidance sizing for that spare type.
template <typename SpareTraits>
class PrefixFilter {
 public:
  using Spare = typename SpareTraits::FilterType;

  static constexpr uint32_t kBinCapacity = PD256::kCapacity;   // k = 25
  static constexpr uint32_t kNumLists = PD256::kNumLists;      // 25
  static constexpr uint32_t kMiniFpRange = kNumLists * 256;    // s = 6400
  // Spare-bound keys ContainsBatch holds back before probing the spare.
  static constexpr size_t kSpareQueueSize = 32;

  explicit PrefixFilter(uint64_t capacity, PrefixFilterOptions options = {})
      : capacity_(capacity),
        options_(options),
        num_bins_(NumBins(capacity, options.bin_load_factor)),
        spare_capacity_(analysis::SpareCapacity(capacity, num_bins_,
                                                kBinCapacity,
                                                options.spare_slack)),
        bins_(num_bins_),
        spare_(SpareTraits::Create(spare_capacity_, options.seed ^ 0x51a7eull)),
        hash_(options.seed) {}

  // Inserts a key (assumed not already present, per the incremental-filter
  // contract).  Returns false iff the filter failed, i.e. the spare could
  // not absorb a forwarded fingerprint.
  bool Insert(uint64_t key) { return InsertHashed(hash_(key)); }

  // Batched insert of keys[0..count); returns the number of failed inserts.
  // While key i is applied through InsertHashed, key i + D is hashed and its
  // bin line prefetched for write.  A forwarded fingerprint (~6% of inserts
  // at full load) goes to the spare inline; a spare prefetch ahead of it
  // measured within run-to-run spread on a ~190 MB table.  Keys apply in
  // input order, so the result equals an Insert() loop's (file comment).
  uint64_t InsertBatch(const uint64_t* keys, size_t count) {
    return InsertIndexed(keys, IdentityIndex{}, count);
  }

  // InsertBatch over the keys at positions index[0..count) of `keys`,
  // applied in list order (a sharded filter passes one shard's ascending
  // positions of a routed batch).  InsertBatch is the identity-index case.
  template <typename Index>
  uint64_t InsertIndexed(const uint64_t* keys, const Index& index,
                         size_t count) {
    uint64_t failures = 0;
    RunPrefetchPipeline(
        keys, index, count, hash_,
        [this](uint64_t h) {
          PrefetchLineForWrite(&bins_[HashParts::Bin(h, num_bins_)]);
        },
        [&](size_t, uint64_t h) { failures += !InsertHashed(h); });
    return failures;
  }

  // Approximate membership: no false negatives; false positives with
  // probability bounded by FprBound().  Implements Algorithm 2 (ProbeBin,
  // then the spare when the bin cannot answer).
  bool Contains(uint64_t key) const {
    ++stats_.queries;
    bool hit = false;
    uint64_t spare_key = 0;
    if (ProbeBin(hash_(key), &hit, &spare_key)) {
      return spare_.Contains(spare_key);
    }
    return hit;
  }

  // Batched membership; 0/1 answers go to out[0..count), in key order.
  //
  // On a table larger than the cache each query is a DRAM miss, so the batch
  // path exists to overlap those misses.  It runs the rolling prefetch
  // pipeline of batch_pipeline.h: while key i is resolved against its bin,
  // key i + D is hashed and its bin prefetched.  Almost every key ends there,
  // in one cache line (Theorem 2(3)).  Every key writes its bin answer, and
  // Algorithm 2's spare test (bin overflowed AND fp(x) > bin maximum) is one
  // comparison against PD256::SpareCutoff(), which folds the overflow flag
  // into the maximum.  About a third of the bins of a full table have
  // overflowed, so testing the flag first is an unpredictable branch on
  // every key; the one branch left is taken only by the few keys
  // (<= 1/sqrt(2*pi*k), ~5.7% measured) the test sends to the spare.  Each
  // goes on a fixed on-stack queue of kSpareQueueSize keys with its spare
  // lines prefetched (Spare::Prefetch), and the queue is resolved with
  // Spare::Contains, overwriting those keys' bin answers, when it fills and
  // at the end of the batch.  The spare misses thus overlap each other and
  // the bin pipeline instead of stalling it one at a time.  On PF[TC] at
  // n = 0.94 * 2^27 (perfbench inproc-large, traced medians) this took the
  // ladder's core rung from 43.6 to 31.9 ns/key, its shard rung from 50.9
  // to 33.8 and its service sync rung from 51.9 to 39.0.  The bin test
  // itself (PD256::Find) has no data-dependent branch on BMI2 builds, which
  // matters on random mixes of present and absent keys: on perfbench
  // wire-bulk's 50/50 stream (6 MB table, traced medians of three run
  // pairs) it took the core rung from 26.2 to 19.0 ns/key, the shard rung
  // from 35.8 to 22.2 and the service sync rung from 35.9 to 23.5.  On an
  // all-negative stream, where the paper's v_r == 0 jump was always
  // predicted, the extra header work costs a few cycles instead.
  // A queued key is located in the spare once (Spare::Locate), and the
  // prefetch and the test both use that Probe.
  // Answers and stats() totals equal those of a Contains() loop.
  void ContainsBatch(const uint64_t* keys, size_t count, uint8_t* out) const {
    ContainsIndexed(keys, IdentityIndex{}, count, out);
  }

  // ContainsBatch over the keys at positions index[0..count) of `keys`:
  // out[index[j]] answers keys[index[j]], and no other byte of `out` is
  // written.  Returns the number of hits.  ContainsBatch is the
  // identity-index case; a sharded filter passes one shard's positions of a
  // routed batch, so answers land in the caller's order with no copy.
  template <typename Index>
  uint64_t ContainsIndexed(const uint64_t* keys, const Index& index,
                           size_t count, uint8_t* out) const {
    stats_.queries += count;
    typename Spare::Probe spare_probes[kSpareQueueSize];
    size_t spare_slots[kSpareQueueSize];
    size_t queued = 0;
    uint64_t hits = 0;
    const auto resolve_spare_queue = [&] {
      for (size_t j = 0; j < queued; ++j) {
        // Overwrites a bin answer of 0: a spare-bound fingerprint exceeds
        // every fingerprint its bin holds.
        const uint8_t hit = spare_.Contains(spare_probes[j]) ? 1 : 0;
        out[spare_slots[j]] = hit;
        hits += hit;
      }
      stats_.spare_queries += queued;
      queued = 0;
    };
    RunPrefetchPipeline(
        keys, index, count, hash_,
        [this](uint64_t h) {
          PrefetchLine(&bins_[HashParts::Bin(h, num_bins_)]);
        },
        [&](size_t i, uint64_t h) {
          const uint64_t b = HashParts::Bin(h, num_bins_);
          const int q = static_cast<int>(HashParts::Quotient(h, kNumLists));
          const uint8_t r = HashParts::Remainder(h);
          const PD256& bin = bins_[b];
          const uint16_t fp = MiniFp(q, r);
          // Written before the enqueue below: the key that fills the queue
          // must have its bin answer in place before the queue overwrites it.
          const uint8_t hit = bin.Find(q, r) ? 1 : 0;
          out[i] = hit;
          hits += hit;
          if (fp > bin.SpareCutoff()) {
            spare_probes[queued] = spare_.Locate(SpareKey(b, fp));
            spare_slots[queued] = i;
            spare_.Prefetch(spare_probes[queued]);
            if (++queued == kSpareQueueSize) resolve_spare_queue();
          }
        });
    resolve_spare_queue();
    return hits;
  }

  uint64_t size() const { return stats_.inserts; }
  uint64_t capacity() const { return capacity_; }
  uint64_t num_bins() const { return num_bins_; }
  uint64_t spare_capacity() const { return spare_capacity_; }

  size_t SpaceBytes() const { return bins_.SizeBytes() + spare_.SpaceBytes(); }
  double BitsPerKey() const {
    return 8.0 * static_cast<double>(SpaceBytes()) /
           static_cast<double>(capacity_);
  }

  // Corollary 31: analytic upper bound on the false positive rate, using the
  // spare's own analytic/empirical rate `spare_fpr` (<= 1 always valid).
  double FprBound(double spare_fpr = 1.0) const {
    return analysis::PrefixFilterFprBound(capacity_, num_bins_, kBinCapacity,
                                          kMiniFpRange, spare_fpr);
  }

  const PrefixFilterStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PrefixFilterStats(); }
  // Zeroes only the query counters (keeps insertion accounting; useful for
  // measuring spare-query fractions at a given load).
  void ResetQueryStats() {
    stats_.queries = 0;
    stats_.spare_queries = 0;
  }
  const Spare& spare() const { return spare_; }

  std::string Name() const {
    return std::string("PF[") + SpareTraits::Name() + "]";
  }

  // Test hook: direct read access to a bin.
  const PD256& bin(uint64_t index) const { return bins_[index]; }

  // --- persistence (the LSM lifecycle: build once, persist next to the run,
  // load on restart) ---------------------------------------------------------

  static constexpr uint32_t kMagic = 0x50465046;  // "PFPF"

  void SerializeTo(std::vector<uint8_t>* out) const {
    ByteWriter w(out);
    w.U32(kMagic);
    w.U8(1);
    w.U64(capacity_);
    w.F64(options_.bin_load_factor);
    w.F64(options_.spare_slack);
    w.U8(options_.avoid_spare_duplicates ? 1 : 0);
    w.U64(options_.seed);
    w.U64(stats_.inserts);
    w.U64(stats_.spare_inserts);
    w.U64(stats_.evictions);
    w.Raw(bins_.data(), bins_.SizeBytes());
    spare_.SerializeTo(out);
  }

  static std::optional<PrefixFilter> Deserialize(const uint8_t* data,
                                                 size_t len) {
    ByteReader r(data, len);
    if (r.U32() != kMagic || r.U8() != 1) return std::nullopt;
    PrefixFilterOptions options;
    const uint64_t capacity = r.U64();
    options.bin_load_factor = r.F64();
    options.spare_slack = r.F64();
    options.avoid_spare_duplicates = r.U8() != 0;
    options.seed = r.U64();
    PrefixFilterStats stats;
    stats.inserts = r.U64();
    stats.spare_inserts = r.U64();
    stats.evictions = r.U64();
    if (!r.ok() || capacity == 0 || options.bin_load_factor <= 0 ||
        options.bin_load_factor > 1.0 || options.spare_slack < 1.0) {
      return std::nullopt;
    }
    // Geometry check before allocating: the bin table alone must fit in the
    // remaining payload (corrupted capacity fields would otherwise trigger
    // enormous allocations).
    const uint64_t num_bins = NumBins(capacity, options.bin_load_factor);
    if (num_bins > r.remaining() / sizeof(PD256) + 1 ||
        RoundUpToCacheLine(num_bins * sizeof(PD256)) > r.remaining()) {
      return std::nullopt;
    }
    PrefixFilter f(capacity, options);
    if (!r.Raw(f.bins_.data(), f.bins_.SizeBytes())) return std::nullopt;
    auto spare = Spare::Deserialize(data + (len - r.remaining()), r.remaining());
    if (!spare.has_value()) return std::nullopt;
    f.spare_ = std::move(*spare);
    f.stats_ = stats;
    return f;
  }

 private:
  // Algorithm 1 for hash h: the one insert body behind Insert and
  // InsertBatch.  The common case, a bin with room, is one call-free PD
  // insert and inlines into InsertBatch's loop.  The full-bin case runs the
  // spare's code; kept out of line, it leaves InsertHashed well under
  // GCC's inline size limit, which the whole body sits right at.
  bool InsertHashed(uint64_t h) {
    const uint64_t b = HashParts::Bin(h, num_bins_);
    const int q = static_cast<int>(HashParts::Quotient(h, kNumLists));
    const uint8_t r = HashParts::Remainder(h);
    ++stats_.inserts;
    if (bins_[b].Insert(q, r)) return true;  // bin not full: common case
    return InsertIntoFullBin(b, q, r);
  }

  // Bin b full: forward max{FP(x), max of bin} to the spare (Algorithm 1).
  [[gnu::noinline]] bool InsertIntoFullBin(uint64_t b, int q, uint8_t r) {
    PD256& bin = bins_[b];
    if (!bin.Overflowed()) bin.MarkOverflowed();
    const uint16_t fp_new = MiniFp(q, r);
    const uint16_t fp_max = bin.MaxFingerprint();
    const uint16_t forwarded = fp_new > fp_max ? fp_new : fp_max;
    ++stats_.spare_inserts;
    // The spare goes first: the bin evicts its maximum only once the spare
    // holds it, so a failed insert never loses an earlier key's fingerprint.
    const uint64_t spare_key = SpareKey(b, forwarded);
    if (!(options_.avoid_spare_duplicates && spare_.Contains(spare_key)) &&
        !spare_.Insert(spare_key)) {
      return false;
    }
    if (fp_new <= fp_max) {
      ++stats_.evictions;
      bin.ReplaceMax(q, r);
    }
    return true;
  }

  // Algorithm 2's bin stage for hash h.  The Prefix Invariant says the
  // fingerprint can only be in the spare if the bin overflowed and fp(x)
  // exceeds the bin maximum: then this counts a spare query and returns
  // true with the spare key in *spare_key.  Otherwise it returns false with
  // the bin's answer in *hit.
  bool ProbeBin(uint64_t h, bool* hit, uint64_t* spare_key) const {
    const uint64_t b = HashParts::Bin(h, num_bins_);
    const int q = static_cast<int>(HashParts::Quotient(h, kNumLists));
    const uint8_t r = HashParts::Remainder(h);
    const PD256& bin = bins_[b];
    if (MiniFp(q, r) > bin.SpareCutoff()) {
      ++stats_.spare_queries;
      *spare_key = SpareKey(b, MiniFp(q, r));
      return true;
    }
    *hit = bin.Find(q, r);
    return false;
  }

  static uint64_t NumBins(uint64_t capacity, double load_factor) {
    const double bins = std::ceil(
        static_cast<double>(capacity) / (load_factor * kBinCapacity));
    return std::max<uint64_t>(2, static_cast<uint64_t>(bins));
  }

  static uint16_t MiniFp(int q, uint8_t r) {
    return static_cast<uint16_t>((q << 8) | r);
  }

  // The spare approximates the multiset of full fingerprints; encode
  // (bin, mini-fp) injectively into the 64-bit universe the spare hashes.
  uint64_t SpareKey(uint64_t b, uint16_t fp) const {
    return b * kMiniFpRange + fp;
  }

  uint64_t capacity_;
  PrefixFilterOptions options_;
  uint64_t num_bins_;
  uint64_t spare_capacity_;
  AlignedBuffer<PD256> bins_;
  Spare spare_;
  Dietzfelbinger64 hash_;
  mutable PrefixFilterStats stats_;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_CORE_PREFIX_FILTER_H_
