// Kernel differential harness: the SIMD kernels must agree bit-for-bit with
// their always-compiled portable-scalar twins — same accepts, same FPR
// stream, same serialized bytes — across seeds, occupancies 0 -> 100%, and
// batch sizes 1/7/64/4096.  Modeled on pd_differential_test.cc but
// generalized over the factory: every parity property runs for FMB32, FMB64,
// BBF, and BBF-Flex through one type-erased test wrapper, and the PD256/512
// SIMD path (the FindByteMask broadcast-compare kernel) is differenced
// against its scalar reference directly.  The wire codec's CRC-32 kernels
// (PCLMULQDQ folding, slicing-by-8) are differenced against an independent
// bytewise reference and pinned to golden values the same way.
//
// On portable builds the dispatched kernels ARE the portable kernels, so
// the SIMD-vs-portable legs degenerate to self-consistency — while the
// golden-digest leg still bites: it pins serialized bytes and answer
// streams to hard-coded values, so native and portable builds (this build
// and any future one) must produce identical bits, not merely mutually
// consistent ones.
#include <algorithm>
#include <cctype>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/filter_factory.h"
#include "src/core/prefix_filter.h"
#include "src/core/spare.h"
#include "src/filters/blocked_bloom.h"
#include "src/filters/fast_multiblock.h"
#include "src/net/protocol.h"
#include "src/util/aligned.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "tests/crc32_reference.h"

namespace prefixfilter {
namespace {

constexpr uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};
constexpr size_t kBatchSizes[] = {1, 7, 64, 4096};

// --- raw kernel parity -------------------------------------------------------

class KernelParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelParity, Fmb32AddAndContainsMatchPortable) {
  Xoshiro256 rng(GetParam());
  AlignedBuffer<uint32_t> simd_block(8), portable_block(8);
  for (int round = 0; round < 200; ++round) {
    // Random pre-state: contains must agree on arbitrary block contents.
    for (int i = 0; i < 8; ++i) {
      const uint32_t v = static_cast<uint32_t>(rng.Next());
      simd_block.data()[i] = v;
      portable_block.data()[i] = v;
    }
    for (int probe = 0; probe < 16; ++probe) {
      const uint32_t h = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Fmb32Contains(h, simd_block.data()),
                Fmb32ContainsPortable(h, portable_block.data()))
          << "h=" << h;
    }
    const uint32_t h = static_cast<uint32_t>(rng.Next());
    Fmb32Add(h, simd_block.data());
    Fmb32AddPortable(h, portable_block.data());
    ASSERT_EQ(std::memcmp(simd_block.data(), portable_block.data(), 32), 0)
        << "add diverged at h=" << h;
    ASSERT_TRUE(Fmb32Contains(h, simd_block.data()));
    ASSERT_TRUE(Fmb32ContainsPortable(h, simd_block.data()));
  }
}

TEST_P(KernelParity, Fmb64AddAndContainsMatchPortable) {
  Xoshiro256 rng(GetParam() ^ 0x64u);
  AlignedBuffer<uint64_t> simd_block(8), portable_block(8);
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 8; ++i) {
      const uint64_t v = rng.Next();
      simd_block.data()[i] = v;
      portable_block.data()[i] = v;
    }
    for (int probe = 0; probe < 16; ++probe) {
      const uint32_t h = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Fmb64Contains(h, simd_block.data()),
                Fmb64ContainsPortable(h, portable_block.data()))
          << "h=" << h;
    }
    const uint32_t h = static_cast<uint32_t>(rng.Next());
    Fmb64Add(h, simd_block.data());
    Fmb64AddPortable(h, portable_block.data());
    ASSERT_EQ(std::memcmp(simd_block.data(), portable_block.data(), 64), 0)
        << "add diverged at h=" << h;
    ASSERT_TRUE(Fmb64Contains(h, simd_block.data()));
    ASSERT_TRUE(Fmb64ContainsPortable(h, simd_block.data()));
  }
}

TEST_P(KernelParity, BlockedBloomAddAndContainsMatchPortable) {
  Xoshiro256 rng(GetParam() ^ 0xbbfu);
  AlignedBuffer<uint32_t> simd_block(8), portable_block(8);
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 8; ++i) {
      const uint32_t v = static_cast<uint32_t>(rng.Next());
      simd_block.data()[i] = v;
      portable_block.data()[i] = v;
    }
    for (int probe = 0; probe < 16; ++probe) {
      const uint32_t h = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(BlockedBloomContains(h, simd_block.data()),
                BlockedBloomContainsPortable(h, portable_block.data()))
          << "h=" << h;
    }
    const uint32_t h = static_cast<uint32_t>(rng.Next());
    BlockedBloomAdd(h, simd_block.data());
    BlockedBloomAddPortable(h, portable_block.data());
    ASSERT_EQ(std::memcmp(simd_block.data(), portable_block.data(), 32), 0)
        << "add diverged at h=" << h;
    ASSERT_TRUE(BlockedBloomContains(h, simd_block.data()));
  }
}

// The PD256/PD512 hot path: one broadcast-and-compare byte match over the PD
// body (paper §5.2.2).  Every needle, random block contents.
TEST_P(KernelParity, FindByteMaskMatchesScalar) {
  Xoshiro256 rng(GetParam() ^ 0x9du);
  AlignedBuffer<uint8_t> block(64);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) {
      // Narrow byte range so matches are dense, not vanishing.
      block.data()[i] = static_cast<uint8_t>(rng.Below(16) * 17);
    }
    for (int needle = 0; needle < 256; ++needle) {
      const uint8_t n8 = static_cast<uint8_t>(needle);
      ASSERT_EQ(FindByteMask32(block.data(), n8),
                static_cast<uint32_t>(FindByteMaskScalar(block.data(), n8, 32)))
          << "needle=" << needle;
      ASSERT_EQ(FindByteMask64(block.data(), n8),
                FindByteMaskScalar(block.data(), n8, 64))
          << "needle=" << needle;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelParity, ::testing::ValuesIn(kSeeds));

// --- filter-level differential, generalized over the factory ----------------

// Type-erased handle exposing both kernel flavors of one concrete filter.
// (Virtual dispatch is fine here — this is a correctness harness, and the
// dispatched-vs-portable comparison happens inside each call.)
class DiffFilter {
 public:
  virtual ~DiffFilter() = default;
  virtual void Insert(uint64_t key) = 0;
  virtual void InsertPortable(uint64_t key) = 0;
  virtual bool Contains(uint64_t key) const = 0;
  virtual bool ContainsPortable(uint64_t key) const = 0;
  virtual void ContainsBatch(const uint64_t* keys, size_t count,
                             uint8_t* out) const = 0;
  virtual std::vector<uint8_t> Serialize() const = 0;
};

template <typename F>
class DiffImpl final : public DiffFilter {
 public:
  explicit DiffImpl(F filter) : filter_(std::move(filter)) {}
  void Insert(uint64_t key) override { filter_.Insert(key); }
  void InsertPortable(uint64_t key) override { filter_.InsertPortable(key); }
  bool Contains(uint64_t key) const override { return filter_.Contains(key); }
  bool ContainsPortable(uint64_t key) const override {
    return filter_.ContainsPortable(key);
  }
  void ContainsBatch(const uint64_t* keys, size_t count,
                     uint8_t* out) const override {
    ContainsBatchOrScalar(filter_, keys, count, out);
  }
  std::vector<uint8_t> Serialize() const override {
    std::vector<uint8_t> out;
    filter_.SerializeTo(&out);
    return out;
  }

 private:
  F filter_;
};

// Mirrors MakeFilter's construction parameters exactly (same bits/key and
// seed), so the factory cross-check below compares identical geometries.
std::unique_ptr<DiffFilter> MakeDiffFilter(const std::string& name,
                                           uint64_t capacity, uint64_t seed) {
  if (name == "FMB32") {
    return std::make_unique<DiffImpl<FastMultiBlock32>>(
        FastMultiBlock32::Make(capacity, 8.0, seed));
  }
  if (name == "FMB64") {
    return std::make_unique<DiffImpl<FastMultiBlock64>>(
        FastMultiBlock64::Make(capacity, 12.0, seed));
  }
  if (name == "BBF") {
    return std::make_unique<DiffImpl<BlockedBloomFilter>>(
        BlockedBloomFilter::MakeNonFlexible(capacity, seed));
  }
  if (name == "BBF-Flex") {
    return std::make_unique<DiffImpl<BlockedBloomFilter>>(
        BlockedBloomFilter::MakeFlexible(capacity, 10.67, seed));
  }
  return nullptr;
}

const char* kDiffFilterNames[] = {"FMB32", "FMB64", "BBF", "BBF-Flex"};

class FilterDifferential
    : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {};

// Two instances of the same filter, one built through the dispatched (SIMD
// where available) kernels and one through the portable kernels, walked from
// empty to full capacity.  At every occupancy checkpoint: identical
// serialized bytes, identical accept/FPR streams through both probe flavors
// and through every batch size, and zero false negatives.
TEST_P(FilterDifferential, SimdAndPortableBuildsAreBitIdentical) {
  const std::string name = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  constexpr uint64_t kCapacity = 4096;

  auto simd_built = MakeDiffFilter(name, kCapacity, seed);
  auto portable_built = MakeDiffFilter(name, kCapacity, seed);
  ASSERT_NE(simd_built, nullptr);
  ASSERT_NE(portable_built, nullptr);

  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<uint64_t> keys(kCapacity);
  for (auto& k : keys) k = rng.Next();
  std::vector<uint64_t> probes(2 * kCapacity);
  for (size_t i = 0; i < probes.size(); ++i) {
    // Half the probe stream replays inserted keys, half is fresh randoms
    // (negative with overwhelming probability) so both the accept and the
    // FPR stream are exercised.
    probes[i] = (i % 2 == 0) ? keys[(i / 2) % keys.size()] : rng.Next();
  }

  std::vector<uint8_t> batch_out(probes.size());
  size_t inserted = 0;
  // Checkpoints at 0, 25, 50, 75, and 100% occupancy.
  for (int checkpoint = 0; checkpoint <= 4; ++checkpoint) {
    const size_t target = keys.size() * static_cast<size_t>(checkpoint) / 4;
    for (; inserted < target; ++inserted) {
      simd_built->Insert(keys[inserted]);
      portable_built->InsertPortable(keys[inserted]);
    }
    ASSERT_EQ(simd_built->Serialize(), portable_built->Serialize())
        << name << ": serialized bytes diverge at occupancy " << inserted;

    // Per-key parity across flavors and instances, and the no-false-negative
    // canary against the inserted prefix.
    std::vector<uint8_t> expected(probes.size());
    for (size_t i = 0; i < probes.size(); ++i) {
      const bool hit = simd_built->Contains(probes[i]);
      ASSERT_EQ(hit, simd_built->ContainsPortable(probes[i]))
          << name << ": flavor divergence on probe " << i;
      ASSERT_EQ(hit, portable_built->Contains(probes[i]))
          << name << ": instance divergence on probe " << i;
      expected[i] = hit ? 1 : 0;
    }
    for (size_t i = 0; i < inserted; ++i) {
      ASSERT_TRUE(simd_built->Contains(keys[i]))
          << name << ": false negative for key " << i;
    }

    // The batch path must reproduce the per-key answer stream exactly, for
    // every batch size.
    for (const size_t batch : kBatchSizes) {
      std::fill(batch_out.begin(), batch_out.end(), 0xee);
      for (size_t base = 0; base < probes.size(); base += batch) {
        const size_t n = std::min(batch, probes.size() - base);
        simd_built->ContainsBatch(probes.data() + base, n,
                                  batch_out.data() + base);
      }
      ASSERT_EQ(batch_out, expected)
          << name << ": batch size " << batch << " diverges at occupancy "
          << inserted;
    }
  }
}

// The factory configuration must be the same filter: identical answers and
// identical envelope payload as the concrete construction.
TEST_P(FilterDifferential, FactoryConfigMatchesConcreteConstruction) {
  const std::string name = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  constexpr uint64_t kCapacity = 2048;

  auto concrete = MakeDiffFilter(name, kCapacity, seed);
  auto factory = MakeFilter(name, kCapacity, seed);
  ASSERT_NE(concrete, nullptr);
  ASSERT_NE(factory, nullptr);

  Xoshiro256 rng(seed ^ 0xfac702u);
  std::vector<uint64_t> keys(kCapacity);
  for (auto& k : keys) {
    k = rng.Next();
    concrete->Insert(k);
    factory->Insert(k);
  }
  std::vector<uint8_t> concrete_out(keys.size()), factory_out(keys.size());
  concrete->ContainsBatch(keys.data(), keys.size(), concrete_out.data());
  factory->ContainsBatch(keys.data(), keys.size(), factory_out.data());
  EXPECT_EQ(concrete_out, factory_out);
  for (int i = 0; i < 4096; ++i) {
    const uint64_t probe = rng.Next();
    ASSERT_EQ(concrete->Contains(probe), factory->Contains(probe));
  }

  // The AnyFilter snapshot is envelope + the concrete payload, byte-equal.
  std::vector<uint8_t> envelope_plus_payload;
  ASSERT_TRUE(factory->SerializeTo(&envelope_plus_payload));
  const std::vector<uint8_t> payload = concrete->Serialize();
  ASSERT_GE(envelope_plus_payload.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         envelope_plus_payload.end() - payload.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Filters, FilterDifferential,
    ::testing::Combine(::testing::ValuesIn(kDiffFilterNames),
                       ::testing::ValuesIn(kSeeds)),
    [](const ::testing::TestParamInfo<std::tuple<const char*, uint64_t>>&
           param_info) {
      std::string name = std::get<0>(param_info.param);
      for (auto& c : name) {
        if (!(std::isalnum(static_cast<unsigned char>(c)))) c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// --- golden digests: cross-build bit-for-bit parity -------------------------

// FNV-1a over the serialized image and the answer stream of a fixed
// configuration.  The constants below were produced once and must reproduce
// on EVERY build — native and portable, any compiler — or the wire format /
// kernel semantics changed.  (Within-build SIMD-vs-portable parity is proved
// above; these lock parity across builds, where the two flavors cannot meet
// in one process.)
uint64_t Fnv1a(const uint8_t* data, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenDigest {
  const char* name;
  uint64_t digest;
};

// To refresh after an INTENTIONAL format/kernel change: run this test and
// copy the "actual" values from the failure output (they are printed in
// hex), then confirm the portable build (PF_NATIVE=OFF) reproduces them.
constexpr GoldenDigest kGoldenDigests[] = {
    {"FMB32", 0xd4d5fbdca29eda24ull},
    {"FMB64", 0x2993597f7531ee0full},
    {"BBF", 0xd429503bcbf16509ull},
    {"BBF-Flex", 0x277325211050e126ull},
};

TEST(KernelGoldenDigest, SerializedBytesAndAnswerStreamMatchGolden) {
  for (const auto& golden : kGoldenDigests) {
    auto filter = MakeDiffFilter(golden.name, 10000, 0x5eedf00dull);
    ASSERT_NE(filter, nullptr) << golden.name;
    Xoshiro256 keys_rng(1), probe_rng(2);
    for (int i = 0; i < 10000; ++i) filter->Insert(keys_rng.Next());
    const std::vector<uint8_t> image = filter->Serialize();
    uint64_t digest = Fnv1a(image.data(), image.size(), 1469598103934665603ull);
    for (int i = 0; i < 20000; ++i) {
      const uint8_t answer = filter->Contains(probe_rng.Next()) ? 1 : 0;
      digest = Fnv1a(&answer, 1, digest);
    }
    EXPECT_EQ(digest, golden.digest)
        << golden.name << ": actual digest 0x" << std::hex << digest
        << " — serialized bytes or answer stream changed across builds";
  }
}

// The prefix filter's batch paths, pinned the same way: PF[TC] loaded past
// bin overflow (so spare inserts and probes occur), its snapshot bytes, and
// the ContainsBatch answer stream at every batch size.  The filter is built
// twice, by an Insert() loop and by InsertBatch in 4096-key batches; both
// builds must reproduce this digest unchanged, as must a rewrite of either
// batch pipeline.
constexpr uint64_t kPrefixFilterTcGoldenDigest = 0xbe6e68fbb1706904ull;

uint64_t PrefixFilterTcDigest(bool batched_build) {
  constexpr uint64_t kCapacity = 10000;
  constexpr size_t kInsertBatch = 4096;
  PrefixFilter<SpareTcTraits> filter(kCapacity);
  Xoshiro256 keys_rng(3), probe_rng(4);
  std::vector<uint64_t> keys(kCapacity);
  for (auto& k : keys) k = keys_rng.Next();
  uint64_t failures = 0;
  if (batched_build) {
    for (size_t base = 0; base < keys.size(); base += kInsertBatch) {
      const size_t n = std::min(kInsertBatch, keys.size() - base);
      failures += filter.InsertBatch(keys.data() + base, n);
    }
  } else {
    for (uint64_t k : keys) failures += !filter.Insert(k);
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(filter.stats().spare_inserts, 0u);
  std::vector<uint8_t> image;
  filter.SerializeTo(&image);
  uint64_t digest = Fnv1a(image.data(), image.size(), 1469598103934665603ull);

  std::vector<uint64_t> probes(20000);
  for (size_t i = 0; i < probes.size(); ++i) {
    probes[i] = (i % 2 == 0) ? keys[(i / 2) % keys.size()] : probe_rng.Next();
  }
  std::vector<uint8_t> out(probes.size());
  for (const size_t batch : kBatchSizes) {
    std::fill(out.begin(), out.end(), 0xee);
    for (size_t base = 0; base < probes.size(); base += batch) {
      const size_t n = std::min(batch, probes.size() - base);
      filter.ContainsBatch(probes.data() + base, n, out.data() + base);
    }
    digest = Fnv1a(out.data(), out.size(), digest);
  }
  return digest;
}

TEST(KernelGoldenDigest, PrefixFilterTcSnapshotAndBatchAnswersMatchGolden) {
  for (const bool batched_build : {false, true}) {
    const uint64_t digest = PrefixFilterTcDigest(batched_build);
    EXPECT_EQ(digest, kPrefixFilterTcGoldenDigest)
        << "PF[TC] built by " << (batched_build ? "InsertBatch" : "Insert")
        << ": actual digest 0x" << std::hex << digest
        << " — snapshot bytes or batch answer stream changed";
  }
}

// --- wire CRC-32: kernel parity and golden values ---------------------------

using testing_ref::Crc32Reference;

std::vector<uint8_t> RandomBytes(size_t len, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> bytes(len);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

// Every length through the fold threshold and well past it, at every
// alignment of a 16-byte vector load: the dispatched kernel (net::Crc32) and
// the portable kernel must both equal the reference.
TEST(Crc32Parity, EveryLengthAndAlignmentMatchesReference) {
  constexpr size_t kMaxLen = 1024;
  const std::vector<uint8_t> bytes = RandomBytes(kMaxLen + 16, 0xc3c32);
  for (size_t align = 0; align < 16; ++align) {
    const uint8_t* p = bytes.data() + align;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint32_t expected = Crc32Reference(p, len);
      ASSERT_EQ(net::Crc32(p, len), expected)
          << "len=" << len << " align=" << align;
      ASSERT_EQ(Crc32IeeePortable(p, len), expected)
          << "len=" << len << " align=" << align;
    }
  }
}

TEST(Crc32Parity, RandomLongBuffersMatchReference) {
  constexpr size_t kMaxLen = size_t{1} << 20;
  const std::vector<uint8_t> bytes = RandomBytes(kMaxLen + 16, 0x10ad);
  Xoshiro256 rng(0x1e57);
  for (int round = 0; round < 24; ++round) {
    const size_t len = rng.Below(kMaxLen + 1);
    const uint8_t* p = bytes.data() + rng.Below(16);
    const uint32_t expected = Crc32Reference(p, len);
    ASSERT_EQ(net::Crc32(p, len), expected) << "len=" << len;
    ASSERT_EQ(Crc32IeeePortable(p, len), expected) << "len=" << len;
  }
}

// Golden values (zlib's crc32 agrees) pin the checksum across builds, so a
// native and a portable peer always agree on the wire.
TEST(Crc32Golden, FixedInputsMatchGolden) {
  EXPECT_EQ(net::Crc32("123456789", 9), 0xCBF43926u);
  std::vector<uint8_t> bytes(128);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const std::pair<size_t, uint32_t> kGolden[] = {
      {15, 0xA4762116u},  {16, 0xEA7E5B68u},  {63, 0x337301C0u},
      {64, 0x38E4DBB5u},  {65, 0x6C311B46u},  {127, 0x8276C596u},
      {128, 0xCC816B20u},
  };
  for (const auto& [len, golden] : kGolden) {
    EXPECT_EQ(net::Crc32(bytes.data(), len), golden) << "len=" << len;
    EXPECT_EQ(Crc32IeeePortable(bytes.data(), len), golden) << "len=" << len;
  }
}

// A full-size QUERY_BATCH frame: its header carries the golden checksum of
// its payload (the encoder writes the same bytes and the same CRC as ever).
TEST(Crc32Golden, QueryBatchFrameMatchesGolden) {
  const std::vector<uint64_t> keys = RandomKeys(4096, 0x5eedf00dull);
  std::vector<uint8_t> frame;
  net::EncodeKeyBatchRequest(net::Opcode::kQueryBatch, 7, keys.data(),
                             keys.size(), &frame);
  ASSERT_EQ(frame.size(), net::kFrameHeaderBytes + 4 + 8 * keys.size());
  const uint8_t* payload = frame.data() + net::kFrameHeaderBytes;
  const size_t payload_len = frame.size() - net::kFrameHeaderBytes;
  uint32_t wire_crc = 0;
  std::memcpy(&wire_crc, frame.data() + 20, sizeof(wire_crc));
  EXPECT_EQ(wire_crc, 0x28B3DC4Bu);
  EXPECT_EQ(net::Crc32(payload, payload_len), 0x28B3DC4Bu);
  EXPECT_EQ(Crc32Reference(payload, payload_len), 0x28B3DC4Bu);
}

}  // namespace
}  // namespace prefixfilter
