// Serialize round-trips through the type-erased layer: for every factory
// configuration, MakeFilter(name) → Insert → SerializeTo → DeserializeFilter
// must reproduce a filter with identical answers, and damaged envelopes must
// be rejected rather than crash or mis-dispatch.
#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/filter_factory.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace prefixfilter {
namespace {

class FactorySerializeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FactorySerializeTest, RoundTripPreservesAllAnswers) {
  const uint64_t n = 20000;
  auto filter = MakeFilter(GetParam(), n, /*seed=*/21);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 211);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Insert(k)) << GetParam();

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(filter->SerializeTo(&bytes)) << GetParam();
  auto restored = DeserializeFilter(bytes.data(), bytes.size());
  ASSERT_NE(restored, nullptr) << GetParam();
  EXPECT_EQ(restored->Name(), filter->Name());
  EXPECT_EQ(restored->Capacity(), filter->Capacity());
  EXPECT_EQ(restored->SpaceBytes(), filter->SpaceBytes());

  // A fresh snapshot of the restored filter is byte-identical (the wire
  // format is canonical: no hidden state lost in the round trip).  Taken
  // before any queries — some formats persist query counters.
  std::vector<uint8_t> bytes2;
  ASSERT_TRUE(restored->SerializeTo(&bytes2)) << GetParam();
  EXPECT_EQ(bytes, bytes2) << GetParam();

  // Same answers on every inserted key AND on a probe stream — the latter
  // pins down the false-positive set, i.e. bit-exact table state.
  for (uint64_t k : keys) {
    ASSERT_TRUE(restored->Contains(k)) << GetParam();
  }
  const auto probes = RandomKeys(100000, 212);
  for (uint64_t k : probes) {
    ASSERT_EQ(restored->Contains(k), filter->Contains(k)) << GetParam();
  }
}

TEST_P(FactorySerializeTest, CorruptedHeadersAreRejected) {
  auto filter = MakeFilter(GetParam(), 5000, 22);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(5000, 213);
  for (uint64_t k : keys) filter->Insert(k);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(filter->SerializeTo(&bytes));

  // Envelope magic.
  {
    auto corrupt = bytes;
    corrupt[0] ^= 0x5a;
    EXPECT_EQ(DeserializeFilter(corrupt.data(), corrupt.size()), nullptr);
  }
  // Envelope version.
  {
    auto corrupt = bytes;
    corrupt[4] = 0x7f;
    EXPECT_EQ(DeserializeFilter(corrupt.data(), corrupt.size()), nullptr);
  }
  // Name length pointing past the buffer.
  {
    auto corrupt = bytes;
    corrupt[5] = 0xff;
    corrupt[6] = 0xff;
    corrupt[7] = 0xff;
    corrupt[8] = 0x7f;
    EXPECT_EQ(DeserializeFilter(corrupt.data(), corrupt.size()), nullptr);
  }
  // Name text mangled into an unknown configuration.
  {
    auto corrupt = bytes;
    corrupt[9] = '?';
    EXPECT_EQ(DeserializeFilter(corrupt.data(), corrupt.size()), nullptr);
  }
  // Truncations at every boundary class.
  for (size_t len : {size_t{0}, size_t{3}, size_t{8}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_EQ(DeserializeFilter(bytes.data(), len), nullptr)
        << GetParam() << " len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFilters, FactorySerializeTest,
    ::testing::ValuesIn(KnownFilterNames()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// The fast_multiblock configs must stay registered: the parameterized
// suites above (and the bench sweep, and the coverage gate's baselines) all
// enumerate KnownFilterNames(), so silently dropping a name would shrink
// coverage everywhere at once.
TEST(FactorySerialize, FastMultiBlockConfigsAreRegistered) {
  const auto names = KnownFilterNames();
  for (const char* required : {"FMB32", "FMB64"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required << " missing from KnownFilterNames()";
  }
}

// The committed deserialize_filter seed corpus must track the registry:
// fuzz/make_seed_corpus.cc writes one seed per KnownFilterNames() entry
// (with '[', ']' and '-' spelled '_'), one sharded-service snapshot (the
// target also feeds ShardedFilter::Deserialize), plus two envelope-error seeds,
// so a seed left behind by a deleted configuration, or a name with no seed,
// shows up here.
TEST(FactorySerialize, SeedCorpusMatchesKnownFilterNames) {
  const std::filesystem::path dir =
      std::filesystem::path(PF_SOURCE_DIR) / "fuzz/corpus/deserialize_filter";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::set<std::string> expected = {"bad_magic.bin", "truncated.bin",
                                    "SHARD16_PF_TC__.bin"};
  for (std::string name : KnownFilterNames()) {
    for (char& c : name) {
      if (c == '[' || c == ']' || c == '-') c = '_';
    }
    expected.insert(name + ".bin");
  }
  std::set<std::string> committed;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".bin") {
      committed.insert(entry.path().filename().string());
    }
  }
  EXPECT_EQ(committed, expected);
}

// A tampered block count must fail the pre-allocation geometry check
// (advertised num_blocks vs actual payload bytes), not malloc a bogus table.
TEST(FactorySerialize, FastMultiBlockGeometryMismatchRejected) {
  for (const std::string name : {"FMB32", "FMB64"}) {
    auto filter = MakeFilter(name, 5000, 23);
    ASSERT_NE(filter, nullptr);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(filter->SerializeTo(&bytes));
    // Envelope: u32 magic + u8 ver + u32 name length + name text; the
    // payload's num_blocks u64 sits after its own u32 magic, u8 version,
    // and u64 capacity.
    const size_t payload = 4 + 1 + 4 + name.size();
    const size_t num_blocks_off = payload + 4 + 1 + 8;
    ASSERT_LT(num_blocks_off, bytes.size());
    for (uint8_t delta : {uint8_t{1}, uint8_t{0x80}}) {
      auto corrupt = bytes;
      corrupt[num_blocks_off] ^= delta;
      EXPECT_EQ(DeserializeFilter(corrupt.data(), corrupt.size()), nullptr)
          << name << " delta=" << int{delta};
    }
  }
}

TEST(FactorySerialize, AliasCanonicalizes) {
  auto aliased = MakeFilter("PF[CF-12-Flex]", 10000, 23);
  ASSERT_NE(aliased, nullptr);
  EXPECT_EQ(aliased->Name(), "PF[CF12-Flex]");
  // Snapshots written under the alias restore through the canonical name.
  const auto keys = RandomKeys(10000, 214);
  for (uint64_t k : keys) aliased->Insert(k);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(aliased->SerializeTo(&bytes));
  auto restored = DeserializeFilter(bytes.data(), bytes.size());
  ASSERT_NE(restored, nullptr);
  for (uint64_t k : keys) ASSERT_TRUE(restored->Contains(k));
}

TEST(FactorySerialize, RetaggedEnvelopeNameIsRejected) {
  // A valid payload filed under a different-but-known name must not restore
  // with geometry the tag does not promise (e.g. a flex cuckoo payload
  // retagged as the non-flex config).
  for (const auto& [built, retag] :
       std::vector<std::pair<std::string, std::string>>{
           {"CF-8-Flex", "CF-8"}, {"BF-16", "BF-8"}, {"BBF-Flex", "BBF"}}) {
    auto filter = MakeFilter(built, 10000, 26);
    ASSERT_NE(filter, nullptr) << built;
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(filter->SerializeTo(&bytes));
    // Strip the original envelope (magic + version + length-prefixed name)
    // and re-tag the payload with the sibling configuration's name.
    const size_t envelope = 4 + 1 + 4 + built.size();
    std::vector<uint8_t> retagged;
    WriteFilterEnvelope(retag, &retagged);
    retagged.insert(retagged.end(), bytes.begin() + envelope, bytes.end());
    EXPECT_EQ(DeserializeFilter(retagged.data(), retagged.size()), nullptr)
        << built << " retagged as " << retag;
  }
}

}  // namespace
}  // namespace prefixfilter
