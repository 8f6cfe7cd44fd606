// Tests for the wire protocol (src/net/protocol.h): frame round-trips under
// arbitrary byte-stream fragmentation, payload parser bounds, and fuzz-ish
// malformed/truncated/corrupted-frame decoding (the decoder must reject,
// never crash or over-read).
#include "src/net/protocol.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace prefixfilter::net {
namespace {

// Feeds `bytes` to a decoder in `step`-sized slices and pops all frames.
std::vector<Frame> DecodeAll(const std::vector<uint8_t>& bytes, size_t step,
                             DecodeStatus* final_status) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  size_t fed = 0;
  *final_status = DecodeStatus::kNeedMore;
  while (fed < bytes.size() || *final_status == DecodeStatus::kFrame) {
    if (fed < bytes.size()) {
      const size_t n = std::min(step, bytes.size() - fed);
      decoder.Feed(bytes.data() + fed, n);
      fed += n;
    }
    Frame frame;
    while ((*final_status = decoder.Next(&frame)) == DecodeStatus::kFrame) {
      frames.push_back(frame);
    }
    if (*final_status != DecodeStatus::kNeedMore) break;  // sticky error
  }
  return frames;
}

TEST(Protocol, Crc32KnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Protocol, KeyBatchRoundTripsUnderAnyFragmentation) {
  const std::vector<uint64_t> keys = RandomKeys(1000, 7);
  std::vector<uint8_t> bytes;
  EncodeKeyBatchRequest(Opcode::kQueryBatch, 42, keys.data(), keys.size(),
                        &bytes);
  EncodeKeyBatchRequest(Opcode::kInsertBatch, 43, keys.data(), 1, &bytes);
  EncodeEmptyRequest(Opcode::kStats, 44, &bytes);

  // Whole-buffer, byte-at-a-time, and prime-sized feeds must all agree.
  for (const size_t step : {bytes.size(), size_t{1}, size_t{7}, size_t{4096}}) {
    DecodeStatus status;
    const std::vector<Frame> frames = DecodeAll(bytes, step, &status);
    EXPECT_EQ(status, DecodeStatus::kNeedMore);
    ASSERT_EQ(frames.size(), 3u) << "step " << step;

    EXPECT_EQ(frames[0].opcode, static_cast<uint8_t>(Opcode::kQueryBatch));
    EXPECT_EQ(frames[0].request_id, 42u);
    EXPECT_FALSE(frames[0].is_response());
    std::vector<uint64_t> decoded;
    ASSERT_TRUE(DecodeKeyBatchPayload(frames[0].payload.data(),
                                      frames[0].payload.size(), &decoded));
    EXPECT_EQ(decoded, keys);

    ASSERT_TRUE(DecodeKeyBatchPayload(frames[1].payload.data(),
                                      frames[1].payload.size(), &decoded));
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0], keys[0]);

    EXPECT_EQ(frames[2].opcode, static_cast<uint8_t>(Opcode::kStats));
    EXPECT_TRUE(frames[2].payload.empty());
  }
}

TEST(Protocol, ResponseEncodersRoundTrip) {
  std::vector<uint8_t> bytes;
  EncodeInsertResponse(7, 3, &bytes);
  const std::vector<uint8_t> results = {1, 0, 1, 1, 0};
  EncodeQueryResponse(8, results.data(), results.size(), &bytes);
  EncodeErrorResponse(Opcode::kSnapshot, 9, ErrorCode::kInternal,
                      "boom", &bytes);

  DecodeStatus status;
  const std::vector<Frame> frames = DecodeAll(bytes, 3, &status);
  ASSERT_EQ(frames.size(), 3u);

  EXPECT_TRUE(frames[0].is_response());
  uint64_t failures = 0;
  ASSERT_TRUE(DecodeInsertResponsePayload(frames[0].payload.data(),
                                          frames[0].payload.size(),
                                          &failures));
  EXPECT_EQ(failures, 3u);

  std::vector<uint8_t> decoded_results;
  ASSERT_TRUE(DecodeQueryResponsePayload(frames[1].payload.data(),
                                         frames[1].payload.size(),
                                         &decoded_results));
  EXPECT_EQ(decoded_results, results);

  EXPECT_TRUE(frames[2].is_error());
  ErrorCode code;
  std::string message;
  ASSERT_TRUE(DecodeErrorPayload(frames[2].payload.data(),
                                 frames[2].payload.size(), &code, &message));
  EXPECT_EQ(code, ErrorCode::kInternal);
  EXPECT_EQ(message, "boom");
}

TEST(Protocol, StatsPayloadRoundTripsAndRejectsEveryTruncation) {
  WireStats stats;
  stats.filter_name = "SHARD16[PF[TC]]";
  stats.capacity = 1 << 20;
  for (int s = 0; s < 16; ++s) {
    stats.shards.push_back(WireShardStats{
        uint64_t(s), uint64_t(s + 1), uint64_t(s + 2), uint64_t(s + 3)});
  }
  obs::MetricSample counter;
  counter.name = "net.server.frames.in";
  counter.kind = obs::MetricKind::kCounter;
  counter.value = 99;
  obs::MetricSample hist;
  hist.name = "net.server.request.ns";
  hist.labels = {{"op", "query"}};
  hist.kind = obs::MetricKind::kHistogram;
  hist.hist.count = 3;
  hist.hist.sum = 300;
  hist.hist.min = 90;
  hist.hist.max = 110;
  hist.hist.buckets = {{40, 2}, {41, 1}};
  stats.metrics = {counter, hist};
  std::vector<uint8_t> bytes;
  EncodeStatsResponse(77, stats, &bytes);

  DecodeStatus status;
  const std::vector<Frame> frames = DecodeAll(bytes, bytes.size(), &status);
  ASSERT_EQ(frames.size(), 1u);
  WireStats decoded;
  ASSERT_TRUE(DecodeStatsPayload(frames[0].payload.data(),
                                 frames[0].payload.size(), &decoded));
  EXPECT_EQ(decoded.filter_name, stats.filter_name);
  EXPECT_EQ(decoded.capacity, stats.capacity);
  ASSERT_EQ(decoded.shards.size(), stats.shards.size());
  EXPECT_EQ(decoded.shards[9].queries, stats.shards[9].queries);
  // Totals are sums over the shards: shard s carries (s, s+1, s+2, s+3).
  const WireShardStats totals = SumShards(decoded.shards);
  EXPECT_EQ(totals.inserts, 120u);
  EXPECT_EQ(totals.insert_failures, 136u);
  EXPECT_EQ(totals.queries, 152u);
  EXPECT_EQ(totals.hits, 168u);
  ASSERT_EQ(decoded.metrics.size(), 2u);
  EXPECT_EQ(decoded.metrics[0].name, counter.name);
  EXPECT_EQ(decoded.metrics[0].value, 99);
  EXPECT_EQ(decoded.metrics[1].labels, hist.labels);
  EXPECT_EQ(decoded.metrics[1].hist.count, 3u);
  EXPECT_EQ(decoded.metrics[1].hist.buckets, hist.hist.buckets);
  // No service.batch.keys series in this blob: no batch count to report.
  uint64_t batches = 7;
  EXPECT_FALSE(ServiceBatches(decoded, "query", &batches));
  EXPECT_EQ(batches, 7u);

  // Every strict prefix of the payload must be rejected, not crash or
  // partially succeed.
  const std::vector<uint8_t>& payload = frames[0].payload;
  for (size_t len = 0; len < payload.size(); ++len) {
    WireStats sink;
    EXPECT_FALSE(DecodeStatsPayload(payload.data(), len, &sink)) << len;
  }
  // Trailing garbage is rejected too (exact-length parse).
  std::vector<uint8_t> extended = payload;
  extended.push_back(0);
  WireStats sink;
  EXPECT_FALSE(DecodeStatsPayload(extended.data(), extended.size(), &sink));
}

TEST(Protocol, KeyBatchPayloadBoundsChecks) {
  std::vector<uint64_t> keys;
  // Count field larger than the actual payload.
  std::vector<uint8_t> payload(4 + 8 * 3);
  const uint32_t lie = 1000;
  std::memcpy(payload.data(), &lie, 4);
  EXPECT_FALSE(DecodeKeyBatchPayload(payload.data(), payload.size(), &keys));
  // Count over the frame cap, with a matching (absurd) length claim.
  const uint32_t huge = kMaxKeysPerFrame + 1;
  std::memcpy(payload.data(), &huge, 4);
  EXPECT_FALSE(DecodeKeyBatchPayload(payload.data(), payload.size(), &keys));
  // Short payloads.
  EXPECT_FALSE(DecodeKeyBatchPayload(payload.data(), 3, &keys));
  // Exact zero-key batch is fine.
  const uint32_t zero = 0;
  std::memcpy(payload.data(), &zero, 4);
  ASSERT_TRUE(DecodeKeyBatchPayload(payload.data(), 4, &keys));
  EXPECT_TRUE(keys.empty());
}

TEST(Protocol, DecoderRejectsBadMagicVersionLengthChecksum) {
  std::vector<uint8_t> good;
  const uint64_t key = 123;
  EncodeKeyBatchRequest(Opcode::kQueryBatch, 1, &key, 1, &good);

  struct Case {
    size_t offset;
    uint8_t value;
    DecodeStatus expected;
  };
  const Case cases[] = {
      {0, 0xFF, DecodeStatus::kBadMagic},     // magic byte
      {4, 99, DecodeStatus::kBadVersion},     // version byte
      {4, 1, DecodeStatus::kBadVersion},      // a version-1 peer
      {4, 2, DecodeStatus::kBadVersion},      // a version-2 peer
      {19, 0xFF, DecodeStatus::kBadLength},   // payload_len high byte
      {21, 0xFF, DecodeStatus::kBadChecksum}, // checksum byte
      {30, 0xFF, DecodeStatus::kBadChecksum}, // payload byte
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> bytes = good;
    bytes[c.offset] = c.value;
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), c.expected) << "offset " << c.offset;
    // Errors are sticky: the stream stays poisoned even after more bytes.
    decoder.Feed(good.data(), good.size());
    EXPECT_EQ(decoder.Next(&frame), c.expected) << "offset " << c.offset;
  }
}

TEST(Protocol, TruncatedFramesNeverPopAndNeverError) {
  std::vector<uint8_t> good;
  const std::vector<uint64_t> keys = RandomKeys(100, 5);
  EncodeKeyBatchRequest(Opcode::kInsertBatch, 9, keys.data(), keys.size(),
                        &good);
  // Every strict prefix is "need more", not an error and not a frame.
  for (size_t len = 0; len < good.size(); ++len) {
    FrameDecoder decoder;
    decoder.Feed(good.data(), len);
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore) << len;
  }
}

// Fuzz-ish: random corruptions of a valid multi-frame stream must decode to
// either frames or a typed kBad* error — never crash, hang, or over-read.
TEST(Protocol, RandomCorruptionsAreRejectedOrDecoded) {
  std::vector<uint8_t> stream;
  const std::vector<uint64_t> keys = RandomKeys(64, 21);
  for (uint64_t id = 0; id < 8; ++id) {
    EncodeKeyBatchRequest(id % 2 ? Opcode::kInsertBatch : Opcode::kQueryBatch,
                          id, keys.data(), keys.size(), &stream);
  }
  Xoshiro256 rng(0xf22);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> corrupted = stream;
    const int flips = 1 + static_cast<int>(rng.Below(8));
    for (int f = 0; f < flips; ++f) {
      corrupted[rng.Below(corrupted.size())] ^=
          static_cast<uint8_t>(1 + rng.Below(255));
    }
    DecodeStatus status;
    const std::vector<Frame> frames =
        DecodeAll(corrupted, 1 + rng.Below(64), &status);
    EXPECT_LE(frames.size(), 8u);
    EXPECT_TRUE(status == DecodeStatus::kNeedMore ||
                status == DecodeStatus::kBadMagic ||
                status == DecodeStatus::kBadVersion ||
                status == DecodeStatus::kBadLength ||
                status == DecodeStatus::kBadChecksum);
    // A header whose magic+version+length survived but whose payload (or
    // checksum) was corrupted must not pop as a valid frame; spot-check by
    // re-decoding every popped frame's payload.
    for (const Frame& frame : frames) {
      std::vector<uint64_t> sink;
      if (IsKnownOpcode(frame.opcode)) {
        (void)DecodeKeyBatchPayload(frame.payload.data(),
                                    frame.payload.size(), &sink);
      }
    }
  }
}

TEST(Protocol, PureGarbageStreamsFailFast) {
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> garbage(64 + rng.Below(512));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
    FrameDecoder decoder;
    decoder.Feed(garbage.data(), garbage.size());
    Frame frame;
    const DecodeStatus status = decoder.Next(&frame);
    // 2^-32 odds of random magic; anything but a popped frame is correct.
    EXPECT_NE(status, DecodeStatus::kFrame);
  }
}

TEST(Protocol, DecoderCompactionKeepsLongStreamsBounded) {
  // A long pipelined stream decoded incrementally must not accumulate the
  // whole history in the buffer (the lazy-compaction path).
  FrameDecoder decoder;
  std::vector<uint8_t> bytes;
  const std::vector<uint64_t> keys = RandomKeys(512, 3);
  size_t frames_popped = 0;
  for (int i = 0; i < 200; ++i) {
    bytes.clear();
    EncodeKeyBatchRequest(Opcode::kQueryBatch, i, keys.data(), keys.size(),
                          &bytes);
    decoder.Feed(bytes.data(), bytes.size());
    Frame frame;
    while (decoder.Next(&frame) == DecodeStatus::kFrame) ++frames_popped;
    EXPECT_EQ(decoder.buffered(), 0u);
  }
  EXPECT_EQ(frames_popped, 200u);
}

TEST(Protocol, TracedKeyBatchRoundTripsAndPlainEncodingIsUnchanged) {
  const std::vector<uint64_t> keys = RandomKeys(64, 9);

  // A traced frame carries kFlagTraced plus the 9-byte context prefix; the
  // remainder decodes as the ordinary key-batch payload.
  TraceContext context;
  context.trace_id = 0xABCDEF0123456789ull;
  context.sampled = true;
  std::vector<uint8_t> bytes;
  EncodeTracedKeyBatchRequest(Opcode::kQueryBatch, 11, context, keys.data(),
                              keys.size(), &bytes);
  DecodeStatus status;
  const std::vector<Frame> frames = DecodeAll(bytes, 5, &status);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_NE(frames[0].flags & kFlagTraced, 0);
  TraceContext decoded;
  ASSERT_TRUE(DecodeTraceContext(frames[0].payload.data(),
                                 frames[0].payload.size(), &decoded));
  EXPECT_EQ(decoded.trace_id, context.trace_id);
  EXPECT_TRUE(decoded.sampled);
  std::vector<uint64_t> decoded_keys;
  ASSERT_TRUE(DecodeKeyBatchPayload(
      frames[0].payload.data() + kTraceContextBytes,
      frames[0].payload.size() - kTraceContextBytes, &decoded_keys));
  EXPECT_EQ(decoded_keys, keys);

  // The traced payload must NOT parse as a plain key batch: a server that
  // misses the flag cannot silently misread the prefix as keys.
  std::vector<uint64_t> misread;
  EXPECT_FALSE(AppendKeyBatchPayload(frames[0].payload.data(),
                                     frames[0].payload.size(), &misread));
  EXPECT_TRUE(misread.empty());

  // Context shorter than the prefix is rejected.
  EXPECT_FALSE(DecodeTraceContext(frames[0].payload.data(),
                                  kTraceContextBytes - 1, &decoded));

  // The untraced encoder carries neither the flag nor the prefix.
  std::vector<uint8_t> plain;
  EncodeKeyBatchRequest(Opcode::kQueryBatch, 11, keys.data(), keys.size(),
                        &plain);
  DecodeStatus plain_status;
  const std::vector<Frame> plain_frames =
      DecodeAll(plain, plain.size(), &plain_status);
  ASSERT_EQ(plain_frames.size(), 1u);
  EXPECT_EQ(plain_frames[0].flags & kFlagTraced, 0);
  EXPECT_EQ(plain_frames[0].payload.size(),
            frames[0].payload.size() - kTraceContextBytes);
}

TEST(Protocol, TracesPayloadRoundTripsAndRejectsTruncations) {
  std::vector<obs::Trace> traces(3);
  for (size_t i = 0; i < traces.size(); ++i) {
    obs::Trace& t = traces[i];
    t.trace_id = 0x1000 + i;
    t.request_id = 50 + i;
    t.conn_id = 7;
    t.start_ns = 1'000'000;
    t.end_ns = 2'000'000 + i;
    t.loop = 2;
    t.key_count = 4096;
    t.frames = 4;
    t.opcode = static_cast<uint8_t>(Opcode::kQueryBatch);
    t.flags = obs::kTraceSampled | (i == 0 ? obs::kTraceSlow : 0);
    // Spans written directly (not via AddSpan, which no-ops under
    // PF_OBS=OFF — the codec itself must round-trip in every build).
    t.spans[0] = {static_cast<uint8_t>(obs::TraceStage::kDecode),
                  1'000'000, 1'100'000, 0};
    t.spans[1] = {static_cast<uint8_t>(obs::TraceStage::kShardProbe),
                  1'100'000, 1'200'000, (uint64_t{5} << 32) | 256u};
    t.span_count = 2;
  }

  std::vector<uint8_t> bytes;
  EncodeTracesResponse(31, traces, &bytes);
  DecodeStatus status;
  const std::vector<Frame> frames = DecodeAll(bytes, 7, &status);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].opcode, static_cast<uint8_t>(Opcode::kTraces));

  std::vector<obs::Trace> decoded;
  ASSERT_TRUE(DecodeTracesPayload(frames[0].payload.data(),
                                  frames[0].payload.size(), &decoded));
  ASSERT_EQ(decoded.size(), traces.size());
  EXPECT_EQ(decoded[0].trace_id, traces[0].trace_id);
  EXPECT_TRUE(decoded[0].slow());
  EXPECT_FALSE(decoded[1].slow());
  ASSERT_EQ(decoded[2].span_count, 2u);
  EXPECT_EQ(decoded[2].spans[1].stage,
            static_cast<uint8_t>(obs::TraceStage::kShardProbe));
  EXPECT_EQ(decoded[2].spans[1].detail, (uint64_t{5} << 32) | 256u);

  // Truncations and trailing garbage are rejected, never crash.
  const std::vector<uint8_t>& payload = frames[0].payload;
  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<obs::Trace> sink;
    EXPECT_FALSE(DecodeTracesPayload(payload.data(), len, &sink)) << len;
  }
  std::vector<uint8_t> extended = payload;
  extended.push_back(0);
  std::vector<obs::Trace> sink;
  EXPECT_FALSE(DecodeTracesPayload(extended.data(), extended.size(), &sink));
}

// The committed frame_decoder corpus must stay in step with the wire format:
// after a header version bump every well-formed seed (the generated ones and
// the recorded live_* frames) must still decode, or the fuzzer would start
// from seeds the decoder rejects at the header.
TEST(Protocol, CommittedFrameCorpusDecodesUnderTheCurrentVersion) {
  const std::filesystem::path dir =
      std::filesystem::path(PF_SOURCE_DIR) / "fuzz/corpus/frame_decoder";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("bad_", 0) == 0 || name.rfind("truncated", 0) == 0) {
      continue;  // deliberately malformed seeds
    }
    std::ifstream in(entry.path(), std::ios::binary);
    const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kFrame) << name;
    ++replayed;
  }
  EXPECT_GE(replayed, 10u);
}

}  // namespace
}  // namespace prefixfilter::net
