// Seed-corpus generator for the fuzz targets (fuzz/CMakeLists.txt).
//
// Every seed is produced by the repo's own encoders — genuine wire frames,
// genuine filter snapshots, genuine metrics blobs — because coverage-guided
// fuzzing starting from valid inputs reaches the deep parser states (CRC-ok
// frames, stats payloads with metrics, every factory backend's payload
// layout) that random bytes alone essentially never hit.  A few seeds are
// then corrupted deliberately (bad CRC/magic/version, truncation) so the
// error paths start covered too.
//
// Usage:  fuzz_make_seeds <corpus-root>
// writes <corpus-root>/{frame_decoder,deserialize_filter,json,stats_codec}/
// with one small file per seed.  Rerun after any wire-format change and
// commit the result; the fuzz_corpus_* ctest entries replay exactly these
// files.  Live-traffic seeds come from `net_loadgen --record-frames=DIR`
// and can be copied into frame_decoder/ alongside the generated ones.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/filter_factory.h"
#include "src/net/protocol.h"
#include "src/obs/exposition.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/sharded_filter.h"

namespace fs = std::filesystem;
namespace net = prefixfilter::net;
namespace obs = prefixfilter::obs;

namespace {

int g_failures = 0;

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::vector<uint8_t>& bytes) {
  const fs::path path = dir / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out ||
      !out.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<long>(bytes.size()))) {
    std::fprintf(stderr, "fuzz_make_seeds: cannot write %s\n",
                 path.c_str());
    ++g_failures;
  }
}

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::string& text) {
  WriteSeed(dir, name, std::vector<uint8_t>(text.begin(), text.end()));
}

std::vector<uint64_t> SampleKeys(size_t count) {
  std::vector<uint64_t> keys;
  keys.reserve(count);
  uint64_t x = 0x9e3779b97f4a7c15ull;  // fixed stream: corpora are stable
  for (size_t i = 0; i < count; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys.push_back(x);
  }
  return keys;
}

net::WireStats SampleStats() {
  net::WireStats stats;
  stats.filter_name = "PF[TC]";
  stats.capacity = 1u << 16;
  stats.shards.resize(4);
  for (size_t i = 0; i < stats.shards.size(); ++i) {
    stats.shards[i].inserts = 1000 + i;
    stats.shards[i].insert_failures = i;
    stats.shards[i].queries = 2000 + i;
    stats.shards[i].hits = 500 + i;
  }
  obs::MetricSample counter;
  counter.name = "pf_server_frames_total";
  counter.labels = {{"opcode", "QUERY_BATCH"}};
  counter.kind = obs::MetricKind::kCounter;
  counter.value = 123456;
  obs::MetricSample hist;
  hist.name = "pf_stage_latency_us";
  hist.labels = {{"stage", "decode"}};
  hist.kind = obs::MetricKind::kHistogram;
  hist.hist.count = 100;
  hist.hist.sum = 5000;
  hist.hist.min = 3;
  hist.hist.max = 900;
  hist.hist.buckets = {{2, 50}, {5, 40}, {9, 10}};
  stats.metrics = {counter, hist};
  return stats;
}

// Two traces with full span timelines for the TRACES codec paths.  Spans are
// written directly rather than via ActiveTrace::AddSpan so the committed
// corpus is byte-identical whether this generator was built with PF_OBS on
// or off (AddSpan compiles to a no-op under -DPF_OBS=OFF).
std::vector<obs::Trace> SampleTraces() {
  std::vector<obs::Trace> traces(2);
  obs::Trace& slow = traces[0];
  slow.trace_id = 0x1122334455667788ull;
  slow.request_id = 7;
  slow.conn_id = 3;
  slow.start_ns = 1'000'000;
  slow.end_ns = 9'000'000;
  slow.loop = 1;
  slow.key_count = 4096;
  slow.frames = 2;
  slow.opcode = static_cast<uint8_t>(net::Opcode::kQueryBatch);
  slow.flags = obs::kTraceSampled | obs::kTraceSlow;
  slow.spans[0] = {static_cast<uint8_t>(obs::TraceStage::kDecode),
                   1'000'000, 1'050'000, 0};
  slow.spans[1] = {static_cast<uint8_t>(obs::TraceStage::kMerge), 1'000'000,
                   1'060'000, 2};
  slow.spans[2] = {static_cast<uint8_t>(obs::TraceStage::kQueueWait),
                   1'060'000, 1'200'000, 0};
  slow.spans[3] = {static_cast<uint8_t>(obs::TraceStage::kExec), 1'200'000,
                   8'700'000, 0};
  slow.spans[4] = {static_cast<uint8_t>(obs::TraceStage::kShardProbe),
                   1'210'000, 8'600'000, (uint64_t{5} << 32) | 512u};
  slow.spans[5] = {static_cast<uint8_t>(obs::TraceStage::kCompletion),
                   8'700'000, 8'800'000, 0};
  slow.spans[6] = {static_cast<uint8_t>(obs::TraceStage::kWrite), 8'800'000,
                   9'000'000, 0};
  slow.span_count = 7;
  obs::Trace& sampled = traces[1];
  sampled.trace_id = 0xdeadbeefcafef00dull;
  sampled.request_id = 11;
  sampled.conn_id = 4;
  sampled.start_ns = 2'000'000;
  sampled.end_ns = 2'040'000;
  sampled.loop = 0;
  sampled.key_count = 64;
  sampled.frames = 1;
  sampled.opcode = static_cast<uint8_t>(net::Opcode::kQueryBatch);
  sampled.flags = obs::kTraceSampled;
  sampled.spans[0] = {static_cast<uint8_t>(obs::TraceStage::kDecode),
                      2'000'000, 2'010'000, 0};
  sampled.spans[1] = {static_cast<uint8_t>(obs::TraceStage::kExec), 2'010'000,
                      2'030'000, 0};
  sampled.spans[2] = {static_cast<uint8_t>(obs::TraceStage::kWrite),
                      2'030'000, 2'040'000, 0};
  sampled.span_count = 3;
  return traces;
}

// --- frame_decoder ----------------------------------------------------------

void MakeFrameDecoderSeeds(const fs::path& dir) {
  const std::vector<uint64_t> keys = SampleKeys(16);

  std::vector<uint8_t> insert_req;
  net::EncodeKeyBatchRequest(net::Opcode::kInsertBatch, 1, keys.data(),
                             keys.size(), &insert_req);
  WriteSeed(dir, "insert_request.bin", insert_req);

  std::vector<uint8_t> query_req;
  net::EncodeKeyBatchRequest(net::Opcode::kQueryBatch, 2, keys.data(),
                             keys.size(), &query_req);
  WriteSeed(dir, "query_request.bin", query_req);

  std::vector<uint8_t> empty_req;
  net::EncodeEmptyRequest(net::Opcode::kSnapshot, 3, &empty_req);
  WriteSeed(dir, "snapshot_request.bin", empty_req);

  std::vector<uint8_t> stats_req;
  net::EncodeEmptyRequest(net::Opcode::kStats, 4, &stats_req);
  WriteSeed(dir, "stats_request.bin", stats_req);

  // Traced query frame: kFlagTraced plus the 9-byte trace-context prefix
  // ahead of the key batch — the newest header-flags state in the decoder.
  net::TraceContext context;
  context.trace_id = 0x0123456789abcdefull;
  context.sampled = true;
  std::vector<uint8_t> traced_query_req;
  net::EncodeTracedKeyBatchRequest(net::Opcode::kQueryBatch, 8, context,
                                   keys.data(), keys.size(),
                                   &traced_query_req);
  WriteSeed(dir, "traced_query_request.bin", traced_query_req);

  std::vector<uint8_t> traces_req;
  net::EncodeEmptyRequest(net::Opcode::kTraces, 9, &traces_req);
  WriteSeed(dir, "traces_request.bin", traces_req);

  std::vector<uint8_t> insert_resp;
  net::EncodeInsertResponse(1, /*failures=*/2, &insert_resp);
  WriteSeed(dir, "insert_response.bin", insert_resp);

  std::vector<uint8_t> results(keys.size());
  for (size_t i = 0; i < results.size(); ++i) results[i] = i & 1;
  std::vector<uint8_t> query_resp;
  net::EncodeQueryResponse(2, results.data(), results.size(), &query_resp);
  WriteSeed(dir, "query_response.bin", query_resp);

  auto filter = prefixfilter::MakeFilter("BBF-Flex", 1u << 10);
  std::vector<uint8_t> snapshot;
  if (filter) {
    filter->InsertBatch(keys.data(), keys.size());
    filter->SerializeTo(&snapshot);
  }
  std::vector<uint8_t> snapshot_resp;
  net::EncodeSnapshotResponse(3, snapshot, &snapshot_resp);
  WriteSeed(dir, "snapshot_response.bin", snapshot_resp);

  std::vector<uint8_t> error_resp;
  net::EncodeErrorResponse(net::Opcode::kInsertBatch, 6,
                           net::ErrorCode::kBadRequest,
                           "payload length mismatch", &error_resp);
  WriteSeed(dir, "error_response.bin", error_resp);

  std::vector<uint8_t> stats_resp;
  net::EncodeStatsResponse(4, SampleStats(), &stats_resp);
  WriteSeed(dir, "stats_response.bin", stats_resp);

  std::vector<uint8_t> traces_resp;
  net::EncodeTracesResponse(9, SampleTraces(), &traces_resp);
  WriteSeed(dir, "traces_response.bin", traces_resp);

  // Two frames back to back: exercises the decoder's frame-boundary state.
  std::vector<uint8_t> pipelined = query_req;
  pipelined.insert(pipelined.end(), insert_req.begin(), insert_req.end());
  WriteSeed(dir, "pipelined_two_frames.bin", pipelined);

  // Deliberately broken variants so the error paths start covered.
  std::vector<uint8_t> bad_crc = query_req;
  bad_crc.back() ^= 0xff;  // payload tail feeds the CRC
  WriteSeed(dir, "bad_crc.bin", bad_crc);

  std::vector<uint8_t> truncated(query_req.begin(),
                                 query_req.begin() + net::kFrameHeaderBytes +
                                     3);
  WriteSeed(dir, "truncated_payload.bin", truncated);

  std::vector<uint8_t> bad_magic = query_req;
  bad_magic[0] ^= 0xff;
  WriteSeed(dir, "bad_magic.bin", bad_magic);

  // A version-1 peer's frame: rejected by the header check, never parsed.
  std::vector<uint8_t> bad_version = query_req;
  bad_version[4] = 1;
  WriteSeed(dir, "bad_version.bin", bad_version);
}

// --- deserialize_filter -----------------------------------------------------

void MakeDeserializeFilterSeeds(const fs::path& dir) {
  const std::vector<uint64_t> keys = SampleKeys(64);
  for (const std::string& name : prefixfilter::KnownFilterNames()) {
    // Small capacity keeps every committed seed a few KiB while still
    // producing every backend's full envelope + payload layout.
    auto filter = prefixfilter::MakeFilter(name, 1u << 10);
    if (!filter) {
      std::fprintf(stderr, "fuzz_make_seeds: MakeFilter(%s) failed\n",
                   name.c_str());
      ++g_failures;
      continue;
    }
    filter->InsertBatch(keys.data(), keys.size());
    std::vector<uint8_t> bytes;
    if (!filter->SerializeTo(&bytes)) {
      std::fprintf(stderr, "fuzz_make_seeds: SerializeTo(%s) failed\n",
                   name.c_str());
      ++g_failures;
      continue;
    }
    std::string file = name;
    for (char& c : file) {
      if (c == '[' || c == ']' || c == '-') c = '_';
    }
    WriteSeed(dir, file + ".bin", bytes);
  }

  // The sharded service snapshot (ShardedFilter::Deserialize's input), which
  // is not a factory configuration.
  auto sharded = prefixfilter::ShardedFilter::Make(
      1u << 10, {.num_shards = 16, .seed = 42});
  std::vector<uint8_t> sharded_bytes;
  if (sharded && sharded->InsertBatch(keys.data(), keys.size()) == 0 &&
      sharded->SerializeTo(&sharded_bytes)) {
    WriteSeed(dir, "SHARD16_PF_TC__.bin", sharded_bytes);
  } else {
    std::fprintf(stderr, "fuzz_make_seeds: SHARD16[PF[TC]] failed\n");
    ++g_failures;
  }

  // Envelope-level error seeds.
  auto filter = prefixfilter::MakeFilter("BF-8", 1u << 10);
  std::vector<uint8_t> bytes;
  if (filter && filter->SerializeTo(&bytes)) {
    std::vector<uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    WriteSeed(dir, "bad_magic.bin", bad_magic);
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + bytes.size() / 2);
    WriteSeed(dir, "truncated.bin", truncated);
  }
}

// --- json -------------------------------------------------------------------

void MakeJsonSeeds(const fs::path& dir) {
  WriteSeed(dir, "bench_config.json",
            std::string(R"({
  "filter": "PF[TC]",
  "capacity": 16777216,
  "load": 0.95,
  "batch_sizes": [1, 64, 4096],
  "negative_fraction": 0.5,
  "threads": 8,
  "native": true
})"));
  WriteSeed(dir, "nested.json",
            std::string(R"({"a":[{"b":[[1,2],[3,{"c":null}]]}],"d":{}})"));
  WriteSeed(dir, "scalars.json",
            std::string(R"([true, false, null, 0, -1, 3.5, 1e9, "s"])"));
  WriteSeed(dir, "escapes.json",
            std::string(R"({"kéy": "line\nbreak \"quoted\" \\ /"})"));
  WriteSeed(dir, "numbers.json",
            std::string(
                R"([18446744073709551615, -9223372036854775808, 1.25e-3])"));
  WriteSeed(dir, "unterminated.json", std::string(R"({"open": [1, 2)"));
  WriteSeed(dir, "trailing_garbage.json", std::string(R"({"a": 1} extra)"));
  WriteSeed(dir, "empty_string.json", std::string("\"\""));
}

// --- stats_codec ------------------------------------------------------------

void MakeStatsCodecSeeds(const fs::path& dir) {
  const net::WireStats stats = SampleStats();

  // The fuzz target consumes bare payloads (it sits below the framing), so
  // strip the 24-byte frame header off the encoders' full-frame output.
  std::vector<uint8_t> stats_frame;
  net::EncodeStatsResponse(1, stats, &stats_frame);
  WriteSeed(dir, "stats_payload.bin",
            std::vector<uint8_t>(stats_frame.begin() + net::kFrameHeaderBytes,
                                 stats_frame.end()));

  std::vector<uint8_t> metrics_blob;
  obs::EncodeMetricSamples(stats.metrics, &metrics_blob);
  WriteSeed(dir, "metrics_blob.bin", metrics_blob);

  std::vector<uint8_t> empty_blob;
  obs::EncodeMetricSamples({}, &empty_blob);
  WriteSeed(dir, "metrics_empty.bin", empty_blob);

  std::vector<uint8_t> truncated(metrics_blob.begin(),
                                 metrics_blob.begin() +
                                     metrics_blob.size() / 2);
  WriteSeed(dir, "metrics_truncated.bin", truncated);

  std::vector<uint8_t> traces_frame;
  net::EncodeTracesResponse(1, SampleTraces(), &traces_frame);
  WriteSeed(dir, "traces_payload.bin",
            std::vector<uint8_t>(traces_frame.begin() +
                                     net::kFrameHeaderBytes,
                                 traces_frame.end()));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  const struct {
    const char* name;
    void (*make)(const fs::path&);
  } kTargets[] = {
      {"frame_decoder", MakeFrameDecoderSeeds},
      {"deserialize_filter", MakeDeserializeFilterSeeds},
      {"json", MakeJsonSeeds},
      {"stats_codec", MakeStatsCodecSeeds},
  };
  for (const auto& target : kTargets) {
    const fs::path dir = root / target.name;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "fuzz_make_seeds: cannot create %s: %s\n",
                   dir.c_str(), ec.message().c_str());
      return 1;
    }
    target.make(dir);
    std::printf("seeded %s\n", dir.c_str());
  }
  return g_failures == 0 ? 0 : 1;
}
