#include "src/net/protocol.h"

#include <cstring>

#include "src/obs/exposition.h"
#include "src/util/serialize.h"
#include "src/util/simd.h"

namespace prefixfilter::net {
namespace {

void PutU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint16_t GetU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

bool IsKnownOpcode(uint8_t raw) {
  switch (static_cast<Opcode>(raw)) {
    case Opcode::kInsertBatch:
    case Opcode::kQueryBatch:
    case Opcode::kStats:
    case Opcode::kSnapshot:
    case Opcode::kTraces:
      return true;
  }
  return false;
}

uint32_t Crc32(const void* data, size_t len) { return Crc32Ieee(data, len); }

namespace {

// Grows *out by one frame with a `payload_len`-byte payload and returns the
// frame's first byte.  The caller fills the payload (kFrameHeaderBytes on)
// in place and writes the header with WriteHeader.
uint8_t* OpenFrame(size_t payload_len, std::vector<uint8_t>* out) {
  const size_t base = out->size();
  out->resize(base + kFrameHeaderBytes + payload_len);
  return out->data() + base;
}

// Writes the header of the frame starting at `h`; `crc` is its payload's
// Crc32.
void WriteHeader(uint8_t* h, Opcode opcode, uint16_t flags,
                 uint64_t request_id, size_t payload_len, uint32_t crc) {
  PutU32(h + 0, kFrameMagic);
  h[4] = kProtocolVersion;
  h[5] = static_cast<uint8_t>(opcode);
  PutU16(h + 6, flags);
  PutU64(h + 8, request_id);
  PutU32(h + 16, static_cast<uint32_t>(payload_len));
  PutU32(h + 20, crc);
}

}  // namespace

void AppendFrame(Opcode opcode, uint16_t flags, uint64_t request_id,
                 const uint8_t* payload, size_t payload_len,
                 std::vector<uint8_t>* out) {
  uint8_t* h = OpenFrame(payload_len, out);
  WriteHeader(h, opcode, flags, request_id, payload_len,
              Crc32(payload, payload_len));
  if (payload_len != 0) {
    std::memcpy(h + kFrameHeaderBytes, payload, payload_len);
  }
}

void EncodeKeyBatchRequest(Opcode opcode, uint64_t request_id,
                           const uint64_t* keys, size_t count,
                           std::vector<uint8_t>* out) {
  const size_t payload_len = 4 + 8 * count;
  uint8_t* h = OpenFrame(payload_len, out);
  uint8_t* payload = h + kFrameHeaderBytes;
  PutU32(payload, static_cast<uint32_t>(count));
  if (count != 0) std::memcpy(payload + 4, keys, 8 * count);
  WriteHeader(h, opcode, 0, request_id, payload_len,
              Crc32(payload, payload_len));
}

void EncodeEmptyRequest(Opcode opcode, uint64_t request_id,
                        std::vector<uint8_t>* out) {
  AppendFrame(opcode, 0, request_id, nullptr, 0, out);
}

void EncodeTracedKeyBatchRequest(Opcode opcode, uint64_t request_id,
                                 const TraceContext& context,
                                 const uint64_t* keys, size_t count,
                                 std::vector<uint8_t>* out) {
  const size_t payload_len = kTraceContextBytes + 4 + 8 * count;
  uint8_t* h = OpenFrame(payload_len, out);
  uint8_t* payload = h + kFrameHeaderBytes;
  PutU64(payload, context.trace_id);
  payload[8] = context.sampled ? kTraceContextSampled : 0;
  PutU32(payload + kTraceContextBytes, static_cast<uint32_t>(count));
  if (count != 0) {
    std::memcpy(payload + kTraceContextBytes + 4, keys, 8 * count);
  }
  WriteHeader(h, opcode, kFlagTraced, request_id, payload_len,
              Crc32(payload, payload_len));
}

bool DecodeTraceContext(const uint8_t* payload, size_t len,
                        TraceContext* context) {
  if (len < kTraceContextBytes) return false;
  context->trace_id = GetU64(payload);
  context->sampled = (payload[8] & kTraceContextSampled) != 0;
  return true;
}

void EncodeInsertResponse(uint64_t request_id, uint64_t failures,
                          std::vector<uint8_t>* out) {
  uint8_t payload[8];
  PutU64(payload, failures);
  AppendFrame(Opcode::kInsertBatch, kFlagResponse, request_id, payload,
              sizeof(payload), out);
}

void EncodeQueryResponse(uint64_t request_id, const uint8_t* results,
                         size_t count, std::vector<uint8_t>* out) {
  const size_t payload_len = 4 + count;
  uint8_t* h = OpenFrame(payload_len, out);
  uint8_t* payload = h + kFrameHeaderBytes;
  PutU32(payload, static_cast<uint32_t>(count));
  if (count != 0) std::memcpy(payload + 4, results, count);
  WriteHeader(h, Opcode::kQueryBatch, kFlagResponse, request_id, payload_len,
              Crc32(payload, payload_len));
}

void EncodeSnapshotResponse(uint64_t request_id,
                            const std::vector<uint8_t>& snapshot,
                            std::vector<uint8_t>* out) {
  AppendFrame(Opcode::kSnapshot, kFlagResponse, request_id, snapshot.data(),
              snapshot.size(), out);
}

void EncodeErrorResponse(Opcode opcode, uint64_t request_id, ErrorCode code,
                         const std::string& message,
                         std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  w.U32(static_cast<uint32_t>(code));
  w.Str(message);
  AppendFrame(opcode, kFlagResponse | kFlagError, request_id, payload.data(),
              payload.size(), out);
}

bool AppendKeyBatchPayload(const uint8_t* payload, size_t len,
                           std::vector<uint64_t>* keys) {
  if (len < 4) return false;
  const uint32_t count = GetU32(payload);
  if (count > kMaxKeysPerFrame || len != 4 + 8 * static_cast<size_t>(count)) {
    return false;
  }
  const size_t base = keys->size();
  keys->resize(base + count);
  if (count != 0) std::memcpy(keys->data() + base, payload + 4, 8 * count);
  return true;
}

bool DecodeKeyBatchPayload(const uint8_t* payload, size_t len,
                           std::vector<uint64_t>* keys) {
  keys->clear();
  return AppendKeyBatchPayload(payload, len, keys);
}

bool DecodeInsertResponsePayload(const uint8_t* payload, size_t len,
                                 uint64_t* failures) {
  if (len != 8) return false;
  *failures = GetU64(payload);
  return true;
}

bool DecodeQueryResponsePayload(const uint8_t* payload, size_t len,
                                std::vector<uint8_t>* results) {
  if (len < 4) return false;
  const uint32_t count = GetU32(payload);
  if (count > kMaxKeysPerFrame || len != 4 + static_cast<size_t>(count)) {
    return false;
  }
  results->assign(payload + 4, payload + 4 + count);
  return true;
}

bool DecodeErrorPayload(const uint8_t* payload, size_t len, ErrorCode* code,
                        std::string* message) {
  ByteReader r(payload, len);
  const uint32_t raw = r.U32();
  std::string text = r.Str();
  if (!r.ok() || r.remaining() != 0) return false;
  *code = static_cast<ErrorCode>(raw);
  *message = std::move(text);
  return true;
}

void EncodeStatsResponse(uint64_t request_id, const WireStats& stats,
                         std::vector<uint8_t>* out) {
  // Written in place behind a header slot, which is filled in last.
  const size_t base = out->size();
  out->resize(base + kFrameHeaderBytes);
  ByteWriter w(out);
  w.Str(stats.filter_name);
  w.U64(stats.capacity);
  w.U32(static_cast<uint32_t>(stats.shards.size()));
  for (const WireShardStats& s : stats.shards) {
    w.U64(s.inserts);
    w.U64(s.insert_failures);
    w.U64(s.queries);
    w.U64(s.hits);
  }
  obs::EncodeMetricSamples(stats.metrics, out);
  uint8_t* h = out->data() + base;
  const size_t payload_len = out->size() - base - kFrameHeaderBytes;
  WriteHeader(h, Opcode::kStats, kFlagResponse, request_id, payload_len,
              Crc32(h + kFrameHeaderBytes, payload_len));
}

bool DecodeStatsPayload(const uint8_t* payload, size_t len, WireStats* stats) {
  ByteReader r(payload, len);
  WireStats out;
  out.filter_name = r.Str();
  out.capacity = r.U64();
  const uint32_t num_shards = r.U32();
  // 32 bytes per shard must fit in what remains; bounds the allocation.
  if (!r.ok() || static_cast<size_t>(num_shards) * 32 > r.remaining()) {
    return false;
  }
  out.shards.resize(num_shards);
  for (WireShardStats& s : out.shards) {
    s.inserts = r.U64();
    s.insert_failures = r.U64();
    s.queries = r.U64();
    s.hits = r.U64();
  }
  if (!obs::DecodeMetricSamples(&r, &out.metrics)) return false;
  if (!r.ok() || r.remaining() != 0) return false;
  *stats = std::move(out);
  return true;
}

WireShardStats SumShards(const std::vector<WireShardStats>& shards) {
  WireShardStats total;
  for (const WireShardStats& s : shards) {
    total.inserts += s.inserts;
    total.insert_failures += s.insert_failures;
    total.queries += s.queries;
    total.hits += s.hits;
  }
  return total;
}

bool ServiceBatches(const WireStats& stats, const char* op,
                    uint64_t* batches) {
  const obs::MetricSample* s =
      obs::FindSample(stats.metrics, "service.batch.keys", "op", op);
  if (s == nullptr) return false;
  *batches = s->hist.count;
  return true;
}

void EncodeTracesResponse(uint64_t request_id,
                          const std::vector<obs::Trace>& traces,
                          std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  const size_t count =
      traces.size() < kMaxWireTraces ? traces.size() : kMaxWireTraces;
  w.U32(static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    const obs::Trace& t = traces[i];
    w.U64(t.trace_id);
    w.U64(t.request_id);
    w.U64(t.conn_id);
    w.U64(t.start_ns);
    w.U64(t.end_ns);
    w.U32(t.loop);
    w.U32(t.key_count);
    w.U32(t.frames);
    w.U32(t.spans_dropped);
    w.U8(t.opcode);
    w.U8(t.flags);
    const uint32_t span_count = t.span_count <= obs::kMaxTraceSpans
                                    ? t.span_count
                                    : obs::kMaxTraceSpans;
    w.U32(span_count);
    for (uint32_t s = 0; s < span_count; ++s) {
      w.U8(t.spans[s].stage);
      w.U64(t.spans[s].start_ns);
      w.U64(t.spans[s].end_ns);
      w.U64(t.spans[s].detail);
    }
  }
  AppendFrame(Opcode::kTraces, kFlagResponse, request_id, payload.data(),
              payload.size(), out);
}

bool DecodeTracesPayload(const uint8_t* payload, size_t len,
                         std::vector<obs::Trace>* traces) {
  ByteReader r(payload, len);
  const uint32_t count = r.U32();
  // 51 bytes of fixed fields per trace must fit in what remains; bounds the
  // allocation against hostile counts.
  if (!r.ok() || count > kMaxWireTraces ||
      static_cast<size_t>(count) * 51 > r.remaining()) {
    return false;
  }
  std::vector<obs::Trace> out;
  out.resize(count);
  for (obs::Trace& t : out) {
    t.trace_id = r.U64();
    t.request_id = r.U64();
    t.conn_id = r.U64();
    t.start_ns = r.U64();
    t.end_ns = r.U64();
    t.loop = r.U32();
    t.key_count = r.U32();
    t.frames = r.U32();
    t.spans_dropped = r.U32();
    t.opcode = r.U8();
    t.flags = r.U8();
    const uint32_t span_count = r.U32();
    if (!r.ok() || span_count > obs::kMaxTraceSpans) return false;
    t.span_count = span_count;
    for (uint32_t s = 0; s < span_count; ++s) {
      t.spans[s].stage = r.U8();
      t.spans[s].start_ns = r.U64();
      t.spans[s].end_ns = r.U64();
      t.spans[s].detail = r.U64();
    }
  }
  if (!r.ok() || r.remaining() != 0) return false;
  *traces = std::move(out);
  return true;
}

const char* DecodeStatusName(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kFrame: return "frame";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadChecksum: return "bad-checksum";
  }
  return "unknown";
}

void FrameDecoder::Feed(const uint8_t* data, size_t len) {
  // Compact lazily: drop the consumed prefix once it dominates the buffer,
  // so a long-lived pipelined connection doesn't grow the buffer forever yet
  // steady-state appends stay O(len).
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + len);
}

DecodeStatus FrameDecoder::Next(Frame* frame) {
  if (error_ != DecodeStatus::kNeedMore) return error_;
  const uint8_t* p = buffer_.data() + consumed_;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  if (GetU32(p) != kFrameMagic) return error_ = DecodeStatus::kBadMagic;
  if (p[4] != kProtocolVersion) return error_ = DecodeStatus::kBadVersion;
  const uint32_t payload_len = GetU32(p + 16);
  if (payload_len > kMaxPayload) return error_ = DecodeStatus::kBadLength;
  if (available < kFrameHeaderBytes + payload_len) {
    return DecodeStatus::kNeedMore;
  }
  const uint8_t* payload = p + kFrameHeaderBytes;
  if (Crc32(payload, payload_len) != GetU32(p + 20)) {
    return error_ = DecodeStatus::kBadChecksum;
  }
  frame->opcode = p[5];
  frame->flags = GetU16(p + 6);
  frame->request_id = GetU64(p + 8);
  frame->payload.assign(payload, payload + payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return DecodeStatus::kFrame;
}

}  // namespace prefixfilter::net
