// Wire protocol for the networked membership service.
//
// The service speaks a length-prefixed binary protocol over TCP, designed
// around the same batch orientation the paper's evaluation uses (§7.3): a
// client ships whole key batches per frame and the server answers each frame
// with one response frame, so a pipelined connection keeps large batches
// flowing into BatchRouter (src/service/batch_router.h), which probes each
// shard's keys in place through an index list under one lock.
//
// Frame layout (fixed 24-byte header, no varints; multi-byte fields are
// host-endian via memcpy — little-endian on every target this library
// supports, same stance as src/util/serialize.h; big-endian hosts are out
// of scope for the whole wire-format family):
//
//   offset  size  field
//        0     4  magic        0x50464E31 ("PFN1")
//        4     1  version      kProtocolVersion (3)
//        5     1  opcode       Opcode below
//        6     2  flags        bit 0 = response, bit 1 = error response,
//                              bit 2 = payload starts with a trace context
//        8     8  request_id   client-chosen, echoed verbatim in the response
//       16     4  payload_len  bytes following the header (<= kMaxPayload)
//       20     4  checksum     CRC-32 (IEEE) of the payload bytes
//
// Payloads:
//   INSERT_BATCH / QUERY_BATCH request:  u32 count, then count x u64 keys
//   INSERT_BATCH response:               u64 failed-insert count
//   QUERY_BATCH  response:               u32 count, then count x u8 (0/1)
//   STATS        request:                empty
//   STATS        response:               str filter_name, u64 capacity,
//                                        u32 shard count + 4 x u64 per shard
//                                        (inserts, insert failures, queries,
//                                        hits), then the metrics blob (see
//                                        EncodeStatsResponse)
//   SNAPSHOT     request:                empty
//   SNAPSHOT     response:               AnyFilter envelope bytes (the same
//                                        image ShardedFilter::SerializeTo
//                                        writes)
//   TRACES       request:                empty
//   TRACES       response:               captured trace records (see
//                                        EncodeTracesResponse)
//   error        response:               u32 ErrorCode, then u32-length-
//                                        prefixed UTF-8 message
//
// Trace context (kFlagTraced, bit 2): when set on a request, the payload is
// prefixed with kTraceContextBytes of trace context — u64 trace id + u8
// context flags (bit 0 = sampled) — and the opcode's normal payload follows.
// Every server since version 2 accepts the bit on any request and strips the
// prefix before parsing; a server built with observability compiled out
// simply records nothing.
//
// Response ordering: the request_id echo is the correlation contract.  A
// synchronous (no worker pool) server answers every frame in request order,
// but a server offloading query batches to its worker pool may answer
// pipelined QUERY_BATCH frames out of order — both relative to each other
// and relative to a later non-query frame on the same connection.  Clients
// MUST match responses to requests by request_id (MembershipClient's
// pipelined path keeps a reassembly window keyed by id) and must not assume
// FIFO response order beyond one-frame-at-a-time request/response use.
//
// Versioning: the header's version byte gates the whole frame; a decoder
// seeing any other version reports kBadVersion without consuming past the
// header.  Payloads carry no version of their own: a layout change is a
// header version bump, so an older peer (versions 1 and 2 laid out STATS
// differently) is rejected cleanly instead of misdecoded.
//
// Robustness: FrameDecoder is incremental (feed arbitrary byte slices) and
// malformed-input-safe — bad magic/version/length/checksum poison the stream
// with a sticky typed error (a byte stream cannot be resynchronized once
// framing is lost, and a corrupted payload means the bytes cannot be
// trusted, so the connection must be dropped), and payload parsers bound
// every count against the actual byte length before allocating.
#ifndef PREFIXFILTER_SRC_NET_PROTOCOL_H_
#define PREFIXFILTER_SRC_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace prefixfilter::net {

inline constexpr uint32_t kFrameMagic = 0x50464E31;  // "PFN1"
inline constexpr uint8_t kProtocolVersion = 3;
inline constexpr size_t kFrameHeaderBytes = 24;
// Upper bound on a frame payload.  Requests are key batches (a 1M-key batch
// is 8 MiB); responses include whole service snapshots, which for the
// capacities this repo benches stay well under this cap.
inline constexpr uint32_t kMaxPayload = 64u << 20;
// Largest key count a single INSERT/QUERY frame may carry.
inline constexpr uint32_t kMaxKeysPerFrame = 1u << 20;

enum class Opcode : uint8_t {
  kInsertBatch = 1,
  kQueryBatch = 2,
  kStats = 3,
  kSnapshot = 4,
  kTraces = 5,
};

// Returns true for the opcodes this version understands.
bool IsKnownOpcode(uint8_t raw);

inline constexpr uint16_t kFlagResponse = 1u << 0;
inline constexpr uint16_t kFlagError = 1u << 1;
// Request payload begins with a trace context (see the header comment).
inline constexpr uint16_t kFlagTraced = 1u << 2;

enum class ErrorCode : uint32_t {
  kBadRequest = 1,   // well-framed but semantically invalid payload
  kUnsupported = 2,  // unknown opcode
  kInternal = 3,     // server-side failure (e.g. snapshot over the frame cap)
};

// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over `len` bytes.  The
// kernel is chosen at compile time (src/util/simd.h: PCLMULQDQ folding when
// the build targets it, slicing-by-8 otherwise); every kernel computes the
// same value, so the choice never changes the wire bytes.
uint32_t Crc32(const void* data, size_t len);

struct Frame {
  uint8_t opcode = 0;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  std::vector<uint8_t> payload;

  bool is_response() const { return (flags & kFlagResponse) != 0; }
  bool is_error() const { return (flags & kFlagError) != 0; }
};

// --- encoding ---------------------------------------------------------------

// Appends one complete frame (header + payload) to `out`.
void AppendFrame(Opcode opcode, uint16_t flags, uint64_t request_id,
                 const uint8_t* payload, size_t payload_len,
                 std::vector<uint8_t>* out);

// Request encoders.
void EncodeKeyBatchRequest(Opcode opcode, uint64_t request_id,
                           const uint64_t* keys, size_t count,
                           std::vector<uint8_t>* out);
void EncodeEmptyRequest(Opcode opcode, uint64_t request_id,
                        std::vector<uint8_t>* out);

// --- trace context (kFlagTraced payload prefix) -----------------------------

// The per-request trace context carried ahead of a traced request's payload.
struct TraceContext {
  uint64_t trace_id = 0;
  bool sampled = false;
};

// Wire size of the prefix: u64 trace_id + u8 context flags.
inline constexpr size_t kTraceContextBytes = 9;
inline constexpr uint8_t kTraceContextSampled = 1u << 0;

// Key-batch request with kFlagTraced set and the context prefixed to the
// payload.
void EncodeTracedKeyBatchRequest(Opcode opcode, uint64_t request_id,
                                 const TraceContext& context,
                                 const uint64_t* keys, size_t count,
                                 std::vector<uint8_t>* out);

// Parses the trace-context prefix of a kFlagTraced payload.  False when the
// payload is shorter than the prefix; on success the caller consumes
// kTraceContextBytes and parses the remainder as the opcode's normal payload.
bool DecodeTraceContext(const uint8_t* payload, size_t len,
                        TraceContext* context);

// Response encoders (server side).
void EncodeInsertResponse(uint64_t request_id, uint64_t failures,
                          std::vector<uint8_t>* out);
void EncodeQueryResponse(uint64_t request_id, const uint8_t* results,
                         size_t count, std::vector<uint8_t>* out);
void EncodeSnapshotResponse(uint64_t request_id,
                            const std::vector<uint8_t>& snapshot,
                            std::vector<uint8_t>* out);
void EncodeErrorResponse(Opcode opcode, uint64_t request_id, ErrorCode code,
                         const std::string& message,
                         std::vector<uint8_t>* out);

// --- payload parsers (all bounds-checked; false = malformed) ---------------

// INSERT/QUERY request payload -> keys.  Enforces count <= kMaxKeysPerFrame
// and an exact payload length match.
bool DecodeKeyBatchPayload(const uint8_t* payload, size_t len,
                           std::vector<uint64_t>* keys);
// Same validation, but APPENDS to *keys without clearing — the server's
// pipeline-merge path accumulates many frames into one batch with no
// per-frame allocation.  *keys is untouched on failure.
bool AppendKeyBatchPayload(const uint8_t* payload, size_t len,
                           std::vector<uint64_t>* keys);
bool DecodeInsertResponsePayload(const uint8_t* payload, size_t len,
                                 uint64_t* failures);
bool DecodeQueryResponsePayload(const uint8_t* payload, size_t len,
                                std::vector<uint8_t>* results);
bool DecodeErrorPayload(const uint8_t* payload, size_t len, ErrorCode* code,
                        std::string* message);

// --- STATS payload ----------------------------------------------------------

// Per-shard counters as served over the wire (mirrors ShardStats).
struct WireShardStats {
  uint64_t inserts = 0;
  uint64_t insert_failures = 0;
  uint64_t queries = 0;
  uint64_t hits = 0;
};

// Service-wide stats snapshot served by the STATS opcode (request:
// EncodeEmptyRequest(kStats, ...)).  Each quantity travels once.  The
// per-shard vector carries the key and failure counts (SumShards gives the
// totals) and is the observable proof that socket traffic rides the
// BatchRouter/shard path.  `metrics` is the server's full metrics-registry
// snapshot (empty under PF_OBS=OFF); batch counts are read from it
// (ServiceBatches).
struct WireStats {
  std::string filter_name;
  uint64_t capacity = 0;
  std::vector<WireShardStats> shards;
  std::vector<obs::MetricSample> metrics;
};

// Payload: str filter_name, u64 capacity, u32 shard count + 4 x u64 per
// shard, then the metrics blob (obs::EncodeMetricSamples).
void EncodeStatsResponse(uint64_t request_id, const WireStats& stats,
                         std::vector<uint8_t>* out);
// Validates every count against the bytes present and requires the payload
// to end exactly after the metrics blob.
bool DecodeStatsPayload(const uint8_t* payload, size_t len, WireStats* stats);

// Service-wide key and failure totals: the per-shard counters summed.
WireShardStats SumShards(const std::vector<WireShardStats>& shards);
// Batches the service executed for `op` ("insert" or "query"): the count of
// the service.batch.keys{op} histogram in stats.metrics.  False when the blob
// lacks the series (a PF_OBS=OFF server).
bool ServiceBatches(const WireStats& stats, const char* op, uint64_t* batches);

// --- TRACES payload ---------------------------------------------------------

// Cap on traces per response frame; bounds the decoder's allocation.
inline constexpr uint32_t kMaxWireTraces = 4096;

// Response payload: u32 trace count, then per trace the fixed Trace fields
// followed by its span list.  Request is EncodeEmptyRequest(kTraces, ...).
void EncodeTracesResponse(uint64_t request_id,
                          const std::vector<obs::Trace>& traces,
                          std::vector<uint8_t>* out);
bool DecodeTracesPayload(const uint8_t* payload, size_t len,
                         std::vector<obs::Trace>* traces);

// --- incremental decoding ---------------------------------------------------

enum class DecodeStatus {
  kFrame,       // *frame filled; more input may still be buffered
  kNeedMore,    // no complete frame buffered yet
  kBadMagic,    // stream is not this protocol (fatal)
  kBadVersion,  // unknown protocol version (fatal)
  kBadLength,   // advertised payload exceeds kMaxPayload (fatal)
  kBadChecksum, // framing intact but payload corrupted (fatal)
};

const char* DecodeStatusName(DecodeStatus status);

// Accumulates a byte stream and pops complete frames.  Any kBad* status is
// sticky: framing is lost, so every later Next() repeats the error and the
// owner must drop the connection.
class FrameDecoder {
 public:
  // Appends raw bytes from the socket.
  void Feed(const uint8_t* data, size_t len);

  // Pops the next complete frame into *frame.
  DecodeStatus Next(Frame* frame);

  // Bytes buffered but not yet consumed (diagnostics/tests).
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out as frames
  DecodeStatus error_ = DecodeStatus::kNeedMore;  // sticky once kBad*
};

}  // namespace prefixfilter::net

#endif  // PREFIXFILTER_SRC_NET_PROTOCOL_H_
