// Synchronous client library for the networked membership service.
//
// One MembershipClient owns one TCP connection (blocking socket) and speaks
// the batch protocol of src/net/protocol.h.  The simple RPCs (Insert, Query,
// Stats, Snapshot) send one request frame and wait for its response; the
// pipelined query path splits a large key stream into frames of
// `max_batch_keys` and keeps up to `pipeline_depth` frames in flight, which
// is what lets the server merge a pipeline window into one BatchRouter batch
// (the §7 batch-orientation win, preserved across the socket).  Pipelined
// responses are reassembled by the request id each response echoes, because
// a server offloading batches to its worker pool may answer them in any
// order (see protocol.h); responses_reordered() counts how often that
// actually happened.
//
// Reconnect: when `auto_reconnect` is set, an RPC that hits a dead socket
// tears the connection down, redials, and retries once.  Retrying an insert
// can re-deliver keys the server already absorbed (at-least-once delivery).
// A duplicate takes a slot like a new key, so near capacity re-delivered
// keys can exhaust the spare and make later inserts fail; the ack counts
// those failures, and a failed insert never evicts a key acked earlier.
//
// Not thread-safe: one client per thread (they are cheap — a load generator
// opens dozens).
#ifndef PREFIXFILTER_SRC_NET_MEMBERSHIP_CLIENT_H_
#define PREFIXFILTER_SRC_NET_MEMBERSHIP_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/protocol.h"

namespace prefixfilter::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Keys per QUERY_BATCH frame on the pipelined path.
  size_t max_batch_keys = 4096;
  // QUERY_BATCH frames in flight before the client blocks on a response.
  // 1 = strict request/response; higher depths hide one RTT per frame and
  // give the server whole windows to merge.  Clamped to >= 1.
  size_t pipeline_depth = 8;
  bool auto_reconnect = true;
  // Non-empty: mirror every request frame this client puts on the wire and
  // every response frame it decodes into one file per frame under this
  // directory (which must exist) — genuine wire bytes for the fuzz seed
  // corpora (`net_loadgen --record-frames=DIR`).  Capped at 256 files per
  // client (kRecordFramesLimit) so a long run cannot fill the disk.
  // The explicit initializer keeps designated aggregate inits of
  // ClientOptions clean under -Wmissing-field-initializers.
  std::string record_frames_dir{};
  // Fraction of QUERY_BATCH frames (single-frame and pipelined) sent with a
  // kFlagTraced context prefix, client-sampled (0 disables, >= 1 traces every
  // frame).  The flag rides the query frame itself; no extra exchange.
  double trace_sample_rate = 0.0;
};

class MembershipClient {
 public:
  explicit MembershipClient(ClientOptions options);
  ~MembershipClient();

  MembershipClient(const MembershipClient&) = delete;
  MembershipClient& operator=(const MembershipClient&) = delete;

  // Dials options.host:port.  Idempotent while connected.  False on failure
  // (see error()).
  bool Connect();
  void Disconnect();
  bool connected() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

  // --- RPCs (each returns false on transport/protocol failure) --------------

  // Inserts a key batch; *failures receives the count the filter rejected.
  bool InsertBatch(const uint64_t* keys, size_t count, uint64_t* failures);

  // Queries a key batch with one frame; out->size() == count on success.
  bool QueryBatch(const uint64_t* keys, size_t count,
                  std::vector<uint8_t>* out);

  // Single-key convenience (one 1-key frame; the server's scalar fast path).
  bool Contains(uint64_t key, bool* present);

  // Pipelined batch query over a stream of any size (see file header).
  bool QueryPipelined(const uint64_t* keys, size_t count,
                      std::vector<uint8_t>* out);

  // Service counters, per-shard counters, and the server's metrics-registry
  // snapshot.
  bool Stats(WireStats* out);
  bool Snapshot(std::vector<uint8_t>* out);

  // Fetches the server's recent trace captures (Opcode::kTraces).
  bool Traces(std::vector<obs::Trace>* out);

  // --- client-side counters -------------------------------------------------

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t reconnects() const { return reconnects_; }
  // Server-reported per-RPC errors (error-flagged response frames).
  uint64_t remote_errors() const { return remote_errors_; }
  // Pipelined responses that arrived ahead of an older in-flight frame.
  uint64_t responses_reordered() const { return responses_reordered_; }
  // QUERY_BATCH frames sent with a sampled trace context.
  uint64_t frames_traced() const { return frames_traced_; }

 private:
  // Dials if disconnected; false when that fails.
  bool EnsureConnected();
  bool SendAll(const uint8_t* data, size_t len);
  // Blocks until one complete frame arrives.  False on EOF/socket/protocol
  // failure (the connection is closed).
  bool ReadFrame(Frame* frame);
  // Sends `request` and reads the response for `request_id`; handles the
  // one-shot reconnect-and-retry.  On success *response is the (non-error)
  // response frame.
  bool Roundtrip(const std::vector<uint8_t>& request, uint64_t request_id,
                 Frame* response);
  // Validates a response frame: id echo, response flag, error flag.
  bool CheckResponse(const Frame& frame, uint64_t request_id);
  void Fail(const std::string& message);
  // Appends one recorded frame file (see ClientOptions::record_frames_dir).
  void RecordFrameBytes(const char* tag, const uint8_t* data, size_t len);
  // Appends one QUERY_BATCH frame, traced when the sampler fires.
  void EncodeQueryFrame(uint64_t request_id, const uint64_t* keys,
                        size_t count, std::vector<uint8_t>* out);
  uint64_t NextTraceRandom();

  ClientOptions options_;
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  FrameDecoder decoder_;
  std::string error_;

  // Sampler state: threshold over the full u64 range (0 = tracing off) and a
  // per-client xorshift64 stream.
  uint64_t trace_threshold_ = 0;
  uint64_t trace_rng_ = 1;

  uint64_t frames_sent_ = 0;
  uint64_t frames_received_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t remote_errors_ = 0;
  uint64_t responses_reordered_ = 0;
  uint64_t frames_traced_ = 0;
  size_t frames_recorded_ = 0;
};

}  // namespace prefixfilter::net

#endif  // PREFIXFILTER_SRC_NET_MEMBERSHIP_CLIENT_H_
