// Networked membership service: a TCP front-end over FilterService.
//
// Scale-out is two layers deep:
//
// Loop-per-core: ServerOptions::num_loops spawns N independent event-loop
// threads, each with its own epoll Poller and its own SO_REUSEPORT listening
// socket bound to the same address, so the kernel balances incoming
// connections across loops with no shared accept state.  A connection is
// owned by exactly one loop for its whole life; per-loop traffic counters
// surface in the metrics registry labeled loop=<i> so /metrics shows the
// balance.
//
// Decode/filter decoupling: each loop is batch-first — all complete frames
// buffered on a connection are decoded in one pass, and runs of consecutive
// QUERY_BATCH frames are merged into ONE key batch, so a pipelining client's
// traffic reaches BatchRouter as large cross-shard batches, which it probes
// through per-shard index lists, 4096 keys at a time, with one lock per
// shard group: the §7 batch orientation survives the network hop.  One rule decides where each merged batch runs: a batch of
// fewer than kInlineQueryMaxKeys keys, on a connection with no batch in
// flight, is probed inline on the loop thread via QueryBatchSync — the probe
// costs far less than the pool handoff it would otherwise pay.  Any other
// batch, when the FilterService has worker threads, is handed to the pool via
// QueryBatchAsync: the loop keeps decoding while workers filter, completions
// come back through a per-loop queue plus a wakeup fd, and responses are
// emitted in COMPLETION order with each frame's request_id echoed.
// Ordering: a connection that waits for each answer before sending its next
// request (no pipelining) always gets its answers in request order, because
// a batch never runs inline while an older one is in flight.  Concurrent
// batches from a pipelining connection may answer out of order, and clients
// reassemble by request id (MembershipClient::QueryPipelined does).  A
// per-connection cap on offloaded batches in flight
// (ServerOptions::max_inflight_batches) parks the connection's read interest
// when reached, so one firehose client gets TCP backpressure instead of
// unbounded server memory.  Without workers every batch runs inline,
// responses in request order.
//
// Inserts stay on the loop thread, so they run beside the workers' query
// probes instead of queueing behind them.  An INSERT_BATCH of at most
// kInsertSliceKeys keys runs inline and is acknowledged in the same pass.  A
// larger one joins the loop's FIFO of insert jobs and is applied one slice of
// kInsertSliceKeys keys per loop iteration; between slices the loop polls
// with a zero timeout and serves ready reads and worker completions, so no
// iteration waits on a whole batch.  While a connection has an insert in
// progress the loop decodes no further frame from it and drops its read
// interest; the ack is encoded when the last slice lands, and only then does
// decoding resume.  A connection's frames behind its insert therefore see
// every key of it (read-your-writes), and a non-pipelining client still gets
// its answers in request order.  A connection that fails mid-insert (reset,
// socket error) is closed at once and the rest of its insert is dropped
// unacknowledged; a peer that only closed its end is not seen until the ack
// is due, so its insert lands and the ack is encoded for nobody.
//
// Lifecycle: Start() binds/listens (port 0 = kernel-assigned, see port()),
// spawns the loop threads; Stop() wakes every loop through its wakeup pipe,
// joins them (each loop grants in-flight offloaded batches a short grace
// window to complete and flush), drains the worker pool so no completion
// callback can outlive the server, and closes every fd.  The destructor
// stops the server.
#ifndef PREFIXFILTER_SRC_NET_MEMBERSHIP_SERVER_H_
#define PREFIXFILTER_SRC_NET_MEMBERSHIP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/poller.h"
#include "src/net/protocol.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/trace_sink.h"
#include "src/service/filter_service.h"
#include "src/util/thread_annotations.h"

namespace prefixfilter::net {

// What a deployment chooses.  The fixed limits (listen backlog, connection
// cap, per-connection read and write buffer caps, trace ring size) are
// constants on MembershipServer.
struct ServerOptions {
  // IPv4 dotted-quad to bind; the loopback default matches the intended
  // deployment behind a local proxy/sidecar (no auth on the wire protocol).
  std::string bind_address = "127.0.0.1";
  // 0 = kernel-assigned ephemeral port, reported by port().
  uint16_t port = 0;
  // Event-loop threads.  Each loop owns a Poller and a slice of the
  // connections; >1 binds one SO_REUSEPORT listener per loop (kernel-
  // balanced accept), and Start() fails if any of them cannot bind.  A
  // single loop binds a plain listener.  Clamped to >= 1.
  uint32_t num_loops = 1;
  // Offloaded batches a single connection may have in flight before the
  // loop stops reading from it (resumes as completions drain).  Clamped to
  // >= 1.  Bounds per-connection server memory and queue share (see
  // MembershipServer::kMaxConnections).
  uint32_t max_inflight_batches = 32;
  // Serve a plaintext HTTP listener (GET /metrics -> Prometheus text
  // exposition of the metrics registry) on loop 0.  0 = kernel-assigned
  // port, reported by http_port().
  bool enable_http = false;
  uint16_t http_port = 0;
  // Registry the server instruments into and the one /metrics + STATS
  // expose; nullptr = obs::MetricsRegistry::Global().  Must be the registry
  // the FilterService uses for its samples to appear in the same scrape.
  obs::MetricsRegistry* registry = nullptr;
  // Head-based trace sampling: fraction of merged query batches (0.0..1.0)
  // admitted to tracing at decode time.  0 (the default) disables head
  // sampling; client-propagated trace context (kFlagTraced with the sampled
  // bit) is always honored.  No-op under PF_OBS=OFF.
  double trace_sample_rate = 0.0;
  // Tail capture: when > 0, every merged query batch is timed and those
  // slower than this many nanoseconds are retained in the slow ring even if
  // not head-sampled.  Costs one small allocation per merged batch while
  // armed; 0 (the default) disables it.
  uint64_t trace_slow_ns = 0;
};

// Server-wide counters, readable concurrently with the running server
// (aggregated across loops; connections_accepted and frames_received are
// sums of the per-loop counters).  Keys served are not here: the shards
// count them (FilterService::filter().TotalStats(), or the STATS shard
// table).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_dropped = 0;  // protocol errors / overflow / rejects
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;          // response frames queued to outboxes
  uint64_t protocol_errors = 0;
  uint64_t query_frames_merged = 0;  // extra frames coalesced into a batch
  uint64_t bytes_in = 0;             // raw socket bytes (all listeners)
  uint64_t bytes_out = 0;
  uint64_t http_requests = 0;        // HTTP requests answered (any status)
  uint64_t batches_offloaded = 0;    // merged batches handed to the pool
  // Completions that arrived ahead of an older batch still in flight on the
  // same connection — the out-of-order path clients must reassemble.
  uint64_t responses_reordered = 0;
  // Times a connection hit max_inflight_batches and had its read interest
  // parked until completions drained.
  uint64_t backpressure_stalls = 0;
};

class MembershipServer {
 public:
  // Merged query batches smaller than this, on a connection with no batch in
  // flight, run inline on the loop thread; every other batch goes to the
  // worker pool when the service has one (see file header).  Sized where the
  // ~5 us pool handoff and the inline probe cost about the same: on a
  // single-loop, single-worker server with four synchronous clients, inline
  // serving wins throughput at 128-key batches and loses it from 256 keys up.
  static constexpr size_t kInlineQueryMaxKeys = 256;
  // Keys one loop iteration applies of a queued INSERT_BATCH (see file
  // header): about 12 us of PF[TC] inserts, one shard group of a 4096-key
  // batch at 16 shards.  On a one-loop, one-worker server with one client
  // inserting 4096-key batches and one querying, budgets of 128 to 512 keys
  // cut a 4096-key query's median round trip about equally, 1024 keys cut
  // it less, and smaller budgets pay one more poll per fewer keys.
  static constexpr size_t kInsertSliceKeys = 256;
  // Connections beyond this are accepted and immediately closed (counted
  // across all loops).  It is also the only bound on the FilterService
  // queue, which has none of its own so that QueryBatchAsync never blocks a
  // loop: a connection has at most ServerOptions::max_inflight_batches
  // batches offloaded, so the server queues at most this many times that
  // (32768 at the default cap).  A connection closed with batches in flight
  // keeps its slot until the last of them completes, so reconnecting cannot
  // get round the bound.
  static constexpr size_t kMaxConnections = 1024;

  MembershipServer(std::shared_ptr<FilterService> service,
                   ServerOptions options = {});
  ~MembershipServer();

  MembershipServer(const MembershipServer&) = delete;
  MembershipServer& operator=(const MembershipServer&) = delete;

  // Binds, listens, and spawns the event loops.  False on socket errors (see
  // error()); calling Start() twice is an error.
  bool Start();
  // Idempotent; joins every loop thread, drains in-flight worker-pool
  // batches, and closes every fd the server owns.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // The bound port (resolves port 0), valid after Start() succeeded.
  uint16_t port() const { return port_; }
  // The bound HTTP port, valid after Start() when options.enable_http.
  uint16_t http_port() const { return http_port_; }
  const std::string& error() const { return error_; }
  // Loops actually running (options.num_loops clamped), valid after Start().
  uint32_t num_loops() const { return static_cast<uint32_t>(loops_.size()); }

  ServerStats stats() const;

  // The server's trace retention (sampled + slow rings); what GET /traces
  // and the TRACES opcode render.  Valid for the server's lifetime.
  const obs::TraceSink& trace_sink() const { return trace_sink_; }

 private:
  // listen() backlog of every listener (binary and HTTP).
  static constexpr int kListenBacklog = 128;
  // A connection whose outbound buffer exceeds this is dropped (a client
  // that stops reading must not grow server memory without bound).
  static constexpr size_t kMaxWriteBuffer = size_t{256} << 20;
  // Inbound counterpart: once a connection has this much undecoded input
  // buffered, the event loop stops recv()ing from it for the rest of the
  // wakeup (level-triggered pollers re-arm), bounding both per-connection
  // memory and how long one flooding client can monopolize the loop.  One
  // max-size frame, so a legal frame always fits.
  static constexpr size_t kMaxReadBuffer = kMaxPayload + kFrameHeaderBytes;
  // Retained traces per ring (sampled and slow each).
  static constexpr size_t kTraceRingCapacity = 256;

  struct Connection {
    int fd = -1;
    // Server-wide unique id: completions name connections by id, never by
    // fd, so a completion for a closed connection cannot hit an unrelated
    // connection that recycled the fd.
    uint64_t id = 0;
    FrameDecoder decoder;
    std::vector<uint8_t> outbox;  // encoded responses not yet written
    size_t outbox_sent = 0;
    // Poller interest currently registered (Update is only issued when the
    // desired interest diverges from these).
    bool want_read = true;
    bool want_write = false;
    // Set when the connection dies for a reason the server holds against it
    // (protocol error, socket error, write-buffer overflow) as opposed to a
    // clean client shutdown; feeds connections_dropped.
    bool dropped = false;
    // Peer sent EOF; the connection only survives to drain its outbox and
    // in-flight offloaded batches (write-interest only — a level-triggered
    // EOF must not spin the loop).
    bool peer_closed = false;
    // Backpressure park flag: read interest dropped until completions bring
    // the in-flight count back under the cap.
    bool read_parked = false;
    // An INSERT_BATCH of this connection sits in the loop's insert FIFO:
    // nothing more is decoded, and read interest stays dropped, until its
    // ack is encoded.
    bool insert_pending = false;
    // Per-connection submit sequence numbers of the offloaded batches not
    // yet completed, oldest first; its size is the in-flight count, and
    // completing anything but the front is a reordered response.
    uint64_t next_seq = 0;
    std::vector<uint64_t> inflight_seqs;
    // Accepted on the HTTP listener: the byte stream is HTTP/1.x, served by
    // ServeHttpConnection, one request per connection (Connection: close).
    bool is_http = false;
    std::vector<uint8_t> http_in;  // unparsed HTTP request bytes
  };

  // A merged query batch completed by the worker pool, queued back to the
  // owning loop (see FlushQueries / DrainCompletions).
  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    // (request_id, key count) per original frame, in merge order.
    std::vector<std::pair<uint64_t, uint32_t>> requests;
    std::vector<uint8_t> results;
    uint64_t submit_ns = 0;
    // When the worker finished the batch (callback entry); feeds the
    // completion-transit span and the wakeup-dispatch-delay histogram.
    uint64_t done_ns = 0;
    // Non-null when the batch is traced: the loop finishes the trace
    // (completion + write spans, slow check, sink push) while draining.
    std::shared_ptr<obs::ActiveTrace> trace;
  };

  // A large INSERT_BATCH applied in slices between polls (see
  // RunInsertSlice).
  struct InsertWork {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    // net.server.request.ns{op="insert"} runs from here to the ack.
    uint64_t decode_ns = 0;
    std::vector<uint64_t> keys;  // what `job` inserts
    FilterService::InsertJob job;
  };

  // Everything one event-loop thread owns.  Only that thread touches the
  // poller and connection maps (single-owner discipline, not a mutex —
  // Stop() reads them only after joining the thread); `completions` is the
  // single cross-thread handoff point (mutex + wakeup pipe).
  struct Loop {
    uint32_t index = 0;
    std::unique_ptr<Poller> poller;
    std::unordered_map<int, Connection> connections;
    std::unordered_map<uint64_t, int> fd_by_conn_id;
    int listen_fd = -1;
    int http_listen_fd = -1;  // loop 0 only
    int wake_read_fd = -1;
    int wake_write_fd = -1;
    std::thread thread;
    Mutex completions_mutex;
    std::vector<Completion> completions PF_GUARDED_BY(completions_mutex);
    // Loop-thread-only xorshift state behind head sampling and server-side
    // trace-id generation (seeded in Start()).
    uint64_t rng_state = 1;
    // Serve-pass scratch, reused across passes so the inline query path
    // allocates nothing once warm.  Safe to share across the loop's
    // connections because ServeConnection never runs nested: it is entered
    // only from LoopRun, DrainCompletions and RunInsertSlice, and nothing it
    // calls reaches any of them.  ServeConnection clears the pending batch at
    // the start of each pass and frees oversized buffers at its end; an
    // offloaded batch takes pending_keys' buffer with it.
    Frame frame;
    std::vector<uint64_t> pending_keys;
    // (request_id, key count) per merged QUERY_BATCH frame, in merge order.
    std::vector<std::pair<uint64_t, uint32_t>> pending_queries;
    std::vector<uint8_t> results;  // inline batch answers
    // Queued large inserts, oldest first; the front one gets the next slice.
    std::deque<InsertWork> inserts;
    // Connections closed with offloaded batches still on the pool, by id:
    // how many of those batches have yet to complete.  Each keeps its
    // connection slot until the count reaches zero (see kMaxConnections).
    std::unordered_map<uint64_t, size_t> orphaned_batches;
  };

  // Per-loop traffic counters behind the loop=<i> metric labels, and the
  // only home of the accept and received-frame counts (stats() sums them).
  // Fixed at construction so the scrape-time collector never races loop
  // setup.
  struct LoopTraffic {
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> frames{0};
  };

  void LoopRun(Loop& loop);
  void AcceptAll(Loop& loop, int listen_fd, bool is_http);
  // Reads, decodes, and serves everything buffered on `conn`.  Returns false
  // when the connection must be closed.
  bool ServeConnection(Loop& loop, Connection& conn);
  // HTTP counterpart: reads until a full request head, answers GET /metrics
  // with the Prometheus rendering of the registry, and closes after the
  // response drains (via the peer_closed/FlushOutbox path).
  bool ServeHttpConnection(Loop& loop, Connection& conn);
  // Trace clock of one ServeConnection pass: socket reads span
  // [start_ns, read_end_ns); decoding then runs until each batch is sealed.
  // Both are 0 when observability is compiled out.
  struct ServePass {
    uint64_t start_ns = 0;
    uint64_t read_end_ns = 0;
  };
  // Serves loop.frame, appending QUERY_BATCH keys to the loop's pending
  // batch.
  void HandleFrame(Loop& loop, Connection& conn,
                   std::shared_ptr<obs::ActiveTrace>* pending_trace,
                   const ServePass& pass);
  // Serves one INSERT_BATCH payload: inline and acknowledged at once when it
  // fits in one slice, else queued on the loop's insert FIFO.
  void HandleInsert(Loop& loop, Connection& conn, uint64_t request_id,
                    const uint8_t* payload, size_t payload_len);
  // Encodes an INSERT_BATCH ack and counts it.
  void AckInsert(Connection& conn, uint64_t request_id, uint64_t failures,
                 uint64_t decode_ns);
  // Applies one slice of the loop's oldest queued insert; when that lands,
  // acknowledges it and re-serves its connection.
  void RunInsertSlice(Loop& loop);
  // Runs the loop's pending query keys as one merged batch: inline when the
  // batch is small and the connection has nothing in flight (one response
  // frame per original request, in request order), else on the worker pool
  // (responses emitted on completion).  *pending_trace (when non-null) rides
  // with the batch and is consumed.
  void FlushQueries(Loop& loop, Connection& conn,
                    std::shared_ptr<obs::ActiveTrace>* pending_trace,
                    const ServePass& pass);
  // Stamps end_ns, applies the slow-threshold tail check, and retains the
  // trace in the sink when it is sampled or slow.
  void FinishTrace(obs::ActiveTrace& trace);
  // Loop-thread-only xorshift64 step (head sampling, trace-id generation).
  static uint64_t LoopRandom(Loop& loop);
  // Emits responses for every queued completion on this loop; unparks and
  // re-serves connections that were capped.
  void DrainCompletions(Loop& loop);
  // Attempts a non-blocking drain of conn.outbox; updates poller interest.
  bool FlushOutbox(Loop& loop, Connection& conn);
  // Closes `fd`; its slot is released now, or, while offloaded batches of
  // the connection are still on the pool, when the last of them completes.
  void CloseConnection(Loop& loop, int fd, bool dropped);
  // Frees `count` slots counted against kMaxConnections.
  void ReleaseConnectionSlots(size_t count);
  // True while `conn` must survive: outbox bytes unsent, batches in flight,
  // or an insert in progress.
  static bool HasPendingWork(const Connection& conn) {
    return conn.outbox_sent < conn.outbox.size() ||
           !conn.inflight_seqs.empty() || conn.insert_pending;
  }

  std::shared_ptr<FilterService> service_;
  ServerOptions options_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::unique_ptr<LoopTraffic>> loop_traffic_;
  uint16_t port_ = 0;
  uint16_t http_port_ = 0;
  std::string error_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;
  std::atomic<uint64_t> next_conn_id_{1};
  // Across all loops; checked against kMaxConnections on accept.
  std::atomic<size_t> open_connections_{0};

  std::atomic<uint64_t> connections_dropped_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> query_frames_merged_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> http_requests_{0};
  std::atomic<uint64_t> batches_offloaded_{0};
  std::atomic<uint64_t> responses_reordered_{0};
  std::atomic<uint64_t> backpressure_stalls_{0};

  // Observability: histograms resolved once at construction and recorded on
  // the loop threads; the atomics above reach the registry through a
  // scrape-time collector (see the constructor).
  obs::MetricsRegistry* registry_;
  obs::Gauge* active_conns_gauge_;
  obs::LatencyHistogram* insert_request_hist_;
  obs::LatencyHistogram* query_request_hist_;
  obs::LatencyHistogram* stats_request_hist_;
  obs::LatencyHistogram* snapshot_request_hist_;
  obs::LatencyHistogram* merge_frames_hist_;
  // Loop self-telemetry: busy-iteration duration, completion dispatch delay
  // (worker callback -> loop drain), and completion-queue depth per drain.
  obs::LatencyHistogram* loop_iter_hist_;
  obs::LatencyHistogram* wakeup_delay_hist_;
  obs::LatencyHistogram* completions_depth_hist_;
  // Request-trace retention (see trace_sink()); bounded lock-free rings.
  obs::TraceSink trace_sink_;
  // options_.trace_sample_rate mapped onto the u64 PRNG range (0 = never,
  // UINT64_MAX = always); resolved once in the constructor.
  uint64_t trace_threshold_ = 0;
  uint64_t collector_id_ = 0;
};

// Fills a WireStats from a service (shared by the STATS handler and tests).
WireStats CollectWireStats(const FilterService& service);

}  // namespace prefixfilter::net

#endif  // PREFIXFILTER_SRC_NET_MEMBERSHIP_SERVER_H_
