#include "src/net/membership_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "src/obs/exposition.h"

namespace prefixfilter::net {
namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Nagle off: the server's responses are complete frames; delaying them only
// adds latency to the pipelined request/response pattern the protocol wants.
void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Serve-pass scratch keeps the capacity ordinary passes need; a rare huge
// frame or merged batch hands its buffer back rather than pinning it for the
// loop's lifetime.
template <typename T>
void TrimScratch(std::vector<T>* v) {
  constexpr size_t kScratchKeepBytes = 1u << 20;
  if (v->capacity() * sizeof(T) > kScratchKeepBytes) *v = std::vector<T>();
}

}  // namespace

WireStats CollectWireStats(const FilterService& service) {
  WireStats wire;
  const ShardedFilter& filter = service.filter();
  wire.filter_name = filter.Name();
  wire.capacity = filter.Capacity();
  wire.shards.reserve(filter.num_shards());
  for (uint32_t s = 0; s < filter.num_shards(); ++s) {
    const ShardStats shard = filter.shard_stats(s);
    WireShardStats w;
    w.inserts = shard.inserts;
    w.insert_failures = shard.insert_failures;
    w.queries = shard.queries;
    w.hits = shard.hits;
    wire.shards.push_back(w);
  }
  return wire;
}

MembershipServer::MembershipServer(std::shared_ptr<FilterService> service,
                                   ServerOptions options)
    : service_(std::move(service)),
      options_(std::move(options)),
      registry_(options_.registry != nullptr
                    ? options_.registry
                    : &obs::MetricsRegistry::Global()),
      active_conns_gauge_(registry_->GetGauge("net.server.connections.active")),
      insert_request_hist_(registry_->GetHistogram("net.server.request.ns",
                                                   {{"op", "insert"}})),
      query_request_hist_(registry_->GetHistogram("net.server.request.ns",
                                                  {{"op", "query"}})),
      stats_request_hist_(registry_->GetHistogram("net.server.request.ns",
                                                  {{"op", "stats"}})),
      snapshot_request_hist_(registry_->GetHistogram("net.server.request.ns",
                                                     {{"op", "snapshot"}})),
      merge_frames_hist_(registry_->GetHistogram("net.server.merge.frames")),
      loop_iter_hist_(registry_->GetHistogram("net.loop.iter.ns")),
      wakeup_delay_hist_(registry_->GetHistogram("net.loop.wakeup.delay.ns")),
      completions_depth_hist_(
          registry_->GetHistogram("net.loop.completions.depth")),
      trace_sink_(kTraceRingCapacity) {
  // Map the sampling rate onto the full u64 PRNG range once; the hot path
  // then decides with one compare.  rate >= 1 must not round through the
  // double->u64 cast (2^64 is not representable), so it clamps explicitly.
  const double rate = options_.trace_sample_rate;
  if (rate >= 1.0) {
    trace_threshold_ = ~uint64_t{0};
  } else if (rate > 0.0) {
    trace_threshold_ =
        static_cast<uint64_t>(rate * static_cast<double>(~uint64_t{0}));
  }
  // Sized (and never resized) here so the scrape-time collector below can
  // walk it without synchronizing against Start()/Stop().
  const uint32_t num_loops = std::max(1u, options_.num_loops);
  loop_traffic_.reserve(num_loops);
  for (uint32_t i = 0; i < num_loops; ++i) {
    loop_traffic_.push_back(std::make_unique<LoopTraffic>());
  }
  collector_id_ = registry_->AddCollector(
      [this](std::vector<obs::MetricSample>* samples) {
        const ServerStats s = stats();
        const auto counter = [samples](const char* name, uint64_t value) {
          obs::MetricSample sample;
          sample.name = name;
          sample.kind = obs::MetricKind::kCounter;
          sample.value = static_cast<int64_t>(value);
          samples->push_back(std::move(sample));
        };
        counter("net.server.connections.accepted", s.connections_accepted);
        counter("net.server.connections.dropped", s.connections_dropped);
        counter("net.server.frames.in", s.frames_received);
        counter("net.server.frames.out", s.frames_sent);
        counter("net.server.protocol.errors", s.protocol_errors);
        counter("net.server.frames.merged", s.query_frames_merged);
        counter("net.server.bytes.in", s.bytes_in);
        counter("net.server.bytes.out", s.bytes_out);
        counter("net.server.http.requests", s.http_requests);
        counter("net.server.batches.offloaded", s.batches_offloaded);
        counter("net.server.responses.reordered", s.responses_reordered);
        counter("net.server.backpressure.stalls", s.backpressure_stalls);
        const obs::TraceSinkStats trace_stats = trace_sink_.stats();
        counter("net.server.traces.sampled", trace_stats.sampled);
        counter("net.server.traces.slow", trace_stats.slow);
        counter("net.server.traces.dropped", trace_stats.dropped);
        // Per-loop balance: one labeled series per event loop, so /metrics
        // shows how evenly SO_REUSEPORT spreads the load.
        for (size_t i = 0; i < loop_traffic_.size(); ++i) {
          const LoopTraffic& t = *loop_traffic_[i];
          const obs::MetricsRegistry::Labels labels = {
              {"loop", std::to_string(i)}};
          const auto loop_counter = [samples, &labels](const char* name,
                                                       uint64_t value) {
            obs::MetricSample sample;
            sample.name = name;
            sample.labels = labels;
            sample.kind = obs::MetricKind::kCounter;
            sample.value = static_cast<int64_t>(value);
            samples->push_back(std::move(sample));
          };
          loop_counter("net.server.loop.connections",
                       t.accepted.load(std::memory_order_relaxed));
          loop_counter("net.server.loop.frames",
                       t.frames.load(std::memory_order_relaxed));
        }
      });
}

MembershipServer::~MembershipServer() {
  Stop();
  registry_->RemoveCollector(collector_id_);
}

namespace {

// Opens a non-blocking listening socket on addr:port; returns -1 and fills
// *error on failure, else the fd with *bound_port resolved (port 0 cases).
// `reuseport` additionally requests SO_REUSEPORT (the kernel then balances
// accepts across every socket bound to the same addr:port).
int OpenListener(const std::string& address, uint16_t port, int backlog,
                 bool reuseport, uint16_t* bound_port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport &&
      setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    *error = std::string("setsockopt(SO_REUSEPORT): ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    *error = "bad bind address: " + address;
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  *bound_port = ntohs(bound.sin_port);
  if (!SetNonBlocking(fd)) {
    *error = std::string("fcntl: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

bool MembershipServer::Start() {
  if (started_) {
    error_ = "Start() called twice";
    return false;
  }
  started_ = true;

  const uint32_t num_loops = static_cast<uint32_t>(loop_traffic_.size());
  loops_.reserve(num_loops);
  for (uint32_t i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    // Distinct nonzero xorshift seeds per loop; the clock term keeps trace
    // ids from repeating across server restarts (0 under PF_OBS=OFF, where
    // the constant still keeps the state nonzero).
    loop->rng_state =
        (obs::NowNanos() | 1) ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    loops_.push_back(std::move(loop));
  }

  // Listeners.  Multi-loop binds one SO_REUSEPORT socket per loop, so the
  // kernel balances accepts with zero shared state; any bind failure fails
  // Start() (Stop() closes the listeners that did bind).  A single loop
  // binds a plain listener: SO_REUSEPORT on it would let a second server
  // bind the same port silently, and tests (and operators) rely on that
  // clash reporting EADDRINUSE.
  const bool reuseport = num_loops > 1;
  for (uint32_t i = 0; i < num_loops; ++i) {
    // Loop 0 resolves port 0; its siblings bind the port it got.
    loops_[i]->listen_fd =
        OpenListener(options_.bind_address, i == 0 ? options_.port : port_,
                     kListenBacklog, reuseport, &port_, &error_);
    if (loops_[i]->listen_fd < 0) return false;
  }

  if (options_.enable_http) {
    loops_[0]->http_listen_fd =
        OpenListener(options_.bind_address, options_.http_port,
                     kListenBacklog, /*reuseport=*/false, &http_port_,
                     &error_);
    if (loops_[0]->http_listen_fd < 0) return false;  // Stop() cleans up
  }

  for (auto& loop : loops_) {
    int wake[2];
    if (::pipe2(wake, O_NONBLOCK | O_CLOEXEC) != 0) {
      error_ = std::string("pipe2: ") + std::strerror(errno);
      return false;
    }
    loop->wake_read_fd = wake[0];
    loop->wake_write_fd = wake[1];
    loop->poller = std::make_unique<Poller>();
    if (!loop->poller->ok() || !loop->poller->Add(loop->listen_fd, false) ||
        !loop->poller->Add(loop->wake_read_fd, false) ||
        (loop->http_listen_fd >= 0 &&
         !loop->poller->Add(loop->http_listen_fd, false))) {
      error_ = "poller setup failed";
      return false;
    }
  }

  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()]() { LoopRun(*l); });
  }
  return true;
}

void MembershipServer::Stop() {
  if (!started_) return;
  stop_requested_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    if (loop->wake_write_fd >= 0) {
      const char byte = 1;
      // The loop may have exited already; a failed wake write is fine.
      (void)!::write(loop->wake_write_fd, &byte, 1);
    }
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  running_.store(false, std::memory_order_release);
  // No loop thread is alive, but offloaded batches may still be executing
  // on FilterService workers, and their completion callbacks touch the
  // per-loop queues and wakeup pipes.  Drain the pool so no callback can
  // outlive the fds closed below (the completions themselves are dropped —
  // their connections are going away with the server).
  // Runs on the caller of Stop(), after every loop thread has exited.
  if (service_ != nullptr) service_->Drain();  // pf-lint: allow(loop-wait)
  for (auto& loop : loops_) {
    {
      MutexLock lock(loop->completions_mutex);
      loop->completions.clear();
    }
    loop->inserts.clear();  // unacknowledged; their connections close below
    for (auto& [fd, conn] : loop->connections) {
      (void)conn;
      ::close(fd);
    }
    ReleaseConnectionSlots(loop->connections.size() +
                           loop->orphaned_batches.size());
    loop->connections.clear();
    loop->fd_by_conn_id.clear();
    loop->orphaned_batches.clear();
    for (int* fd : {&loop->listen_fd, &loop->http_listen_fd,
                    &loop->wake_read_fd, &loop->wake_write_fd}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    loop->poller.reset();
  }
}

ServerStats MembershipServer::stats() const {
  ServerStats s;
  for (const auto& t : loop_traffic_) {
    s.connections_accepted += t->accepted.load(std::memory_order_relaxed);
    s.frames_received += t->frames.load(std::memory_order_relaxed);
  }
  s.connections_dropped = connections_dropped_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.query_frames_merged =
      query_frames_merged_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.http_requests = http_requests_.load(std::memory_order_relaxed);
  s.batches_offloaded = batches_offloaded_.load(std::memory_order_relaxed);
  s.responses_reordered =
      responses_reordered_.load(std::memory_order_relaxed);
  s.backpressure_stalls =
      backpressure_stalls_.load(std::memory_order_relaxed);
  return s;
}

uint64_t MembershipServer::LoopRandom(Loop& loop) {
  uint64_t x = loop.rng_state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  loop.rng_state = x;
  return x;
}

void MembershipServer::FinishTrace(obs::ActiveTrace& trace) {
  obs::Trace& t = trace.t;
  t.end_ns = obs::NowNanos();
  if (options_.trace_slow_ns > 0 && t.end_ns >= t.start_ns &&
      t.end_ns - t.start_ns >= options_.trace_slow_ns) {
    t.flags |= obs::kTraceSlow;
  }
  // Tail-armed traces that finished fast and were never sampled carry no
  // retention flag: they existed only in case they turned out slow.
  if (t.flags != 0) trace_sink_.Push(t);
}

void MembershipServer::LoopRun(Loop& loop) {
  std::vector<PollEvent> events;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    // With inserts queued the loop only polls between their slices.
    const int timeout_ms = loop.inserts.empty() ? 500 : 0;
    if (!loop.poller->Wait(timeout_ms, &events)) break;
    // Busy iterations only: an empty wakeup (timeout) would flood the
    // iteration histogram with 500ms idle samples and bury the signal.
    const uint64_t iter_start_ns =
        events.empty() && loop.inserts.empty() ? 0 : obs::NowNanos();
    for (const PollEvent& event : events) {
      if (event.fd == loop.wake_read_fd) {
        char drain[64];
        while (::read(loop.wake_read_fd, drain, sizeof(drain)) > 0) {
        }
        DrainCompletions(loop);
        continue;
      }
      if (event.fd == loop.listen_fd) {
        AcceptAll(loop, loop.listen_fd, /*is_http=*/false);
        continue;
      }
      if (loop.http_listen_fd >= 0 && event.fd == loop.http_listen_fd) {
        AcceptAll(loop, loop.http_listen_fd, /*is_http=*/true);
        continue;
      }
      auto it = loop.connections.find(event.fd);
      if (it == loop.connections.end()) continue;  // closed earlier this round
      Connection& conn = it->second;
      bool alive = !event.error;
      if (alive && event.readable) {
        alive = conn.is_http ? ServeHttpConnection(loop, conn)
                             : ServeConnection(loop, conn);
      }
      if (alive && event.writable) alive = FlushOutbox(loop, conn);
      if (!alive) {
        // A clean shutdown (EOF after everything was served) is not a drop.
        CloseConnection(loop, event.fd,
                        /*dropped=*/event.error || conn.dropped);
      }
    }
    if (!loop.inserts.empty()) RunInsertSlice(loop);
    if (iter_start_ns != 0) {
      loop_iter_hist_->Record(obs::NowNanos() - iter_start_ns);
    }
  }
  // Shutdown grace: batches already offloaded, and inserts already queued,
  // get a bounded window to complete and reach their sockets, so Stop() does
  // not abandon responses the server has (or is about to have) computed.
  // Anything still in flight past the deadline is dropped by Stop() after
  // the pool drains.
  // steady_clock directly (not obs::NowNanos) — the deadline must work
  // with observability compiled out.
  const auto deadline =  // pf-lint: allow(steady-clock)
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    DrainCompletions(loop);
    if (!loop.inserts.empty()) RunInsertSlice(loop);
    const bool inflight =
        !loop.inserts.empty() ||
        std::any_of(loop.connections.begin(), loop.connections.end(),
                    [](const auto& entry) {
                      return !entry.second.inflight_seqs.empty();
                    });
    // Same shutdown deadline as above.  // pf-lint: allow(steady-clock)
    if (!inflight || std::chrono::steady_clock::now() >= deadline) break;
    if (loop.inserts.empty()) {
      // Shutdown grace only: the loop has stopped serving, and the nap
      // paces the bounded wait for in-flight completions.
      std::this_thread::sleep_for(  // pf-lint: allow(loop-wait)
          std::chrono::milliseconds(1));
    }
  }
}

void MembershipServer::AcceptAll(Loop& loop, int listen_fd, bool is_http) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        // Resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM): the pending
        // connection stays in the backlog, so a level-triggered poller
        // would re-report the listen fd instantly and spin the loop at
        // 100% CPU.  A short nap turns that into a bounded retry until an
        // fd frees up; it runs only while the process is out of fds.
        std::this_thread::sleep_for(  // pf-lint: allow(loop-wait)
            std::chrono::milliseconds(10));
      }
      return;  // wait for the next poller wakeup
    }
    if (open_connections_.load(std::memory_order_relaxed) >=
        kMaxConnections) {
      ::close(fd);
      connections_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    SetNoDelay(fd);
    if (!loop.poller->Add(fd, false)) {
      ::close(fd);
      continue;
    }
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn.is_http = is_http;
    loop.fd_by_conn_id.emplace(conn.id, fd);
    loop.connections.emplace(fd, std::move(conn));
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    loop_traffic_[loop.index]->accepted.fetch_add(1,
                                                  std::memory_order_relaxed);
    active_conns_gauge_->Add(1);
  }
}

bool MembershipServer::ServeConnection(Loop& loop, Connection& conn) {
  // Drain the socket (level-triggered pollers re-arm if the 64 KiB scratch
  // fills more than once per wakeup), but never buffer more undecoded input
  // than kMaxReadBuffer: a flooding client neither grows server memory
  // without bound nor monopolizes the loop past one capped pass.  Re-entry
  // from DrainCompletions after the peer already half-closed skips straight
  // to the decoder — there is nothing left to read.
  const uint32_t inflight_cap = std::max(1u, options_.max_inflight_batches);
  // Trace clock for this serve pass: the read span of any batch admitted
  // below starts here, its decode span where the reads end.
  ServePass pass;
  pass.start_ns = obs::NowNanos();
  bool peer_closed = false;
  if (!conn.peer_closed) {
    uint8_t scratch[65536];
    while (conn.decoder.buffered() < kMaxReadBuffer) {
      const ssize_t n = ::recv(conn.fd, scratch, sizeof(scratch), 0);
      if (n > 0) {
        bytes_in_.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
        conn.decoder.Feed(scratch, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn.dropped = true;  // hard socket error
      return false;
    }
  }
  pass.read_end_ns = obs::NowNanos();

  // Decode every complete frame buffered so far.  Runs of consecutive
  // QUERY_BATCH frames accumulate into the loop's pending batch and execute
  // as ONE merged batch, so a pipelining client's keys reach BatchRouter
  // together and the counting-sort shard grouping spans the whole pipeline
  // window.  A pass that ended early (protocol error) may have left keys
  // behind; they belong to a dropped connection.
  loop.pending_keys.clear();
  loop.pending_queries.clear();
  std::shared_ptr<obs::ActiveTrace> pending_trace;
  for (;;) {
    // Frames behind an insert in progress wait for its ack (read-your-writes);
    // RunInsertSlice re-serves the connection then.
    if (conn.insert_pending) break;
    if (conn.inflight_seqs.size() >= inflight_cap) {
      // Backpressure: the connection is at its offload cap.  Stop decoding
      // (complete frames stay buffered in the decoder, unread bytes stay in
      // the kernel buffer → TCP pushback) and drop read interest until
      // completions bring the count back under the cap, when
      // DrainCompletions re-serves the connection.
      if (!conn.read_parked) {
        conn.read_parked = true;
        backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    const DecodeStatus status = conn.decoder.Next(&loop.frame);
    if (status == DecodeStatus::kNeedMore) break;
    if (status != DecodeStatus::kFrame) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn.dropped = true;  // framing lost; the connection cannot be saved
      return false;
    }
    loop_traffic_[loop.index]->frames.fetch_add(1, std::memory_order_relaxed);
    HandleFrame(loop, conn, &pending_trace, pass);
  }
  FlushQueries(loop, conn, &pending_trace, pass);
  TrimScratch(&loop.frame.payload);
  TrimScratch(&loop.pending_keys);
  TrimScratch(&loop.pending_queries);
  TrimScratch(&loop.results);
  if (peer_closed) conn.peer_closed = true;
  // FlushOutbox owns the whole close-on-EOF rule: it returns false once a
  // half-closed connection drains its outbox AND its in-flight batches, and
  // until then keeps only the interest the connection needs.
  return FlushOutbox(loop, conn);
}

bool MembershipServer::ServeHttpConnection(Loop& loop, Connection& conn) {
  // Minimal HTTP/1.x service, just enough for scrapes: buffer until the
  // request head is complete, answer exactly one request, then close after
  // the response drains (the same peer_closed/FlushOutbox path wire
  // connections use).  Request bodies and keep-alive are not supported — a
  // Prometheus scrape or `curl` needs neither.
  constexpr size_t kMaxHttpHead = 16u << 10;
  uint8_t scratch[4096];
  bool peer_closed = false;
  while (conn.http_in.size() < kMaxHttpHead) {
    const ssize_t n = ::recv(conn.fd, scratch, sizeof(scratch), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      conn.http_in.insert(conn.http_in.end(), scratch, scratch + n);
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn.dropped = true;
    return false;
  }
  if (!conn.outbox.empty()) return FlushOutbox(loop, conn);  // answered
  const std::string_view head(reinterpret_cast<const char*>(
                                  conn.http_in.data()),
                              conn.http_in.size());
  const size_t head_end = head.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (conn.http_in.size() >= kMaxHttpHead || peer_closed) {
      conn.dropped = true;  // oversized or truncated request head
      return false;
    }
    return true;  // wait for the rest of the head
  }

  // Request line: METHOD SP target SP version.  The target's query string
  // (if any) does not change the routing.
  const std::string_view line = head.substr(0, head.find("\r\n"));
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    conn.dropped = true;
    return false;
  }
  const std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = target.find('?');
  if (query != std::string_view::npos) target = target.substr(0, query);

  http_requests_.fetch_add(1, std::memory_order_relaxed);
  std::string status = "200 OK";
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (method != "GET") {
    status = "405 Method Not Allowed";
    content_type = "text/plain; charset=utf-8";
    body = "method not allowed\n";
  } else if (target == "/metrics") {
    body = obs::RenderPrometheusText(registry_->Collect());
  } else if (target == "/traces") {
    content_type = "application/json; charset=utf-8";
    body = obs::RenderTracesJson(trace_sink_.Snapshot(), trace_sink_.stats());
  } else {
    status = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found; try /metrics or /traces\n";
  }
  std::string response = "HTTP/1.1 " + status +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  conn.outbox.insert(conn.outbox.end(), response.begin(), response.end());
  // One request per connection: drain the response, then close (FlushOutbox
  // returns false once a peer_closed connection's outbox empties).
  conn.peer_closed = true;
  return FlushOutbox(loop, conn);
}

void MembershipServer::HandleFrame(
    Loop& loop, Connection& conn,
    std::shared_ptr<obs::ActiveTrace>* pending_trace, const ServePass& pass) {
  const Frame& frame = loop.frame;
  if (frame.is_response() || !IsKnownOpcode(frame.opcode)) {
    FlushQueries(loop, conn, pending_trace, pass);
    EncodeErrorResponse(static_cast<Opcode>(frame.opcode), frame.request_id,
                        ErrorCode::kUnsupported,
                        frame.is_response() ? "unexpected response flag"
                                            : "unknown opcode",
                        &conn.outbox);
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const Opcode opcode = static_cast<Opcode>(frame.opcode);

  // Traced frames carry a trace-context prefix ahead of the normal payload
  // (protocol.h): strip it here so every parser below sees exactly the
  // payload it always saw.  Untraced frames take one predictable branch.
  const uint8_t* payload = frame.payload.data();
  size_t payload_len = frame.payload.size();
  TraceContext wire_context;
  bool client_traced = false;
  if ((frame.flags & kFlagTraced) != 0) {
    if (!DecodeTraceContext(payload, payload_len, &wire_context)) {
      FlushQueries(loop, conn, pending_trace, pass);
      EncodeErrorResponse(opcode, frame.request_id, ErrorCode::kBadRequest,
                          "malformed trace context", &conn.outbox);
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    payload += kTraceContextBytes;
    payload_len -= kTraceContextBytes;
    client_traced = true;
  }

  if (opcode == Opcode::kQueryBatch) {
    // Appends straight onto the merged batch: no per-frame allocation on
    // the hottest path.
    std::vector<uint64_t>& pending_keys = loop.pending_keys;
    const size_t before = pending_keys.size();
    if (!AppendKeyBatchPayload(payload, payload_len, &pending_keys)) {
      FlushQueries(loop, conn, pending_trace, pass);
      EncodeErrorResponse(opcode, frame.request_id, ErrorCode::kBadRequest,
                          "malformed key batch", &conn.outbox);
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!loop.pending_queries.empty()) {
      query_frames_merged_.fetch_add(1, std::memory_order_relaxed);
    }
    loop.pending_queries.emplace_back(
        frame.request_id, static_cast<uint32_t>(pending_keys.size() - before));
    // Trace admission, once per merged batch: client propagation (the
    // sampled bit in the wire context), head sampling (loop PRNG), or the
    // armed tail-capture path (records everything, retains only what turns
    // out slow).  A later traced frame merging into an already-admitted
    // batch upgrades it to the client's identity.
    if (obs::kEnabled) {
      const bool client_sampled = client_traced && wire_context.sampled;
      if (*pending_trace == nullptr) {
        const bool head_sampled =
            trace_threshold_ != 0 && LoopRandom(loop) <= trace_threshold_;
        if (client_sampled || head_sampled || options_.trace_slow_ns > 0) {
          auto trace = std::make_shared<obs::ActiveTrace>();
          obs::Trace& t = trace->t;
          t.trace_id = client_sampled && wire_context.trace_id != 0
                           ? wire_context.trace_id
                           : (LoopRandom(loop) | 1);
          t.request_id = frame.request_id;
          t.conn_id = conn.id;
          t.loop = loop.index;
          t.opcode = frame.opcode;
          t.start_ns = pass.start_ns;
          if (client_sampled || head_sampled) t.flags |= obs::kTraceSampled;
          *pending_trace = std::move(trace);
        }
      } else if (client_sampled && !(*pending_trace)->t.sampled()) {
        obs::Trace& t = (*pending_trace)->t;
        if (wire_context.trace_id != 0) t.trace_id = wire_context.trace_id;
        t.flags |= obs::kTraceSampled;
      }
    }
    return;
  }

  // Every other opcode still flushes the accumulated queries first so a
  // merged batch never straddles it; when the batch is offloaded the flush
  // only SUBMITS it, so this barrier response can reach the wire before the
  // query responses do — clients correlate by request id (see protocol.h).
  FlushQueries(loop, conn, pending_trace, pass);
  if (opcode == Opcode::kInsertBatch) {
    // Counts its own response frame: a queued insert answers later.
    HandleInsert(loop, conn, frame.request_id, payload, payload_len);
    return;
  }
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  switch (opcode) {
    case Opcode::kStats: {
      obs::ScopedLatency timer(stats_request_hist_);
      WireStats wire = CollectWireStats(*service_);
      wire.metrics = registry_->Collect();
      EncodeStatsResponse(frame.request_id, wire, &conn.outbox);
      return;
    }
    case Opcode::kTraces: {
      EncodeTracesResponse(frame.request_id, trace_sink_.Snapshot(),
                           &conn.outbox);
      return;
    }
    case Opcode::kSnapshot: {
      obs::ScopedLatency timer(snapshot_request_hist_);
      // Each shard serializes under its own lock, so every insert acked
      // before this request is in the image; no pool drain is needed, since
      // the workers only run queries.
      std::vector<uint8_t> snapshot;
      service_->filter().SerializeTo(&snapshot);
      // An image beyond the frame cap cannot be framed (the u32 payload_len
      // would lie); answer with a typed error instead of a frame the client
      // must treat as fatal kBadLength.
      if (snapshot.size() > kMaxPayload) {
        EncodeErrorResponse(opcode, frame.request_id, ErrorCode::kInternal,
                            "snapshot exceeds the frame payload cap",
                            &conn.outbox);
        return;
      }
      EncodeSnapshotResponse(frame.request_id, snapshot, &conn.outbox);
      return;
    }
    case Opcode::kInsertBatch:
    case Opcode::kQueryBatch:
      break;  // handled above
  }
}

void MembershipServer::HandleInsert(Loop& loop, Connection& conn,
                                    uint64_t request_id,
                                    const uint8_t* payload,
                                    size_t payload_len) {
  const uint64_t decode_ns = obs::NowNanos();
  std::vector<uint64_t> keys;
  if (!DecodeKeyBatchPayload(payload, payload_len, &keys)) {
    EncodeErrorResponse(Opcode::kInsertBatch, request_id,
                        ErrorCode::kBadRequest, "malformed key batch",
                        &conn.outbox);
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    insert_request_hist_->Record(obs::NowNanos() - decode_ns);
    return;
  }
  if (keys.size() <= kInsertSliceKeys) {
    AckInsert(conn, request_id,
              service_->InsertBatchSync(keys.data(), keys.size()), decode_ns);
    return;
  }
  InsertWork& work = loop.inserts.emplace_back();
  work.conn_id = conn.id;
  work.request_id = request_id;
  work.decode_ns = decode_ns;
  work.keys = std::move(keys);
  FilterService::StartInsert(work.keys.data(), work.keys.size(), &work.job);
  conn.insert_pending = true;
}

void MembershipServer::AckInsert(Connection& conn, uint64_t request_id,
                                 uint64_t failures, uint64_t decode_ns) {
  EncodeInsertResponse(request_id, failures, &conn.outbox);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  insert_request_hist_->Record(obs::NowNanos() - decode_ns);
}

void MembershipServer::RunInsertSlice(Loop& loop) {
  InsertWork& work = loop.inserts.front();
  const auto id_it = loop.fd_by_conn_id.find(work.conn_id);
  if (id_it == loop.fd_by_conn_id.end()) {
    // The connection closed mid-insert: nobody is left to acknowledge.
    loop.inserts.pop_front();
    return;
  }
  if (!service_->InsertSlice(&work.job, kInsertSliceKeys)) return;
  const int fd = id_it->second;
  Connection& conn = loop.connections.at(fd);
  AckInsert(conn, work.request_id, work.job.sharded.failures(),
            work.decode_ns);
  // Popped before the re-serve, which may queue this connection's next
  // insert.
  loop.inserts.pop_front();
  conn.insert_pending = false;
  // Reads before the ack is flushed, so the frames behind the insert are
  // decoded now, and a peer that closed mid-insert reads as EOF rather than
  // as the reset its close draws once the ack reaches it.
  if (!ServeConnection(loop, conn)) CloseConnection(loop, fd, conn.dropped);
}

void MembershipServer::FlushQueries(
    Loop& loop, Connection& conn,
    std::shared_ptr<obs::ActiveTrace>* pending_trace, const ServePass& pass) {
  std::vector<uint64_t>& keys = loop.pending_keys;
  std::vector<std::pair<uint64_t, uint32_t>>& pending = loop.pending_queries;
  if (pending.empty()) return;
  merge_frames_hist_->Record(pending.size());

  // The batch is sealed: close the read, decode (and merge) windows.  The
  // merge span only exists when frames actually coalesced; its detail
  // carries the frame count.
  std::shared_ptr<obs::ActiveTrace> batch_trace = std::move(*pending_trace);
  if (batch_trace != nullptr) {
    obs::Trace& t = batch_trace->t;
    t.key_count = static_cast<uint32_t>(keys.size());
    t.frames = static_cast<uint32_t>(pending.size());
    const uint64_t sealed_ns = obs::NowNanos();
    batch_trace->AddSpan(obs::TraceStage::kRead, pass.start_ns,
                         pass.read_end_ns);
    batch_trace->AddSpan(obs::TraceStage::kDecode, pass.read_end_ns,
                         sealed_ns);
    if (pending.size() > 1) {
      batch_trace->AddSpan(obs::TraceStage::kMerge, pass.read_end_ns,
                           sealed_ns, pending.size());
    }
  }

  // The one placement rule (see file header): small batches on a connection
  // with nothing in flight run inline, everything else goes to the pool.
  // "Nothing in flight" keeps a non-pipelining client's answers in request
  // order.
  if (service_->num_threads() > 0 &&
      (keys.size() >= kInlineQueryMaxKeys || !conn.inflight_seqs.empty())) {
    // Decode/filter decoupling: hand the merged batch to the FilterService
    // worker pool and keep the loop decoding.  The completion callback runs
    // on the worker thread — it only queues the result and tickles the
    // loop's wakeup pipe; all connection state stays loop-thread-only.
    batches_offloaded_.fetch_add(1, std::memory_order_relaxed);
    Completion comp;
    comp.conn_id = conn.id;
    comp.seq = conn.next_seq++;
    conn.inflight_seqs.push_back(comp.seq);
    comp.requests = std::move(pending);
    comp.submit_ns = obs::NowNanos();
    comp.trace = batch_trace;
    Loop* owner = &loop;  // stable: loops_ holds unique_ptrs for our life
    const int wake_fd = loop.wake_write_fd;
    service_->QueryBatchAsync(
        std::move(keys),
        [owner, wake_fd,
         comp = std::move(comp)](std::vector<uint8_t> results) mutable {
          comp.results = std::move(results);
          // Worker-side completion stamp: DrainCompletions measures the
          // wakeup dispatch delay and the completion-transit span from it.
          comp.done_ns = obs::NowNanos();
          {
            MutexLock lock(owner->completions_mutex);
            owner->completions.push_back(std::move(comp));
          }
          const char byte = 1;
          // Full pipe (bounded by the inflight caps) or racing shutdown:
          // either way the loop will drain completions on its next wake.
          (void)!::write(wake_fd, &byte, 1);
        },
        std::move(batch_trace));
    keys.clear();
    pending.clear();
    return;
  }

  // Inline: execute on the loop thread and emit one response per original
  // frame, in request order.  One latency sample per merged batch: the whole
  // decode-to-encode window every frame in the pipeline run shares.
  const uint64_t sync_start_ns = obs::NowNanos();
  std::vector<uint8_t>& results = loop.results;
  results.resize(keys.size());
  service_->QueryBatchSync(keys.data(), keys.size(), results.data(),
                           batch_trace.get());
  frames_sent_.fetch_add(pending.size(), std::memory_order_relaxed);
  const uint64_t write_start_ns = obs::NowNanos();
  size_t offset = 0;
  for (const auto& [request_id, count] : pending) {
    EncodeQueryResponse(request_id, results.data() + offset, count,
                        &conn.outbox);
    offset += count;
  }
  if (batch_trace != nullptr) {
    batch_trace->AddSpan(obs::TraceStage::kWrite, write_start_ns,
                         obs::NowNanos());
    FinishTrace(*batch_trace);
    query_request_hist_->RecordWithExemplar(obs::NowNanos() - sync_start_ns,
                                            batch_trace->t.trace_id);
  } else {
    query_request_hist_->Record(obs::NowNanos() - sync_start_ns);
  }
  keys.clear();
  pending.clear();
}

void MembershipServer::DrainCompletions(Loop& loop) {
  std::vector<Completion> completions;
  {
    MutexLock lock(loop.completions_mutex);
    completions.swap(loop.completions);
  }
  if (!completions.empty()) {
    completions_depth_hist_->Record(completions.size());
  }
  for (Completion& comp : completions) {
    const auto id_it = loop.fd_by_conn_id.find(comp.conn_id);
    if (id_it == loop.fd_by_conn_id.end()) {
      // Closed mid-flight: the answer goes nowhere, and the connection's
      // slot is freed with its last offloaded batch.
      const auto orphan = loop.orphaned_batches.find(comp.conn_id);
      if (orphan != loop.orphaned_batches.end() && --orphan->second == 0) {
        loop.orphaned_batches.erase(orphan);
        ReleaseConnectionSlots(1);
      }
      continue;
    }
    const int fd = id_it->second;
    const auto conn_it = loop.connections.find(fd);
    if (conn_it == loop.connections.end()) continue;
    Connection& conn = conn_it->second;

    // Completing anything but the oldest in-flight batch means this
    // response overtakes an earlier one on the wire — the reordering
    // clients reassemble by request id.
    if (!conn.inflight_seqs.empty() && conn.inflight_seqs.front() != comp.seq) {
      responses_reordered_.fetch_add(1, std::memory_order_relaxed);
    }
    const auto seq_it = std::find(conn.inflight_seqs.begin(),
                                  conn.inflight_seqs.end(), comp.seq);
    if (seq_it != conn.inflight_seqs.end()) conn.inflight_seqs.erase(seq_it);

    const uint64_t drained_ns = obs::NowNanos();
    // Wakeup dispatch delay: worker callback entry -> this loop pickup (the
    // completion-queue transit every offloaded response pays).
    if (comp.done_ns != 0 && drained_ns >= comp.done_ns) {
      wakeup_delay_hist_->Record(drained_ns - comp.done_ns);
    }
    if (comp.trace != nullptr) {
      comp.trace->AddSpan(obs::TraceStage::kCompletion, comp.done_ns,
                          drained_ns);
    }
    if (comp.submit_ns != 0) {
      const uint64_t request_ns = drained_ns - comp.submit_ns;
      if (comp.trace != nullptr) {
        query_request_hist_->RecordWithExemplar(request_ns,
                                                comp.trace->t.trace_id);
      } else {
        query_request_hist_->Record(request_ns);
      }
    }
    size_t offset = 0;
    for (const auto& [request_id, count] : comp.requests) {
      EncodeQueryResponse(request_id, comp.results.data() + offset, count,
                          &conn.outbox);
      offset += count;
    }
    frames_sent_.fetch_add(comp.requests.size(), std::memory_order_relaxed);
    if (comp.trace != nullptr) {
      comp.trace->AddSpan(obs::TraceStage::kWrite, drained_ns,
                          obs::NowNanos());
      FinishTrace(*comp.trace);
    }

    bool alive;
    if (conn.read_parked &&
        conn.inflight_seqs.size() <
            std::max(1u, options_.max_inflight_batches)) {
      // Unpark: frames may already sit decoded-but-unserved in the decoder
      // and bytes in the kernel buffer — a full re-serve picks both up and
      // restores read interest via FlushOutbox.
      conn.read_parked = false;
      alive = ServeConnection(loop, conn);
    } else {
      alive = FlushOutbox(loop, conn);
    }
    if (!alive) CloseConnection(loop, fd, conn.dropped);
  }
}

bool MembershipServer::FlushOutbox(Loop& loop, Connection& conn) {
  while (conn.outbox_sent < conn.outbox.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbox.data() + conn.outbox_sent,
               conn.outbox.size() - conn.outbox_sent, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
      conn.outbox_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    conn.dropped = true;
    return false;
  }
  if (conn.outbox_sent == conn.outbox.size()) {
    conn.outbox.clear();
    conn.outbox_sent = 0;
  } else if (conn.outbox_sent > (1u << 20) &&
             conn.outbox_sent * 2 > conn.outbox.size()) {
    // Same lazy compaction the decoder uses: keep the unsent tail.
    conn.outbox.erase(conn.outbox.begin(),
                      conn.outbox.begin() +
                          static_cast<ptrdiff_t>(conn.outbox_sent));
    conn.outbox_sent = 0;
  }
  if (conn.outbox.size() - conn.outbox_sent > kMaxWriteBuffer) {
    conn.dropped = true;  // peer stopped reading; shed the connection
    return false;
  }
  const bool want_write = conn.outbox_sent < conn.outbox.size();
  // A half-closed peer has nothing more to say: once the outbox drains AND
  // every offloaded batch has answered, the connection is done; until then
  // it keeps only the interest it needs (a level-triggered EOF with read
  // interest would spin the loop).
  if (conn.peer_closed && !HasPendingWork(conn)) return false;
  const bool want_read =
      !conn.peer_closed && !conn.read_parked && !conn.insert_pending;
  if (want_write != conn.want_write || want_read != conn.want_read) {
    conn.want_write = want_write;
    conn.want_read = want_read;
    loop.poller->Update(conn.fd, want_read, want_write);
  }
  return true;
}

void MembershipServer::CloseConnection(Loop& loop, int fd, bool dropped) {
  bool keeps_slot = false;
  const auto it = loop.connections.find(fd);
  if (it != loop.connections.end()) {
    const Connection& conn = it->second;
    // Batches still on the pool keep the slot (see kMaxConnections).
    if (!conn.inflight_seqs.empty()) {
      loop.orphaned_batches.emplace(conn.id, conn.inflight_seqs.size());
      keeps_slot = true;
    }
    loop.fd_by_conn_id.erase(conn.id);
    loop.connections.erase(it);
  }
  loop.poller->Remove(fd);
  ::close(fd);
  if (!keeps_slot) ReleaseConnectionSlots(1);
  if (dropped) connections_dropped_.fetch_add(1, std::memory_order_relaxed);
}

void MembershipServer::ReleaseConnectionSlots(size_t count) {
  open_connections_.fetch_sub(count, std::memory_order_relaxed);
  active_conns_gauge_->Add(-static_cast<int64_t>(count));
}

}  // namespace prefixfilter::net
