#include "src/net/membership_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "src/obs/metrics.h"

namespace prefixfilter::net {

namespace {

// Frame files one client writes at most under ClientOptions::record_frames_dir.
constexpr size_t kRecordFramesLimit = 256;

}  // namespace

MembershipClient::MembershipClient(ClientOptions options)
    : options_(std::move(options)) {
  if (options_.max_batch_keys == 0) options_.max_batch_keys = 1;
  if (options_.max_batch_keys > kMaxKeysPerFrame) {
    options_.max_batch_keys = kMaxKeysPerFrame;
  }
  if (options_.pipeline_depth == 0) options_.pipeline_depth = 1;
  // rate * 2^64 overflows the double->u64 cast at rate >= 1.0 (2^64 is not
  // representable), so "trace everything" clamps explicitly.
  if (options_.trace_sample_rate >= 1.0) {
    trace_threshold_ = ~uint64_t{0};
  } else if (options_.trace_sample_rate > 0.0) {
    trace_threshold_ = static_cast<uint64_t>(options_.trace_sample_rate *
                                             static_cast<double>(~uint64_t{0}));
  }
  // Clock-entropy seed, decorrelated across same-process clients by identity
  // (obs-disabled builds read a zero clock, hence the fallback constant).
  trace_rng_ = (obs::NowNanos() | 1) ^
               static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this));
  if (trace_rng_ == 0) trace_rng_ = 0x9e3779b97f4a7c15ULL;
}

MembershipClient::~MembershipClient() { Disconnect(); }

bool MembershipClient::Connect() {
  if (fd_ >= 0) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    Fail(std::string("socket: ") + std::strerror(errno));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    Fail("bad host address: " + options_.host);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    Fail(std::string("connect: ") + std::strerror(errno));
    return false;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  decoder_ = FrameDecoder();  // a new byte stream starts clean
  error_.clear();
  return true;
}

void MembershipClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool MembershipClient::EnsureConnected() {
  return fd_ >= 0 || Connect();
}

void MembershipClient::Fail(const std::string& message) { error_ = message; }

void MembershipClient::RecordFrameBytes(const char* tag, const uint8_t* data,
                                        size_t len) {
  if (options_.record_frames_dir.empty() ||
      frames_recorded_ >= kRecordFramesLimit) {
    return;
  }
  // One file per frame, named uniquely per client instance so concurrent
  // loadgen workers recording into one directory never collide.
  char name[64];
  std::snprintf(name, sizeof(name), "/%s-%p-%05zu.bin", tag,
                static_cast<const void*>(this), frames_recorded_);
  std::ofstream out(options_.record_frames_dir + name,
                    std::ios::binary | std::ios::trunc);
  if (!out) return;  // recording is best-effort; never fail traffic for it
  out.write(reinterpret_cast<const char*>(data), static_cast<long>(len));
  ++frames_recorded_;
}

bool MembershipClient::SendAll(const uint8_t* data, size_t len) {
  RecordFrameBytes("tx", data, len);
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Fail(std::string("send: ") + std::strerror(errno));
    Disconnect();
    return false;
  }
  return true;
}

bool MembershipClient::ReadFrame(Frame* frame) {
  uint8_t scratch[65536];
  for (;;) {
    const DecodeStatus status = decoder_.Next(frame);
    if (status == DecodeStatus::kFrame) {
      ++frames_received_;
      if (!options_.record_frames_dir.empty()) {
        // Re-encoding reproduces the exact wire bytes (the encoding is
        // deterministic: fixed header layout + CRC over the payload).
        std::vector<uint8_t> bytes;
        AppendFrame(static_cast<Opcode>(frame->opcode), frame->flags,
                    frame->request_id, frame->payload.data(),
                    frame->payload.size(), &bytes);
        RecordFrameBytes("rx", bytes.data(), bytes.size());
      }
      return true;
    }
    if (status != DecodeStatus::kNeedMore) {
      Fail(std::string("protocol error from server: ") +
           DecodeStatusName(status));
      Disconnect();
      return false;
    }
    const ssize_t n = ::recv(fd_, scratch, sizeof(scratch), 0);
    if (n > 0) {
      decoder_.Feed(scratch, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Fail(n == 0 ? "connection closed by server"
                : std::string("recv: ") + std::strerror(errno));
    Disconnect();
    return false;
  }
}

bool MembershipClient::CheckResponse(const Frame& frame, uint64_t request_id) {
  if (!frame.is_response() || frame.request_id != request_id) {
    // A stray or reordered response means this client and the server
    // disagree about the stream state; resynchronizing is not possible.
    Fail("response stream out of sync");
    Disconnect();
    return false;
  }
  if (frame.is_error()) {
    ++remote_errors_;
    ErrorCode code;
    std::string message;
    if (DecodeErrorPayload(frame.payload.data(), frame.payload.size(), &code,
                           &message)) {
      Fail("server error " + std::to_string(static_cast<uint32_t>(code)) +
           ": " + message);
    } else {
      Fail("server error (unparseable error payload)");
    }
    return false;
  }
  return true;
}

bool MembershipClient::Roundtrip(const std::vector<uint8_t>& request,
                                 uint64_t request_id, Frame* response) {
  const int attempts = options_.auto_reconnect ? 2 : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) ++reconnects_;
    if (!EnsureConnected()) continue;
    if (!SendAll(request.data(), request.size())) continue;
    ++frames_sent_;
    if (!ReadFrame(response)) continue;
    // Response-level failures (error frames, desync) are not transport
    // failures; retrying would re-execute against a healthy server.
    return CheckResponse(*response, request_id);
  }
  return false;
}

bool MembershipClient::InsertBatch(const uint64_t* keys, size_t count,
                                   uint64_t* failures) {
  // Batches beyond the frame cap split transparently into multiple frames
  // (a single oversized frame would be a protocol violation the server must
  // reject).
  *failures = 0;
  size_t sent = 0;
  do {
    const size_t n = std::min<size_t>(count - sent, kMaxKeysPerFrame);
    const uint64_t id = next_request_id_++;
    std::vector<uint8_t> request;
    EncodeKeyBatchRequest(Opcode::kInsertBatch, id, keys + sent, n, &request);
    Frame response;
    uint64_t frame_failures = 0;
    if (!Roundtrip(request, id, &response)) return false;
    if (response.opcode != static_cast<uint8_t>(Opcode::kInsertBatch) ||
        !DecodeInsertResponsePayload(response.payload.data(),
                                     response.payload.size(),
                                     &frame_failures)) {
      Fail("malformed INSERT response");
      Disconnect();
      return false;
    }
    *failures += frame_failures;
    sent += n;
  } while (sent < count);
  return true;
}

uint64_t MembershipClient::NextTraceRandom() {
  uint64_t x = trace_rng_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  trace_rng_ = x;
  return x;
}

void MembershipClient::EncodeQueryFrame(uint64_t request_id,
                                        const uint64_t* keys, size_t count,
                                        std::vector<uint8_t>* out) {
  if (trace_threshold_ != 0 && NextTraceRandom() <= trace_threshold_) {
    TraceContext context;
    context.trace_id = NextTraceRandom() | 1;  // 0 means "server assigns"
    context.sampled = true;
    EncodeTracedKeyBatchRequest(Opcode::kQueryBatch, request_id, context, keys,
                                count, out);
    ++frames_traced_;
  } else {
    EncodeKeyBatchRequest(Opcode::kQueryBatch, request_id, keys, count, out);
  }
}

bool MembershipClient::QueryBatch(const uint64_t* keys, size_t count,
                                  std::vector<uint8_t>* out) {
  // Over-cap batches ride the pipelined path, which already frames in
  // kMaxKeysPerFrame-or-smaller slices.
  if (count > kMaxKeysPerFrame) return QueryPipelined(keys, count, out);
  const uint64_t id = next_request_id_++;
  std::vector<uint8_t> request;
  EncodeQueryFrame(id, keys, count, &request);
  Frame response;
  if (!Roundtrip(request, id, &response)) return false;
  if (response.opcode != static_cast<uint8_t>(Opcode::kQueryBatch) ||
      !DecodeQueryResponsePayload(response.payload.data(),
                                  response.payload.size(), out) ||
      out->size() != count) {
    Fail("malformed QUERY response");
    Disconnect();
    return false;
  }
  return true;
}

bool MembershipClient::Contains(uint64_t key, bool* present) {
  std::vector<uint8_t> out;
  if (!QueryBatch(&key, 1, &out)) return false;
  *present = out[0] != 0;
  return true;
}

bool MembershipClient::QueryPipelined(const uint64_t* keys, size_t count,
                                      std::vector<uint8_t>* out) {
  const int attempts = options_.auto_reconnect ? 2 : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) ++reconnects_;
    if (!EnsureConnected()) continue;
    out->assign(count, 0);

    struct InFlight {
      size_t offset;  // where this frame's results land in `out`
      size_t count;
    };
    // Reassembly window keyed by request id: a multi-loop server offloading
    // batches to its worker pool may answer pipelined frames in any order
    // (protocol.h), so each response routes by its echoed id, not by send
    // position.  `order` keeps the send sequence purely for the
    // responses_reordered() counter.
    std::unordered_map<uint64_t, InFlight> window;
    std::deque<uint64_t> order;
    size_t sent = 0;       // keys encoded and sent
    size_t received = 0;   // keys answered
    std::vector<uint8_t> request;
    std::vector<uint8_t> results;
    bool transport_ok = true;

    while (received < count || (count == 0 && sent == 0)) {
      if (count == 0) break;
      // Top the window up to pipeline_depth before blocking on a response.
      while (sent < count && window.size() < options_.pipeline_depth) {
        const size_t n = std::min(options_.max_batch_keys, count - sent);
        const uint64_t id = next_request_id_++;
        request.clear();
        EncodeQueryFrame(id, keys + sent, n, &request);
        if (!SendAll(request.data(), request.size())) {
          transport_ok = false;
          break;
        }
        ++frames_sent_;
        window.emplace(id, InFlight{sent, n});
        order.push_back(id);
        sent += n;
      }
      if (!transport_ok) break;

      Frame response;
      if (!ReadFrame(&response)) {
        transport_ok = false;
        break;
      }
      const auto it = window.find(response.request_id);
      if (!response.is_response() || it == window.end()) {
        // An id we never sent (or already answered): this client and the
        // server disagree about the stream state; resynchronizing is not
        // possible.
        Fail("response stream out of sync");
        Disconnect();
        return false;
      }
      if (!order.empty() && order.front() != response.request_id) {
        ++responses_reordered_;
      }
      order.erase(std::find(order.begin(), order.end(), response.request_id));
      // The id matched above, so CheckResponse only screens the error flag.
      if (!CheckResponse(response, response.request_id)) return false;
      const InFlight expect = it->second;
      window.erase(it);
      if (response.opcode != static_cast<uint8_t>(Opcode::kQueryBatch) ||
          !DecodeQueryResponsePayload(response.payload.data(),
                                      response.payload.size(), &results) ||
          results.size() != expect.count) {
        Fail("malformed QUERY response");
        Disconnect();
        return false;
      }
      std::memcpy(out->data() + expect.offset, results.data(), results.size());
      received += expect.count;
    }
    if (transport_ok && received == count) return true;
    // Transport died mid-pipeline: queries are idempotent, so a fresh
    // connection simply replays the whole stream.
  }
  return false;
}

bool MembershipClient::Stats(WireStats* out) {
  const uint64_t id = next_request_id_++;
  std::vector<uint8_t> request;
  EncodeEmptyRequest(Opcode::kStats, id, &request);
  Frame response;
  if (!Roundtrip(request, id, &response)) return false;
  if (response.opcode != static_cast<uint8_t>(Opcode::kStats) ||
      !DecodeStatsPayload(response.payload.data(), response.payload.size(),
                          out)) {
    Fail("malformed STATS response");
    Disconnect();
    return false;
  }
  return true;
}

bool MembershipClient::Traces(std::vector<obs::Trace>* out) {
  out->clear();
  const uint64_t id = next_request_id_++;
  std::vector<uint8_t> request;
  EncodeEmptyRequest(Opcode::kTraces, id, &request);
  Frame response;
  if (!Roundtrip(request, id, &response)) return false;
  if (response.opcode != static_cast<uint8_t>(Opcode::kTraces) ||
      !DecodeTracesPayload(response.payload.data(), response.payload.size(),
                           out)) {
    Fail("malformed TRACES response");
    Disconnect();
    return false;
  }
  return true;
}

bool MembershipClient::Snapshot(std::vector<uint8_t>* out) {
  const uint64_t id = next_request_id_++;
  std::vector<uint8_t> request;
  EncodeEmptyRequest(Opcode::kSnapshot, id, &request);
  Frame response;
  if (!Roundtrip(request, id, &response)) return false;
  if (response.opcode != static_cast<uint8_t>(Opcode::kSnapshot)) {
    Fail("malformed SNAPSHOT response");
    Disconnect();
    return false;
  }
  *out = std::move(response.payload);
  return true;
}

}  // namespace prefixfilter::net
