// Loopback integration tests for the networked membership service:
// server <-> client over real sockets — inserts, batch queries, FPR sanity,
// STATS shard counters (the proof that socket traffic rides BatchRouter),
// pipelined-frame merging, protocol-error handling, reconnect, and
// snapshot-over-the-wire.
#include "src/net/membership_server.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/membership_client.h"
#include "src/util/random.h"

namespace prefixfilter::net {
namespace {

std::shared_ptr<FilterService> MakeService(
    uint64_t capacity, uint32_t shards = 8,
    obs::MetricsRegistry* registry = nullptr) {
  ShardedFilterOptions options;
  options.num_shards = shards;
  options.seed = 0x5e12;
  auto filter = ShardedFilter::Make(capacity, options);
  EXPECT_NE(filter, nullptr);
  FilterServiceOptions service_options;
  service_options.num_threads = 0;  // the event loop serves synchronously
  service_options.registry = registry;
  return std::make_shared<FilterService>(
      std::shared_ptr<ShardedFilter>(filter.release()), service_options);
}

struct Loopback {
  std::shared_ptr<FilterService> service;
  std::unique_ptr<MembershipServer> server;
  ClientOptions client_options;

  explicit Loopback(uint64_t capacity) {
    service = MakeService(capacity);
    server = std::make_unique<MembershipServer>(service);
    EXPECT_TRUE(server->Start()) << server->error();
    client_options.port = server->port();
  }
};

// The acceptance-criteria scenario: insert, batch query, FPR sanity, STATS.
TEST(MembershipServer, EndToEndOverEpoll) {
  const uint64_t n = 50000;
  Loopback loop(n);

  MembershipClient client(loop.client_options);
  ASSERT_TRUE(client.Connect()) << client.error();

  const auto keys = RandomKeys(n, 301);
  uint64_t failures = 0;
  for (size_t base = 0; base < keys.size(); base += 10000) {
    uint64_t batch_failures = 0;
    ASSERT_TRUE(client.InsertBatch(keys.data() + base, 10000,
                                   &batch_failures))
        << client.error();
    failures += batch_failures;
  }
  EXPECT_EQ(failures, 0u);

  // Mixed probe: even positions inserted, odd almost-surely negative.
  std::vector<uint64_t> probe = RandomKeys(20000, 302);
  for (size_t i = 0; i < probe.size(); i += 2) probe[i] = keys[(i * 13) % n];
  std::vector<uint8_t> answers;
  ASSERT_TRUE(client.QueryBatch(probe.data(), probe.size(), &answers))
      << client.error();
  ASSERT_EQ(answers.size(), probe.size());
  uint64_t negatives_hit = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(answers[i], 1) << "false negative over the wire at " << i;
    } else {
      negatives_hit += answers[i];
    }
  }
  // FPR sanity: the negative half trips at roughly the backend's rate.
  EXPECT_LT(negatives_hit, probe.size() / 2 / 50);

  // STATS: per-shard query counters account for every key this test sent —
  // the batches went through the shard/BatchRouter path, not a scalar
  // bypass; and the insert counters account for the loaded keys.
  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats)) << client.error();
  EXPECT_EQ(stats.filter_name, "SHARD8[PF[TC]]");
  ASSERT_EQ(stats.shards.size(), 8u);
  const WireShardStats totals = SumShards(stats.shards);
  EXPECT_EQ(totals.queries, probe.size());
  EXPECT_EQ(totals.inserts, n);
  EXPECT_EQ(totals.insert_failures, failures);
  uint64_t nonempty_shards = 0;
  for (const auto& shard : stats.shards) nonempty_shards += shard.queries > 0;
  // A 20k-key uniform batch leaves no shard idle.
  EXPECT_EQ(nonempty_shards, 8u);

  const ServerStats server_stats = loop.server->stats();
  EXPECT_EQ(server_stats.protocol_errors, 0u);
  // Every frame the client sent was received, and answered.
  EXPECT_EQ(server_stats.frames_received, client.frames_sent());
  EXPECT_EQ(server_stats.frames_sent, client.frames_sent());
  EXPECT_EQ(server_stats.connections_accepted, 1u);
}

// Blocking raw connection for tests that hand-craft byte streams.
struct RawConn {
  int fd = -1;
  FrameDecoder decoder;

  explicit RawConn(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void Send(const std::vector<uint8_t>& bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  // Blocks until one frame arrives; fails the test on EOF/protocol error.
  void ReadFrame(Frame* frame) {
    uint8_t buf[65536];
    for (;;) {
      const DecodeStatus status = decoder.Next(frame);
      if (status == DecodeStatus::kFrame) return;
      ASSERT_EQ(status, DecodeStatus::kNeedMore);
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      decoder.Feed(buf, static_cast<size_t>(n));
    }
  }
};

TEST(MembershipServer, PipelinedFramesMergeIntoRouterBatches) {
  const uint64_t n = 20000;
  Loopback loop(n);
  MembershipClient control(loop.client_options);
  const auto keys = RandomKeys(n, 71);
  uint64_t failures = 0;
  ASSERT_TRUE(control.InsertBatch(keys.data(), keys.size(), &failures));
  const uint64_t queries_before = loop.service->filter().TotalStats().queries;
  const uint64_t merged_before = loop.server->stats().query_frames_merged;

  // 16 small QUERY frames shipped in ONE send: the event loop buffers the
  // whole run before decoding and merges it into (almost always one)
  // QueryBatchSync call, so the keys cross BatchRouter together.
  constexpr size_t kFrames = 16, kKeysPerFrame = 256;
  std::vector<uint8_t> burst;
  for (size_t f = 0; f < kFrames; ++f) {
    EncodeKeyBatchRequest(Opcode::kQueryBatch, /*request_id=*/f,
                          keys.data() + f * kKeysPerFrame, kKeysPerFrame,
                          &burst);
  }
  RawConn conn(loop.server->port());
  conn.Send(burst);
  for (size_t f = 0; f < kFrames; ++f) {
    Frame response;
    conn.ReadFrame(&response);
    EXPECT_EQ(response.request_id, f);  // responses in request order
    std::vector<uint8_t> answers;
    ASSERT_TRUE(DecodeQueryResponsePayload(response.payload.data(),
                                           response.payload.size(),
                                           &answers));
    ASSERT_EQ(answers.size(), kKeysPerFrame);
    for (size_t i = 0; i < answers.size(); ++i) {
      EXPECT_EQ(answers[i], 1) << "false negative at frame " << f;
    }
  }

  EXPECT_EQ(loop.service->filter().TotalStats().queries - queries_before,
            kFrames * kKeysPerFrame);
  // Merging collapsed the 16 frames into far fewer service batches: each
  // batch is one frame plus the frames merged into it, so fewer than
  // kFrames / 2 batches means more than kFrames / 2 merged frames.
  EXPECT_GT(loop.server->stats().query_frames_merged - merged_before,
            kFrames / 2);
}

TEST(MembershipServer, GarbageBytesDropConnectionButServerSurvives) {
  Loopback loop(10000);

  // Raw socket speaking nonsense.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(loop.server->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Longer than a frame header, so the decoder sees enough to reject it.
  const char garbage[] = "GET / HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), 0), 0);
  // The server drops the connection; the peer observes EOF.
  char buf[16];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
  }
  EXPECT_EQ(n, 0);
  ::close(fd);

  for (int i = 0;
       i < 100 && loop.server->stats().connections_dropped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const ServerStats stats = loop.server->stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.connections_dropped, 1u);

  // A well-behaved client still gets service afterwards.
  MembershipClient client(loop.client_options);
  const uint64_t key = 42;
  uint64_t failures = 0;
  ASSERT_TRUE(client.InsertBatch(&key, 1, &failures)) << client.error();
  bool present = false;
  ASSERT_TRUE(client.Contains(key, &present)) << client.error();
  EXPECT_TRUE(present);
}

TEST(MembershipServer, MalformedPayloadGetsTypedErrorFrameAndConnectionLives) {
  Loopback loop(10000);

  // A frame whose checksum is valid but whose payload lies about its key
  // count: well-framed, semantically invalid -> kBadRequest error response,
  // connection stays up.
  std::vector<uint8_t> payload(4 + 8, 0);
  payload[0] = 200;  // claims 200 keys, carries 1
  std::vector<uint8_t> bad;
  AppendFrame(Opcode::kQueryBatch, 0, /*request_id=*/5, payload.data(),
              payload.size(), &bad);

  RawConn conn(loop.server->port());
  conn.Send(bad);
  Frame response;
  conn.ReadFrame(&response);
  EXPECT_TRUE(response.is_error());
  EXPECT_EQ(response.request_id, 5u);
  ErrorCode code;
  std::string message;
  ASSERT_TRUE(DecodeErrorPayload(response.payload.data(),
                                 response.payload.size(), &code, &message));
  EXPECT_EQ(code, ErrorCode::kBadRequest);

  // An unknown opcode draws kUnsupported, again without losing the
  // connection.
  std::vector<uint8_t> unknown;
  AppendFrame(static_cast<Opcode>(0x7F), 0, /*request_id=*/6, nullptr, 0,
              &unknown);
  conn.Send(unknown);
  conn.ReadFrame(&response);
  EXPECT_TRUE(response.is_error());
  EXPECT_EQ(response.request_id, 6u);
  ASSERT_TRUE(DecodeErrorPayload(response.payload.data(),
                                 response.payload.size(), &code, &message));
  EXPECT_EQ(code, ErrorCode::kUnsupported);

  // Same connection keeps working after both error responses.
  const uint64_t key = 7;
  std::vector<uint8_t> good;
  EncodeKeyBatchRequest(Opcode::kQueryBatch, 8, &key, 1, &good);
  conn.Send(good);
  conn.ReadFrame(&response);
  EXPECT_FALSE(response.is_error());
  EXPECT_EQ(response.request_id, 8u);
}

TEST(MembershipClient, ReconnectsAfterDisconnect) {
  Loopback loop(10000);
  MembershipClient client(loop.client_options);
  const uint64_t key = 99;
  uint64_t failures = 0;
  ASSERT_TRUE(client.InsertBatch(&key, 1, &failures));

  // Sever the connection under the client; the next RPC must redial.
  client.Disconnect();
  EXPECT_FALSE(client.connected());
  bool present = false;
  ASSERT_TRUE(client.Contains(key, &present)) << client.error();
  EXPECT_TRUE(present);
  EXPECT_TRUE(client.connected());
}

TEST(MembershipServer, SnapshotOverTheWireRestoresIdenticalService) {
  const uint64_t n = 30000;
  Loopback loop(n);
  MembershipClient client(loop.client_options);
  const auto keys = RandomKeys(n, 501);
  uint64_t failures = 0;
  ASSERT_TRUE(client.InsertBatch(keys.data(), keys.size(), &failures));

  std::vector<uint8_t> snapshot;
  ASSERT_TRUE(client.Snapshot(&snapshot)) << client.error();
  auto restored =
      ShardedFilter::Deserialize(snapshot.data(), snapshot.size());
  ASSERT_NE(restored, nullptr);

  const auto probe = RandomKeys(10000, 502);
  std::vector<uint8_t> over_wire;
  ASSERT_TRUE(client.QueryBatch(probe.data(), probe.size(), &over_wire));
  std::vector<uint8_t> local(probe.size());
  restored->ContainsBatch(probe.data(), probe.size(), local.data());
  EXPECT_EQ(over_wire, local);
}

// --- telemetry ---------------------------------------------------------------

// Blocking HTTP exchange against the server's metrics listener: sends the
// raw request text and reads until the server closes (Connection: close).
std::string HttpExchange(uint16_t port, const std::string& request) {
  RawConn conn(port);
  conn.Send(std::vector<uint8_t>(request.begin(), request.end()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(conn.fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  return response;
}

// Value of the exposition line that starts with `series` exactly (name plus
// rendered labels); -1 when the series is absent.
double SeriesValue(const std::string& body, const std::string& series) {
  const std::string want = series + " ";
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    if (body.compare(pos, want.size(), want) == 0) {
      return std::atof(body.c_str() + pos + want.size());
    }
    pos = eol + 1;
  }
  return -1.0;
}

TEST(MembershipServer, HttpMetricsExposeCoreSeriesAfterTraffic) {
  obs::MetricsRegistry registry;  // local registry: isolated from other tests
  auto service = MakeService(20000, /*shards=*/8, &registry);
  ServerOptions options;
  options.enable_http = true;
  options.registry = &registry;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();
  ASSERT_NE(server.http_port(), 0);

  // Drive real traffic first so the core series have samples: a bulk insert,
  // then repeated hot-set queries.
  MembershipClient client(ClientOptions{.port = server.port()});
  const auto keys = RandomKeys(20000, 701);
  uint64_t failures = 0;
  ASSERT_TRUE(client.InsertBatch(keys.data(), keys.size(), &failures));
  std::vector<uint64_t> hot(keys.begin(), keys.begin() + 64);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<uint8_t> answers;
    ASSERT_TRUE(client.QueryBatch(hot.data(), hot.size(), &answers));
  }

  const std::string response = HttpExchange(
      server.http_port(), "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  if (!obs::kEnabled) return;  // PF_OBS=OFF: endpoint answers, registry empty

  // Per-opcode request latency histograms recorded on the event loop.
  EXPECT_GT(
      SeriesValue(body, "pf_net_server_request_ns_count{op=\"insert\"}"), 0);
  EXPECT_GT(
      SeriesValue(body, "pf_net_server_request_ns_count{op=\"query\"}"), 0);
  // Service-stage series (threaded through the same registry).
  EXPECT_GT(SeriesValue(body, "pf_service_exec_ns_count{op=\"query\"}"), 0);
  // Collector-backed event-loop counters and the connection gauge.
  EXPECT_GT(SeriesValue(body, "pf_net_server_bytes_in"), 0);
  EXPECT_EQ(SeriesValue(body, "pf_service_batch_keys_sum{op=\"insert\"}"),
            20000);
  EXPECT_GE(SeriesValue(body, "pf_net_server_connections_active"), 1);
  // Histogram exposition is well-formed: the +Inf bucket equals _count.
  EXPECT_EQ(SeriesValue(
                body,
                "pf_net_server_request_ns_bucket{op=\"query\",le=\"+Inf\"}"),
            SeriesValue(body, "pf_net_server_request_ns_count{op=\"query\"}"));
}

TEST(MembershipServer, StatsCarriesCountersShardsAndMetrics) {
  obs::MetricsRegistry registry;
  auto service = MakeService(10000, /*shards=*/8, &registry);
  ServerOptions options;
  options.registry = &registry;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();

  MembershipClient client(ClientOptions{.port = server.port()});
  const auto keys = RandomKeys(10000, 702);
  uint64_t failures = 0;
  ASSERT_TRUE(client.InsertBatch(keys.data(), keys.size(), &failures));
  std::vector<uint8_t> answers;
  ASSERT_TRUE(client.QueryBatch(keys.data(), 512, &answers));

  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats)) << client.error();
  EXPECT_EQ(stats.filter_name, "SHARD8[PF[TC]]");
  ASSERT_EQ(stats.shards.size(), 8u);
  const WireShardStats totals = SumShards(stats.shards);
  EXPECT_EQ(totals.inserts, keys.size());
  EXPECT_EQ(totals.queries, 512u);
  uint64_t batches = 0;
  EXPECT_EQ(ServiceBatches(stats, "query", &batches), obs::kEnabled);
  if (!obs::kEnabled) {
    // PF_OBS=OFF: the same schema, counters only, the metrics blob empty.
    EXPECT_TRUE(stats.metrics.empty());
    return;
  }
  ASSERT_FALSE(stats.metrics.empty());
  const obs::MetricSample* qhist =
      obs::FindSample(stats.metrics, "net.server.request.ns", "op", "query");
  ASSERT_NE(qhist, nullptr);
  EXPECT_GT(qhist->hist.count, 0u);
  EXPECT_GT(qhist->hist.Percentile(0.99), 0.0);
  EXPECT_EQ(batches, 1u);  // the one 512-key QUERY frame
  const obs::MetricSample* inserted =
      obs::FindSample(stats.metrics, "service.batch.keys", "op", "insert");
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(inserted->hist.sum, keys.size());
  const obs::MetricSample* shard_failures =
      obs::FindSample(stats.metrics, "shard.insert.failures", "shard", "0");
  ASSERT_NE(shard_failures, nullptr);
  EXPECT_EQ(shard_failures->value, 0);
}

// True when the exposition declares or samples `name` (its TYPE line, or a
// sample line of the bare name or of the name with labels).
bool HasSeries(const std::string& body, const std::string& name) {
  const std::string lines = "\n" + body;
  return lines.find("\n# TYPE " + name + " ") != std::string::npos ||
         lines.find("\n" + name + " ") != std::string::npos ||
         lines.find("\n" + name + "{") != std::string::npos;
}

// Each quantity has one home: keys and insert failures in the shard
// counters, batch counts and key sums in the service.batch.keys histograms,
// frames and accepts in the per-loop counters.  No second copy is exported,
// and the homes agree with what the client actually sent and was told.
TEST(MembershipServer, EachQuantityIsExportedOnce) {
  obs::MetricsRegistry registry;
  // Prefix-filter shards overfilled 2x: their spares overflow, so inserts
  // fail deterministically and the failure accounting is exercised with
  // nonzero values.
  ShardedFilterOptions filter_options;
  filter_options.num_shards = 4;
  auto filter = ShardedFilter::Make(4096, filter_options);
  ASSERT_NE(filter, nullptr);
  FilterServiceOptions service_options;
  service_options.num_threads = 0;
  service_options.registry = &registry;
  auto service = std::make_shared<FilterService>(
      std::shared_ptr<ShardedFilter>(filter.release()), service_options);
  ServerOptions options;
  options.enable_http = true;
  options.registry = &registry;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();

  MembershipClient client(ClientOptions{.port = server.port()});
  const auto keys = RandomKeys(8192, 703);
  uint64_t reported_failures = 0;
  for (size_t base = 0; base < keys.size(); base += 2048) {
    uint64_t failures = 0;
    ASSERT_TRUE(client.InsertBatch(keys.data() + base, 2048, &failures))
        << client.error();
    reported_failures += failures;
  }
  EXPECT_GT(reported_failures, 0u) << "overfill did not exercise failures";
  uint64_t keys_sent = 0;
  std::vector<uint8_t> answers;
  for (const size_t count : {1u, 16u, 300u, 4096u}) {
    ASSERT_TRUE(client.QueryBatch(keys.data(), count, &answers))
        << client.error();
    keys_sent += count;
  }

  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats)) << client.error();
  const WireShardStats totals = SumShards(stats.shards);
  EXPECT_EQ(totals.inserts, keys.size());
  EXPECT_EQ(totals.insert_failures, reported_failures);
  EXPECT_EQ(totals.queries, keys_sent);
  const ServerStats server_stats = server.stats();
  EXPECT_EQ(server_stats.frames_received, client.frames_sent());

  const std::string response = HttpExchange(
      server.http_port(), "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  if (!obs::kEnabled) return;  // PF_OBS=OFF: the registry is empty

  // Series that would count one of these quantities a second time: none is
  // in the STATS blob or, in its Prometheus spelling, at /metrics.
  for (std::string deleted :
       {"service.batches", "service.keys", "service.insert.failures",
        "net.server.keys.inserted", "net.server.keys.queried",
        "net.server.loop.keys"}) {
    EXPECT_EQ(obs::FindSample(stats.metrics, deleted), nullptr) << deleted;
    std::replace(deleted.begin(), deleted.end(), '.', '_');
    EXPECT_FALSE(HasSeries(body, "pf_" + deleted)) << deleted;
  }
  double probes = 0, shard_failures = 0;
  for (size_t s = 0; s < stats.shards.size(); ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    probes += SeriesValue(body, "pf_shard_probes" + label);
    shard_failures += SeriesValue(body, "pf_shard_insert_failures" + label);
  }
  EXPECT_EQ(probes, static_cast<double>(keys_sent));
  EXPECT_EQ(SeriesValue(body, "pf_service_batch_keys_sum{op=\"query\"}"),
            static_cast<double>(keys_sent));
  EXPECT_EQ(SeriesValue(body, "pf_service_batch_keys_count{op=\"query\"}"),
            4);
  EXPECT_EQ(shard_failures, static_cast<double>(reported_failures));
  // Frames and accepts: the server totals are the per-loop sums.
  EXPECT_EQ(SeriesValue(body, "pf_net_server_frames_in"),
            static_cast<double>(server_stats.frames_received));
  EXPECT_EQ(SeriesValue(body, "pf_net_server_loop_frames{loop=\"0\"}"),
            static_cast<double>(server_stats.frames_received));
  EXPECT_EQ(SeriesValue(body, "pf_net_server_loop_connections{loop=\"0\"}"),
            SeriesValue(body, "pf_net_server_connections_accepted"));
}

TEST(MembershipServer, HttpUnknownPathAndMethodDrawErrorStatuses) {
  auto service = MakeService(1000);
  ServerOptions options;
  options.enable_http = true;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();

  const std::string miss =
      HttpExchange(server.http_port(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(miss.find("404"), std::string::npos) << miss;
  const std::string post =
      HttpExchange(server.http_port(), "POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos) << post;
}

// Open fd count for this process (includes ".", ".." and the scan's own fd —
// constant offsets, so equality across calls means no leak).
int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(MembershipServer, StartReportsBindFailure) {
  auto service = MakeService(1000);
  // Grab a port, then ask a second server for the same one: with one loop
  // (plain listener) and with several (one SO_REUSEPORT listener per loop,
  // which the first server's plain listener refuses).
  MembershipServer first(service);
  ASSERT_TRUE(first.Start());
  for (const uint32_t loops : {1u, 3u}) {
    SCOPED_TRACE(loops);
    const int fds_before = CountOpenFds();
    ServerOptions clash;
    clash.port = first.port();
    clash.num_loops = loops;
    MembershipServer second(service, clash);
    EXPECT_FALSE(second.Start());
    EXPECT_FALSE(second.error().empty());
    second.Stop();
    EXPECT_EQ(CountOpenFds(), fds_before);
  }
}

TEST(MembershipServer, StopIsIdempotentAndRestartableObjectsAreSeparate) {
  auto service = MakeService(1000);
  auto server = std::make_unique<MembershipServer>(service);
  ASSERT_TRUE(server->Start());
  const uint16_t port = server->port();
  server->Stop();
  server->Stop();  // idempotent
  EXPECT_FALSE(server->running());

  // A fresh server object can take over the port immediately (SO_REUSEADDR).
  ServerOptions options;
  options.port = port;
  MembershipServer next(service, options);
  ASSERT_TRUE(next.Start()) << next.error();
  MembershipClient client(ClientOptions{.port = port});
  bool present = false;
  const uint64_t key = 1;
  EXPECT_TRUE(client.Contains(key, &present)) << client.error();
}

// --- multi-loop scale-out and query offload ---------------------------------

// Like MakeService but with a worker pool, so the server's offload path (and
// the out-of-order completion machinery behind it) actually engages.
std::shared_ptr<FilterService> MakeThreadedService(
    uint64_t capacity, uint32_t num_threads,
    obs::MetricsRegistry* registry = nullptr) {
  ShardedFilterOptions options;
  options.num_shards = 8;
  options.seed = 0x5e12;
  auto filter = ShardedFilter::Make(capacity, options);
  EXPECT_NE(filter, nullptr);
  FilterServiceOptions service_options;
  service_options.num_threads = num_threads;
  service_options.registry = registry;
  return std::make_shared<FilterService>(
      std::shared_ptr<ShardedFilter>(filter.release()), service_options);
}

TEST(MembershipServer, MultiLoopReuseportSpreadsConnectionsAcrossLoops) {
  obs::MetricsRegistry registry;
  auto service = MakeService(20000, /*shards=*/8, &registry);
  ServerOptions options;
  options.num_loops = 4;
  options.registry = &registry;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();
  EXPECT_EQ(server.num_loops(), 4u);

  // Many short-lived clients: the kernel hashes each new 4-tuple to a
  // listener, so with 24 connections over 4 loops the chance every one lands
  // on a single loop is ~4 * (1/4)^24 — never.  Every client runs the full
  // insert+query round trip, proving each loop serves correctly.
  const auto keys = RandomKeys(4096, 921);
  constexpr int kClients = 24;
  for (int c = 0; c < kClients; ++c) {
    MembershipClient client(ClientOptions{.port = server.port()});
    uint64_t failures = 0;
    ASSERT_TRUE(client.InsertBatch(keys.data() + c * 128, 128, &failures))
        << client.error();
    std::vector<uint8_t> answers;
    ASSERT_TRUE(client.QueryBatch(keys.data() + c * 128, 128, &answers))
        << client.error();
    for (uint8_t a : answers) EXPECT_EQ(a, 1);
  }
  EXPECT_EQ(server.stats().connections_accepted, kClients);

  if (obs::kEnabled) {
    const auto samples = registry.Collect();
    uint64_t total = 0;
    int busy_loops = 0;
    for (int i = 0; i < 4; ++i) {
      const obs::MetricSample* s = obs::FindSample(
          samples, "net.server.loop.connections", "loop", std::to_string(i));
      ASSERT_NE(s, nullptr) << "missing loop=" << i << " series";
      total += static_cast<uint64_t>(s->value);
      busy_loops += s->value > 0;
    }
    EXPECT_EQ(total, kClients);  // per-loop counters account for every accept
    EXPECT_GE(busy_loops, 2) << "kernel sent all connections to one loop";
  }
}

// The smallest merged batch the server hands to its worker pool when the
// connection has nothing in flight; anything smaller is served inline.
constexpr size_t kOffloadKeys = MembershipServer::kInlineQueryMaxKeys;

// A distinctive key the fault hook keys on; never inserted, only queried.
constexpr uint64_t kMarkerKey = 0xDEADBEEF12345678ull;

bool BatchHasMarker(const uint64_t* keys, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (keys[i] == kMarkerKey) return true;
  }
  return false;
}

TEST(MembershipServer, OffloadedBatchesCompleteOutOfOrderWithIdsIntact) {
  auto service = MakeThreadedService(20000, /*num_threads=*/2);
  MembershipServer server(service, ServerOptions{});
  ASSERT_TRUE(server.Start()) << server.error();

  MembershipClient loader(ClientOptions{.port = server.port()});
  const auto keys = RandomKeys(4096, 931);
  uint64_t failures = 0;
  ASSERT_TRUE(loader.InsertBatch(keys.data(), keys.size(), &failures));

  // Delay exactly the batch carrying the marker key: frame A (marker) stalls
  // on one worker while frame B, sent later on the same connection, completes
  // on the other — a deterministic out-of-order completion.
  service->SetQueryFaultHookForTesting([](const uint64_t* batch, size_t n) {
    if (BatchHasMarker(batch, n)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  });

  RawConn conn(server.port());
  // Frame A is big enough to offload.  Frame B is small, but A is still in
  // flight on the same connection, so B must go to the pool too rather than
  // be answered inline (batches_offloaded counts both below).
  std::vector<uint64_t> slow(keys.begin(), keys.begin() + kOffloadKeys);
  slow[0] = kMarkerKey;
  std::vector<uint8_t> frame_a;
  EncodeKeyBatchRequest(Opcode::kQueryBatch, /*request_id=*/1, slow.data(),
                        slow.size(), &frame_a);
  conn.Send(frame_a);
  // Separate decode passes, so the frames become two offloaded batches
  // instead of one merged batch.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<uint8_t> frame_b;
  EncodeKeyBatchRequest(Opcode::kQueryBatch, /*request_id=*/2, keys.data() + 3,
                        2, &frame_b);
  conn.Send(frame_b);

  Frame first, second;
  conn.ReadFrame(&first);
  conn.ReadFrame(&second);
  EXPECT_EQ(first.request_id, 2u) << "fast batch should finish first";
  EXPECT_EQ(second.request_id, 1u);
  std::vector<uint8_t> fast_answers, slow_answers;
  ASSERT_TRUE(DecodeQueryResponsePayload(first.payload.data(),
                                         first.payload.size(), &fast_answers));
  ASSERT_TRUE(DecodeQueryResponsePayload(second.payload.data(),
                                         second.payload.size(),
                                         &slow_answers));
  ASSERT_EQ(fast_answers.size(), 2u);
  EXPECT_EQ(fast_answers[0], 1);  // keys[3], inserted
  EXPECT_EQ(fast_answers[1], 1);  // keys[4], inserted
  ASSERT_EQ(slow_answers.size(), kOffloadKeys);
  EXPECT_EQ(slow_answers[1], 1);  // keys[1], inserted
  EXPECT_EQ(slow_answers[2], 1);  // keys[2], inserted

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.batches_offloaded, 2u);
  EXPECT_GE(stats.responses_reordered, 1u);
  service->SetQueryFaultHookForTesting(nullptr);
}

TEST(MembershipServer, SmallBatchesServeInlineLargeBatchesOffload) {
  auto service = MakeThreadedService(20000, /*num_threads=*/2);
  MembershipServer server(service, ServerOptions{});
  ASSERT_TRUE(server.Start()) << server.error();

  MembershipClient client(ClientOptions{.port = server.port()});
  const auto keys = RandomKeys(4096, 935);
  uint64_t failures = 0;
  ASSERT_TRUE(client.InsertBatch(keys.data(), keys.size(), &failures));
  std::vector<uint8_t> answers;

  // One key short of the threshold: probed on the loop, no pool handoff.
  const uint64_t offloaded_before = server.stats().batches_offloaded;
  ASSERT_TRUE(client.QueryBatch(keys.data(), kOffloadKeys - 1, &answers))
      << client.error();
  ASSERT_EQ(answers.size(), kOffloadKeys - 1);
  for (uint8_t a : answers) EXPECT_EQ(a, 1);
  EXPECT_EQ(server.stats().batches_offloaded, offloaded_before);

  // At the threshold: handed to the pool.
  ASSERT_TRUE(client.QueryBatch(keys.data(), kOffloadKeys, &answers))
      << client.error();
  ASSERT_EQ(answers.size(), kOffloadKeys);
  for (uint8_t a : answers) EXPECT_EQ(a, 1);
  EXPECT_EQ(server.stats().batches_offloaded, offloaded_before + 1);

  // A run of synchronous 16-key calls: every one is served inline, and each
  // answer carries the id of the request it answers, in request order.
  RawConn conn(server.port());
  constexpr uint64_t kCalls = 32;
  for (uint64_t id = 1; id <= kCalls; ++id) {
    std::vector<uint8_t> frame;
    EncodeKeyBatchRequest(Opcode::kQueryBatch, id, keys.data() + id * 16, 16,
                          &frame);
    conn.Send(frame);
    Frame response;
    conn.ReadFrame(&response);
    EXPECT_EQ(response.request_id, id);
    ASSERT_TRUE(DecodeQueryResponsePayload(response.payload.data(),
                                           response.payload.size(), &answers));
    ASSERT_EQ(answers.size(), 16u);
    for (uint8_t a : answers) EXPECT_EQ(a, 1);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches_offloaded, offloaded_before + 1);
  EXPECT_EQ(stats.responses_reordered, 0u);
}

TEST(MembershipServer, InflightCapParksReadsAndEveryResponseStillArrives) {
  auto service = MakeThreadedService(20000, /*num_threads=*/1);
  ServerOptions options;
  options.max_inflight_batches = 1;  // park after a single offloaded batch
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();

  MembershipClient loader(ClientOptions{.port = server.port()});
  const auto keys = RandomKeys(4096, 941);
  uint64_t failures = 0;
  ASSERT_TRUE(loader.InsertBatch(keys.data(), keys.size(), &failures));

  // The marker batch holds the single worker for 200ms, so frames sent in
  // the meantime find the connection at its in-flight cap.
  service->SetQueryFaultHookForTesting([](const uint64_t* batch, size_t n) {
    if (BatchHasMarker(batch, n)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });

  RawConn conn(server.port());
  // Big enough to offload rather than run inline on the loop.
  std::vector<uint64_t> slow(keys.begin(), keys.begin() + kOffloadKeys);
  slow[0] = kMarkerKey;
  std::vector<uint8_t> frame;
  EncodeKeyBatchRequest(Opcode::kQueryBatch, /*request_id=*/1, slow.data(),
                        slow.size(), &frame);
  conn.Send(frame);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Frame 2 reaches the decode loop while inflight == cap: the loop must
  // count a stall and park read interest instead of offloading it.
  frame.clear();
  EncodeKeyBatchRequest(Opcode::kQueryBatch, /*request_id=*/2, keys.data(), 64,
                        &frame);
  conn.Send(frame);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Frame 3 lands while the connection is parked and waits in socket buffers.
  frame.clear();
  EncodeKeyBatchRequest(Opcode::kQueryBatch, /*request_id=*/3, keys.data(), 64,
                        &frame);
  conn.Send(frame);

  // Nothing is lost: all three answers arrive once the worker drains, and
  // ids 2/3 stay in order (single worker, FIFO queue, park preserved bytes).
  Frame r1, r2, r3;
  conn.ReadFrame(&r1);
  conn.ReadFrame(&r2);
  conn.ReadFrame(&r3);
  EXPECT_EQ(r1.request_id, 1u);
  EXPECT_EQ(r2.request_id, 2u);
  EXPECT_EQ(r3.request_id, 3u);
  std::vector<uint8_t> answers;
  ASSERT_TRUE(DecodeQueryResponsePayload(r3.payload.data(), r3.payload.size(),
                                         &answers));
  ASSERT_EQ(answers.size(), 64u);
  for (uint8_t a : answers) EXPECT_EQ(a, 1);

  EXPECT_GE(server.stats().backpressure_stalls, 1u);
  service->SetQueryFaultHookForTesting(nullptr);
}

TEST(MembershipClient, ReassemblesDeliberatelyReorderedPipelinedReplies) {
  // A hand-rolled server that reads exactly two QUERY frames and answers
  // them in REVERSE order — the worst case the protocol's ordering contract
  // permits, produced deterministically (no worker-pool timing involved).
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  std::thread fake_server([listen_fd]() {
    const int cfd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(cfd, 0);
    FrameDecoder decoder;
    std::vector<Frame> frames;
    uint8_t buf[65536];
    while (frames.size() < 2) {
      Frame f;
      const DecodeStatus status = decoder.Next(&f);
      if (status == DecodeStatus::kFrame) {
        frames.push_back(std::move(f));
        continue;
      }
      ASSERT_EQ(status, DecodeStatus::kNeedMore);
      const ssize_t n = ::recv(cfd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      decoder.Feed(buf, static_cast<size_t>(n));
    }
    std::vector<uint8_t> out;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      std::vector<uint64_t> batch;
      ASSERT_TRUE(DecodeKeyBatchPayload(it->payload.data(),
                                        it->payload.size(), &batch));
      std::vector<uint8_t> results(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        results[i] = static_cast<uint8_t>(batch[i] % 2);  // recognizable
      }
      EncodeQueryResponse(it->request_id, results.data(), results.size(),
                          &out);
    }
    ASSERT_EQ(::send(cfd, out.data(), out.size(), 0),
              static_cast<ssize_t>(out.size()));
    ::close(cfd);
  });

  ClientOptions client_options;
  client_options.port = port;
  client_options.max_batch_keys = 64;
  client_options.pipeline_depth = 2;  // both frames in flight at once
  client_options.auto_reconnect = false;
  MembershipClient client(client_options);
  std::vector<uint64_t> keys(128);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  std::vector<uint8_t> answers;
  ASSERT_TRUE(client.QueryPipelined(keys.data(), keys.size(), &answers))
      << client.error();
  fake_server.join();
  ::close(listen_fd);

  // Answers land at the offsets of their REQUESTS, not of their arrival.
  ASSERT_EQ(answers.size(), keys.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i], static_cast<uint8_t>(i % 2)) << "misplaced at " << i;
  }
  EXPECT_EQ(client.responses_reordered(), 1u);
}

TEST(MembershipServer, StopDrainsInflightOffloadedWorkAndLeaksNoFds) {
  const int fds_before = CountOpenFds();
  ASSERT_GT(fds_before, 0);
  {
    auto service = MakeThreadedService(20000, /*num_threads=*/2);
    ServerOptions options;
    options.num_loops = 2;  // listeners, wake pipes, and pollers per loop
    MembershipServer server(service, options);
    ASSERT_TRUE(server.Start()) << server.error();

    MembershipClient loader(ClientOptions{.port = server.port()});
    const auto keys = RandomKeys(1000, 951);
    uint64_t failures = 0;
    ASSERT_TRUE(loader.InsertBatch(keys.data(), keys.size(), &failures));

    // Make every query batch slow enough that Stop() races it in flight.
    service->SetQueryFaultHookForTesting([](const uint64_t*, size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
    RawConn conn(server.port());
    std::vector<uint8_t> frame;
    EncodeKeyBatchRequest(Opcode::kQueryBatch, /*request_id=*/9, keys.data(),
                          kOffloadKeys, &frame);
    conn.Send(frame);
    // Let the batch reach a worker (now sleeping in the hook), then shut
    // down with the completion still outstanding.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.Stop();
    EXPECT_FALSE(server.running());
    service->SetQueryFaultHookForTesting(nullptr);
    // The batch went to the pool, and Stop() drained it: the batch ran to
    // completion.
    EXPECT_EQ(server.stats().batches_offloaded, 1u);
    EXPECT_EQ(service->filter().TotalStats().queries, kOffloadKeys);
  }
  // Server loops, listeners, wake pipes, pollers, and both clients are gone.
  EXPECT_EQ(CountOpenFds(), fds_before);
}

// A SNAPSHOT does not wait for the worker pool: with a 4096-key query from
// connection A held in the only worker, a SNAPSHOT from connection B on the
// same loop is answered while A's batch is still held, and the image holds
// every key acked before it.  A watchdog releases the worker after 10 s, so
// a snapshot that drains the pool fails the test instead of hanging it.
TEST(MembershipServer, SnapshotIsAnsweredWhileAWorkerHoldsAQuery) {
  // Declared before the service so they outlive its worker.
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::atomic<bool> watchdog_fired{false};
  auto service = MakeThreadedService(20000, /*num_threads=*/1);
  MembershipServer server(service, ServerOptions{});
  ASSERT_TRUE(server.Start()) << server.error();
  ASSERT_EQ(server.num_loops(), 1u);

  MembershipClient client(ClientOptions{.port = server.port()});
  const auto keys = RandomKeys(8192, 961);
  uint64_t failures = 0;
  ASSERT_TRUE(client.InsertBatch(keys.data(), 4096, &failures));
  ASSERT_EQ(failures, 0u);

  service->SetQueryFaultHookForTesting([&](const uint64_t* batch, size_t n) {
    if (!BatchHasMarker(batch, n)) return;
    held = true;
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread watchdog([&]() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!release.load()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        watchdog_fired = true;
        release = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  RawConn conn(server.port());
  std::vector<uint64_t> slow(keys.begin(), keys.begin() + 4096);
  slow[0] = kMarkerKey;
  std::vector<uint8_t> frame;
  EncodeKeyBatchRequest(Opcode::kQueryBatch, /*request_id=*/1, slow.data(),
                        slow.size(), &frame);
  conn.Send(frame);
  while (!held.load() && !release.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // More keys acked while A's batch is held: inserts run on the loop.  No
  // assertion may return before the watchdog is joined.
  const bool inserted =
      client.InsertBatch(keys.data() + 4096, 4096, &failures);
  std::vector<uint8_t> image;
  const bool snapshot_ok = inserted && client.Snapshot(&image);
  const bool answered_while_held = !watchdog_fired.load();
  release = true;
  watchdog.join();
  ASSERT_TRUE(inserted) << client.error();
  ASSERT_EQ(failures, 0u);
  ASSERT_TRUE(snapshot_ok) << client.error();
  EXPECT_TRUE(answered_while_held) << "SNAPSHOT waited for the held worker";

  auto restored = ShardedFilter::Deserialize(image.data(), image.size());
  ASSERT_NE(restored, nullptr);
  std::vector<uint8_t> in_image(keys.size());
  restored->ContainsBatch(keys.data(), keys.size(), in_image.data());
  uint64_t missing = 0;
  for (uint8_t a : in_image) missing += a == 0;
  EXPECT_EQ(missing, 0u);

  Frame reply;
  conn.ReadFrame(&reply);
  EXPECT_EQ(reply.request_id, 1u);
  std::vector<uint8_t> answers;
  ASSERT_TRUE(DecodeQueryResponsePayload(reply.payload.data(),
                                         reply.payload.size(), &answers));
  ASSERT_EQ(answers.size(), slow.size());
  for (size_t i = 1; i < answers.size(); ++i) {
    ASSERT_EQ(answers[i], 1) << "false negative at " << i;
  }
  service->SetQueryFaultHookForTesting(nullptr);
}

// A connection reset with a batch still queued keeps its slot until the
// batch completes, so connect / offload / reset cycles run into
// MembershipServer::kMaxConnections instead of growing the worker-pool queue.
// With the only worker held and one batch in flight allowed per connection,
// each of kMaxConnections cycles leaves one batch queued; the next
// connection is closed at once.  Released, the batches free their slots.
TEST(MembershipServer, ResetConnectionsKeepTheirSlotsWhileTheirBatchesQueue) {
  constexpr size_t kCap = MembershipServer::kMaxConnections;
  std::atomic<bool> release{false};
  auto service = MakeThreadedService(20000, /*num_threads=*/1);
  ServerOptions options;
  options.max_inflight_batches = 1;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();
  // The deadline bounds a failing run; ReleaseOnExit frees the worker on
  // every exit path before the server stops and drains the pool.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  service->SetQueryFaultHookForTesting(
      [&release, deadline](const uint64_t*, size_t) {
        while (!release.load() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  struct ReleaseOnExit {
    std::atomic<bool>& flag;
    ~ReleaseOnExit() { flag = true; }
  } release_on_exit{release};

  const auto keys = RandomKeys(kOffloadKeys, 981);
  std::vector<uint8_t> frame;
  EncodeKeyBatchRequest(Opcode::kQueryBatch, /*request_id=*/1, keys.data(),
                        keys.size(), &frame);
  const linger reset{1, 0};
  for (size_t i = 0; i < kCap; ++i) {
    RawConn conn(server.port());
    conn.Send(frame);
    // The batch must be on the pool before the reset arrives: the loop
    // closes a reset connection without reading what it sent.
    for (int wait = 0; wait < 100000; ++wait) {
      if (server.stats().batches_offloaded > i) break;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ASSERT_EQ(server.stats().batches_offloaded, i + 1);
    ASSERT_EQ(::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &reset,
                           sizeof(reset)),
              0);
  }
  // Every reset has been seen and closed.
  for (int wait = 0; wait < 30000; ++wait) {
    if (server.stats().connections_dropped == kCap) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().connections_dropped, kCap);

  {
    RawConn extra(server.port());
    const timeval timeout{5, 0};
    ASSERT_EQ(::setsockopt(extra.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    uint8_t byte = 0;
    EXPECT_EQ(::recv(extra.fd, &byte, 1, 0), 0)
        << "a connection was accepted while every slot held a queued batch";
  }
  EXPECT_EQ(server.stats().batches_offloaded, kCap);

  release = true;
  bool served = false;
  std::vector<uint8_t> answers;
  for (int attempt = 0; attempt < 30000 && !served; ++attempt) {
    MembershipClient client(
        ClientOptions{.port = server.port(), .auto_reconnect = false});
    served = client.QueryBatch(keys.data(), 16, &answers);
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(served) << "slots stayed held after the batches completed";
  service->SetQueryFaultHookForTesting(nullptr);
}

// --- sliced inserts ----------------------------------------------------------

// Many slices of MembershipServer::kInsertSliceKeys each.
constexpr size_t kSlicedInsertKeys = 20000;
// The largest INSERT_BATCH a frame carries: tens of ms of loop work.
constexpr size_t kHugeInsertKeys = kMaxKeysPerFrame;

uint64_t SteadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

obs::HistogramSnapshot Hist(obs::MetricsRegistry& registry, const char* name,
                            const char* op = nullptr) {
  obs::MetricsRegistry::Labels labels;
  if (op != nullptr) labels = {{"op", op}};
  return registry.GetHistogram(name, labels)->Snapshot();
}

// Waits until the shards counted more than `keys` inserts (a queued insert
// has started landing); false after 30 s.
bool WaitForInserts(const FilterService& service, uint64_t keys) {
  for (int i = 0; i < 30000; ++i) {
    if (service.filter().TotalStats().inserts > keys) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(MembershipServer, FramesBehindASlicedInsertWaitForItsAck) {
  obs::MetricsRegistry registry;
  auto service = MakeThreadedService(kSlicedInsertKeys, /*num_threads=*/1,
                                     &registry);
  ServerOptions options;
  options.registry = &registry;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();

  // One connection pipelines the insert and then queries of the same keys,
  // without waiting for the ack.
  const auto keys = RandomKeys(kSlicedInsertKeys, 961);
  std::vector<uint8_t> insert_frame, query_frames;
  EncodeKeyBatchRequest(Opcode::kInsertBatch, /*request_id=*/1, keys.data(),
                        keys.size(), &insert_frame);
  constexpr size_t kFrameKeys = 1000;
  uint64_t next_id = 2;
  for (size_t base = 0; base < keys.size(); base += kFrameKeys) {
    EncodeKeyBatchRequest(Opcode::kQueryBatch, next_id++, keys.data() + base,
                          std::min(kFrameKeys, keys.size() - base),
                          &query_frames);
  }
  // The insert frame's last byte travels with the query frames, so the
  // server decodes the insert with query frames already buffered behind it:
  // decoding any of them before the ack would probe a half-built filter.
  RawConn conn(server.port());
  std::vector<uint8_t> tail(insert_frame.end() - 1, insert_frame.end());
  insert_frame.pop_back();
  conn.Send(insert_frame);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  tail.insert(tail.end(), query_frames.begin(), query_frames.end());
  conn.Send(tail);

  Frame ack;
  conn.ReadFrame(&ack);
  ASSERT_EQ(ack.request_id, 1u) << "the insert ack must arrive first";
  uint64_t failures = 1;
  ASSERT_TRUE(DecodeInsertResponsePayload(ack.payload.data(),
                                          ack.payload.size(), &failures));
  EXPECT_EQ(failures, 0u);
  std::vector<uint32_t> responses(next_id, 0);
  for (uint64_t i = 2; i < next_id; ++i) {
    Frame frame;
    conn.ReadFrame(&frame);
    ASSERT_GE(frame.request_id, 2u);
    ASSERT_LT(frame.request_id, next_id);
    ++responses[frame.request_id];
    std::vector<uint8_t> answers;
    ASSERT_TRUE(DecodeQueryResponsePayload(frame.payload.data(),
                                           frame.payload.size(), &answers));
    for (uint8_t a : answers) ASSERT_EQ(a, 1) << "read-your-writes broken";
  }
  for (uint64_t id = 2; id < next_id; ++id) EXPECT_EQ(responses[id], 1u);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_received, next_id - 1);
  EXPECT_EQ(stats.frames_sent, stats.frames_received);
  EXPECT_EQ(stats.connections_dropped, 0u);
  if (obs::kEnabled) {
    // The insert really ran in slices, one per loop iteration.
    EXPECT_GE(Hist(registry, "net.loop.iter.ns").count,
              kSlicedInsertKeys / MembershipServer::kInsertSliceKeys);
  }
}

TEST(MembershipServer, InsertInstrumentationCountsEachBatchOnce) {
  if (!obs::kEnabled) GTEST_SKIP() << "instrumentation compiled out";
  obs::MetricsRegistry registry;
  auto service = MakeThreadedService(60000, /*num_threads=*/1, &registry);
  ServerOptions options;
  options.registry = &registry;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();

  // Both sides of the slice budget: inline batches and sliced ones.
  const size_t budget = MembershipServer::kInsertSliceKeys;
  const std::vector<size_t> sizes = {1, 100, budget, budget + 1, 5000,
                                     kSlicedInsertKeys};
  MembershipClient client(ClientOptions{.port = server.port()});
  uint64_t total = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const auto keys = RandomKeys(sizes[i], 980 + i);
    uint64_t failures = 0;
    ASSERT_TRUE(client.InsertBatch(keys.data(), keys.size(), &failures))
        << client.error();
    EXPECT_EQ(failures, 0u);
    total += sizes[i];
  }
  const obs::HistogramSnapshot keys_hist =
      Hist(registry, "service.batch.keys", "insert");
  const obs::HistogramSnapshot exec_hist =
      Hist(registry, "service.exec.ns", "insert");
  const obs::HistogramSnapshot request_hist =
      Hist(registry, "net.server.request.ns", "insert");
  EXPECT_EQ(keys_hist.count, sizes.size());
  EXPECT_EQ(keys_hist.sum, total);
  EXPECT_EQ(exec_hist.count, sizes.size());
  EXPECT_EQ(request_hist.count, sizes.size());
  // Decode to ack spans the exec time (the slices) and the polls between.
  EXPECT_LE(exec_hist.sum, request_hist.sum);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_received, client.frames_sent());
  EXPECT_EQ(stats.frames_sent, stats.frames_received);
}

// The largest value recorded between two snapshots of one histogram, to
// bucket precision: the lower bound of the highest bucket that grew.
uint64_t MaxBetween(const obs::HistogramSnapshot& before,
                    const obs::HistogramSnapshot& after) {
  std::map<uint32_t, uint64_t> prior(before.buckets.begin(),
                                     before.buckets.end());
  uint64_t max = 0;
  for (const auto& [index, count] : after.buckets) {
    if (count > prior[index]) {
      max = std::max(max, obs::LatencyHistogram::BucketLowerBound(index));
    }
  }
  return max;
}

TEST(MembershipServer, LoopServesOtherConnectionsBetweenInsertSlices) {
  obs::MetricsRegistry registry;
  auto service = MakeThreadedService(2 * kHugeInsertKeys + 4096,
                                     /*num_threads=*/1, &registry);
  ServerOptions options;
  options.registry = &registry;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();

  MembershipClient querier(ClientOptions{.port = server.port()});
  const auto known = RandomKeys(4096, 971);
  uint64_t failures = 0;
  ASSERT_TRUE(querier.InsertBatch(known.data(), known.size(), &failures));
  const auto huge = RandomKeys(2 * kHugeInsertKeys, 972);
  // A first sends one huge INSERT_BATCH alone, so the server's receive and
  // decode buffers for an 8 MB frame are warm; receiving the next one then
  // costs far less than inserting it.
  MembershipClient client(ClientOptions{.port = server.port()});
  ASSERT_TRUE(client.InsertBatch(huge.data(), kHugeInsertKeys, &failures));
  ASSERT_EQ(failures, 0u);
  const obs::HistogramSnapshot iter_before =
      Hist(registry, "net.loop.iter.ns");
  const obs::HistogramSnapshot request_before =
      Hist(registry, "net.server.request.ns", "insert");

  // A sends a second huge INSERT_BATCH; B loops on 16-key queries until
  // A's ack.
  std::atomic<bool> acked{false};
  uint64_t ack_ns = 0;
  bool insert_ok = false;
  std::thread inserter([&] {
    uint64_t rejected = 0;
    insert_ok = client.InsertBatch(huge.data() + kHugeInsertKeys,
                                   kHugeInsertKeys, &rejected) &&
                rejected == 0;
    ack_ns = SteadyNanos();
    acked.store(true, std::memory_order_release);
  });
  std::vector<uint64_t> answer_ns;  // when each of B's answers arrived
  bool queries_ok = true;
  std::vector<uint8_t> answers;
  for (size_t call = 0; !acked.load(std::memory_order_acquire); ++call) {
    const size_t base = (call * 16) % (known.size() - 16);
    if (!querier.QueryBatch(known.data() + base, 16, &answers)) {
      queries_ok = false;
      break;
    }
    answer_ns.push_back(SteadyNanos());
    for (uint8_t a : answers) queries_ok &= a == 1;
  }
  inserter.join();
  ASSERT_TRUE(insert_ok);
  ASSERT_TRUE(queries_ok) << querier.error();
  EXPECT_TRUE(!answer_ns.empty() && answer_ns.front() < ack_ns)
      << "B got no answer before A's ack";

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_sent, stats.frames_received);
  if (!obs::kEnabled) return;
  // Ratios, so they hold at any speed (sanitizers included).  B kept being
  // served in the middle of A's second insert, from half to a quarter of its
  // decode-to-ack time before the ack reached A (the quarter leaves room for
  // A's own wakeup); an unsliced insert holds the loop for all of it.  And
  // no loop iteration meanwhile came near that decode-to-ack time, which an
  // unsliced insert spends inside one iteration.  The longest one left
  // receives and decodes A's 8 MB frame: a quarter to a half of the insert
  // here, mostly first-touch page faults of fresh frame and key buffers.
  const uint64_t insert_ns =
      Hist(registry, "net.server.request.ns", "insert").sum -
      request_before.sum;
  const size_t served_mid_insert = static_cast<size_t>(std::count_if(
      answer_ns.begin(), answer_ns.end(), [&](uint64_t t) {
        return t + insert_ns / 2 > ack_ns && t + insert_ns / 4 < ack_ns;
      }));
  EXPECT_GE(served_mid_insert, 10u);
  EXPECT_LT(MaxBetween(iter_before, Hist(registry, "net.loop.iter.ns")),
            insert_ns / 4 * 3);
}

TEST(MembershipServer, ConnectionClosedMidInsertDisturbsNoOtherConnection) {
  auto service = MakeThreadedService(2 * kHugeInsertKeys + 4096,
                                     /*num_threads=*/1);
  MembershipServer server(service, ServerOptions{});
  ASSERT_TRUE(server.Start()) << server.error();
  MembershipClient other(ClientOptions{.port = server.port()});
  const auto known = RandomKeys(4096, 975);
  uint64_t failures = 0;
  ASSERT_TRUE(other.InsertBatch(known.data(), known.size(), &failures));
  const auto huge = RandomKeys(2 * kHugeInsertKeys, 976);
  std::vector<uint8_t> frame;
  EncodeKeyBatchRequest(Opcode::kInsertBatch, /*request_id=*/1, huge.data(),
                        kHugeInsertKeys, &frame);
  std::vector<uint8_t> answers;

  // A clean close mid-insert: the peer is gone before its ack exists.  The
  // insert still lands (nothing tells the loop before the ack), the ack
  // goes nowhere, and the close is not a drop.
  uint64_t landed = known.size();
  {
    RawConn conn(server.port());
    conn.Send(frame);
    ASSERT_TRUE(WaitForInserts(*service, landed));
  }
  ASSERT_TRUE(other.QueryBatch(known.data(), known.size(), &answers));
  for (uint8_t a : answers) ASSERT_EQ(a, 1);
  landed += kHugeInsertKeys;
  for (int i = 0; i < 30000; ++i) {
    if (service->filter().TotalStats().inserts == landed) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service->filter().TotalStats().inserts, landed);
  // One more round trip: the loop has finished with the closed connection.
  ASSERT_TRUE(other.QueryBatch(known.data(), 16, &answers));
  EXPECT_EQ(server.stats().connections_dropped, 0u);

  // A reset mid-insert: the loop sees the error at once, closes the
  // connection as dropped, and abandons the rest of its insert.
  frame.clear();
  EncodeKeyBatchRequest(Opcode::kInsertBatch, /*request_id=*/1,
                        huge.data() + kHugeInsertKeys, kHugeInsertKeys,
                        &frame);
  {
    RawConn conn(server.port());
    conn.Send(frame);
    ASSERT_TRUE(WaitForInserts(*service, landed));
    const linger reset{1, 0};
    ASSERT_EQ(::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &reset,
                           sizeof(reset)),
              0);
  }
  ASSERT_TRUE(other.QueryBatch(known.data(), known.size(), &answers));
  for (uint8_t a : answers) ASSERT_EQ(a, 1);
  for (int i = 0; i < 30000 && server.stats().connections_dropped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(other.QueryBatch(known.data(), 16, &answers));
  EXPECT_EQ(server.stats().connections_dropped, 1u);
  EXPECT_LT(service->filter().TotalStats().inserts, landed + kHugeInsertKeys);
  EXPECT_EQ(service->filter().TotalStats().insert_failures, 0u);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(MembershipServer, StopWithAQueuedInsertReturnsWithinTheGrace) {
  auto service = MakeThreadedService(kHugeInsertKeys, /*num_threads=*/1);
  MembershipServer server(service, ServerOptions{});
  ASSERT_TRUE(server.Start()) << server.error();
  const auto huge = RandomKeys(kHugeInsertKeys, 977);
  std::vector<uint8_t> frame;
  EncodeKeyBatchRequest(Opcode::kInsertBatch, /*request_id=*/1, huge.data(),
                        huge.size(), &frame);
  RawConn conn(server.port());
  conn.Send(frame);
  ASSERT_TRUE(WaitForInserts(*service, 0));
  const uint64_t start_ns = SteadyNanos();
  server.Stop();
  // The loop's shutdown grace is 2 s; the rest is joins and closes.
  EXPECT_LT(SteadyNanos() - start_ns, uint64_t{3'000'000'000});
  EXPECT_FALSE(server.running());
}

// --- request tracing ---------------------------------------------------------

// The first span `t` carries for `stage`, or nullptr.
const obs::TraceSpan* FindSpan(const obs::Trace& t, obs::TraceStage stage) {
  for (uint32_t i = 0; i < t.span_count && i < obs::kMaxTraceSpans; ++i) {
    if (t.spans[i].stage == static_cast<uint8_t>(stage)) return &t.spans[i];
  }
  return nullptr;
}

// True when `t` carries a span for `stage`.
bool HasStage(const obs::Trace& t, obs::TraceStage stage) {
  return FindSpan(t, stage) != nullptr;
}

TEST(MembershipServer, TracedRequestsCaptureFullPipelineTimelines) {
  obs::MetricsRegistry registry;
  auto service = MakeThreadedService(20000, /*num_threads=*/2, &registry);
  ServerOptions options;
  options.trace_sample_rate = 1.0;  // head-sample every merged batch
  options.registry = &registry;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();

  MembershipClient client(ClientOptions{.port = server.port()});
  const auto keys = RandomKeys(4096, 961);
  uint64_t failures = 0;
  ASSERT_TRUE(client.InsertBatch(keys.data(), keys.size(), &failures));
  std::vector<uint8_t> answers;
  // Big enough to offload, so the timeline covers the pool's stages.
  ASSERT_TRUE(client.QueryBatch(keys.data(), kOffloadKeys, &answers));
  ASSERT_EQ(answers.size(), kOffloadKeys);

  // TRACES rides the same connection, so it is served strictly after the
  // query's trace was finished and pushed.
  std::vector<obs::Trace> traces;
  ASSERT_TRUE(client.Traces(&traces)) << client.error();
  if (!obs::kEnabled) {
    EXPECT_TRUE(traces.empty());  // PF_OBS=OFF: nothing is ever recorded
    return;
  }
  ASSERT_FALSE(traces.empty());

  // An offloaded query's timeline covers the whole pipeline: socket read,
  // decode, queue wait, worker exec with per-shard probes inside, completion
  // transit back to the loop, and the response write.  Read ends where
  // decode begins.
  bool full_timeline = false;
  for (const obs::Trace& t : traces) {
    for (uint32_t i = 0; i < t.span_count && i < obs::kMaxTraceSpans; ++i) {
      ASSERT_LT(t.spans[i].stage, obs::kNumTraceStages);
      EXPECT_GE(t.spans[i].end_ns, t.spans[i].start_ns);
    }
    if (t.opcode != static_cast<uint8_t>(Opcode::kQueryBatch)) continue;
    if (HasStage(t, obs::TraceStage::kRead) &&
        HasStage(t, obs::TraceStage::kDecode) &&
        HasStage(t, obs::TraceStage::kQueueWait) &&
        HasStage(t, obs::TraceStage::kExec) &&
        HasStage(t, obs::TraceStage::kShardProbe) &&
        HasStage(t, obs::TraceStage::kCompletion) &&
        HasStage(t, obs::TraceStage::kWrite)) {
      EXPECT_TRUE(t.sampled());
      EXPECT_GT(t.key_count, 0u);
      EXPECT_GE(t.end_ns, t.start_ns);
      EXPECT_LE(FindSpan(t, obs::TraceStage::kRead)->end_ns,
                FindSpan(t, obs::TraceStage::kDecode)->start_ns);
      full_timeline = true;
    }
  }
  EXPECT_TRUE(full_timeline) << "no query trace covered read + decode + "
                                "queue_wait + exec + shard_probe + "
                                "completion + write";
}

TEST(MembershipServer, SlowRequestsAreTailCapturedWithoutHeadSampling) {
  auto service = MakeThreadedService(20000, /*num_threads=*/2);
  ServerOptions options;
  options.trace_sample_rate = 0.0;  // head sampling fully off
  options.trace_slow_ns = 5'000'000;  // 5ms: only the stalled batch trips it
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();

  MembershipClient client(ClientOptions{.port = server.port()});
  const auto keys = RandomKeys(4096, 971);
  uint64_t failures = 0;
  ASSERT_TRUE(client.InsertBatch(keys.data(), keys.size(), &failures));

  // One fast query (finishes in microseconds, must NOT be retained), then a
  // marker query the fault hook stalls past the slow threshold.
  std::vector<uint8_t> answers;
  ASSERT_TRUE(client.QueryBatch(keys.data(), 64, &answers));
  service->SetQueryFaultHookForTesting([](const uint64_t* batch, size_t n) {
    if (BatchHasMarker(batch, n)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });
  std::vector<uint64_t> marked = {kMarkerKey, keys[0], keys[1]};
  ASSERT_TRUE(client.QueryBatch(marked.data(), marked.size(), &answers));
  service->SetQueryFaultHookForTesting(nullptr);

  std::vector<obs::Trace> traces;
  ASSERT_TRUE(client.Traces(&traces)) << client.error();
  if (!obs::kEnabled) {
    EXPECT_TRUE(traces.empty());
    return;
  }
  // Tail capture retained exactly the stalled request: every trace present
  // is slow (never head-sampled), and at least one exceeded the threshold.
  ASSERT_FALSE(traces.empty()) << "slow request was not tail-captured";
  bool stalled_seen = false;
  for (const obs::Trace& t : traces) {
    EXPECT_TRUE(t.slow());
    EXPECT_FALSE(t.sampled());
    if (t.end_ns - t.start_ns >= options.trace_slow_ns &&
        t.key_count == marked.size()) {
      stalled_seen = true;
    }
  }
  EXPECT_TRUE(stalled_seen) << "retained traces do not include the stall";
}

TEST(MembershipClient, SampledClientTracesItsFirstQueryFrameDirectly) {
  auto service = MakeService(20000);
  ServerOptions options;
  options.trace_sample_rate = 0.0;  // server does no head sampling of its own
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();

  ClientOptions client_options;
  client_options.port = server.port();
  client_options.trace_sample_rate = 1.0;  // client marks every query frame
  MembershipClient client(client_options);

  // The first RPC is a query: the trace context rides that frame itself, so
  // exactly one frame reaches the wire — no STATS or other exchange first.
  const auto keys = RandomKeys(128, 981);
  std::vector<uint8_t> answers;
  ASSERT_TRUE(client.QueryBatch(keys.data(), keys.size(), &answers))
      << client.error();
  ASSERT_EQ(answers.size(), keys.size());
  EXPECT_EQ(client.frames_sent(), 1u);
  EXPECT_EQ(client.frames_traced(), 1u);

  std::vector<obs::Trace> traces;
  ASSERT_TRUE(client.Traces(&traces)) << client.error();
  if (!obs::kEnabled) {
    // PF_OBS=OFF: the server strips the context and records nothing.
    EXPECT_TRUE(traces.empty());
    return;
  }
  // The server — its own sampling off — honored the propagated context and
  // retained the trace as sampled.
  bool sampled_query = false;
  for (const obs::Trace& t : traces) {
    if (t.opcode == static_cast<uint8_t>(Opcode::kQueryBatch) && t.sampled()) {
      sampled_query = true;
    }
  }
  EXPECT_TRUE(sampled_query) << "client-propagated context was not honored";
}

TEST(MembershipServer, HttpTracesEndpointRendersSpanTimelines) {
  obs::MetricsRegistry registry;  // local registry: isolated from other tests
  auto service = MakeThreadedService(20000, /*num_threads=*/2, &registry);
  ServerOptions options;
  options.enable_http = true;
  options.registry = &registry;
  options.trace_sample_rate = 1.0;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();
  ASSERT_NE(server.http_port(), 0);

  MembershipClient client(ClientOptions{.port = server.port()});
  const auto keys = RandomKeys(8192, 991);
  uint64_t failures = 0;
  ASSERT_TRUE(client.InsertBatch(keys.data(), keys.size(), &failures));
  for (int rep = 0; rep < 8; ++rep) {
    std::vector<uint8_t> answers;
    ASSERT_TRUE(client.QueryBatch(keys.data() + rep * 512, 512, &answers));
  }

  const std::string response = HttpExchange(
      server.http_port(), "GET /traces HTTP/1.1\r\nHost: test\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  // The document shape is served even when nothing is retained.
  EXPECT_NE(body.find("\"trace_count\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"sampled_total\""), std::string::npos);
  EXPECT_NE(body.find("\"slow_total\""), std::string::npos);
  if (!obs::kEnabled) return;  // PF_OBS=OFF: endpoint answers, rings empty

  EXPECT_NE(body.find("\"trace_id\""), std::string::npos) << body;
  for (const char* stage :
       {"\"decode\"", "\"queue_wait\"", "\"exec\"", "\"shard_probe\"",
        "\"completion\"", "\"write\""}) {
    EXPECT_NE(body.find(stage), std::string::npos) << "missing span " << stage;
  }
}

}  // namespace
}  // namespace prefixfilter::net
