// Membership server: the sharded filter service, served over TCP.
//
// Two modes:
//
//   build/example_membership_server
//     Self-contained loopback demo: starts a MembershipServer on an
//     ephemeral port, drives it with MembershipClient threads (register
//     users, check memberships, STATS, snapshot/restore), verifies the
//     restored service answers identically, and exits.
//
//   build/example_membership_server --serve [--port=P] [--capacity=N]
//       [--threads=T] [--loops=N] [--http-port=P] [--trace-sample=RATE]
//       [--trace-slow-ms=MS]
//     Long-running server for external clients (bench_net_loadgen, the CI
//     loopback smoke leg).  Prints "listening on 127.0.0.1:<port>" once
//     ready and serves until SIGINT/SIGTERM.  --http-port additionally
//     serves GET /metrics (Prometheus text format) and GET /traces
//     (request-trace JSON) on that port (0 = kernel-assigned; the chosen
//     port is printed).  --trace-sample head-samples that fraction of
//     requests into the trace rings; --trace-slow-ms tail-captures every
//     request slower than the threshold.
//
// See README "Network service" for the wire protocol.
#include <algorithm>
#include <csignal>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/membership_client.h"
#include "src/net/membership_server.h"
#include "src/service/filter_service.h"
#include "src/util/random.h"

namespace {

using prefixfilter::FilterService;
using prefixfilter::FilterServiceOptions;
namespace net = prefixfilter::net;

// The served filter: 16 prefix-filter shards.
constexpr const char* kFilterName = "SHARD16[PF[TC]]";

std::shared_ptr<FilterService> MakeService(uint64_t capacity,
                                           uint32_t service_threads) {
  FilterServiceOptions options;
  options.num_threads = service_threads;
  // Shared name-to-service bootstrap (src/service/filter_service.h).
  return prefixfilter::MakeFilterService(kFilterName, capacity, options);
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

int Serve(uint64_t capacity, uint16_t port, uint32_t service_threads,
          uint32_t loops, bool enable_http, uint16_t http_port,
          double trace_sample, double trace_slow_ms) {
  auto service = MakeService(capacity, service_threads);
  if (service == nullptr) {
    std::fprintf(stderr, "cannot build %s with capacity %" PRIu64 "\n",
                 kFilterName, capacity);
    return 2;
  }
  net::ServerOptions options;
  options.port = port;
  options.num_loops = loops;
  options.enable_http = enable_http;
  options.http_port = http_port;
  options.trace_sample_rate = trace_sample;
  options.trace_slow_ns =
      trace_slow_ms > 0 ? static_cast<uint64_t>(trace_slow_ms * 1e6) : 0;
  net::MembershipServer server(service, options);
  if (!server.Start()) {
    std::fprintf(stderr, "server start failed: %s\n", server.error().c_str());
    return 1;
  }
  std::printf("membership_server: %s (capacity %" PRIu64
              ", %u shards, %u loop%s) listening on 127.0.0.1:%u\n",
              kFilterName, capacity, service->filter().num_shards(),
              server.num_loops(),
              server.num_loops() == 1 ? "" : "s",
              server.port());
  if (enable_http) {
    std::printf("membership_server: metrics on "
                "http://127.0.0.1:%u/metrics, traces on "
                "http://127.0.0.1:%u/traces\n",
                server.http_port(), server.http_port());
  }
  if (trace_sample > 0 || trace_slow_ms > 0) {
    std::printf("membership_server: tracing %.4f%% of requests, slow "
                "threshold %.1f ms\n",
                trace_sample * 100.0, trace_slow_ms);
  }
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  const net::ServerStats stats = server.stats();
  // Key and failure totals are the shards' own counters.
  const prefixfilter::ShardStats keys = service->filter().TotalStats();
  server.Stop();
  std::printf("membership_server: served %" PRIu64 " frames (%" PRIu64
              " keys inserted, %" PRIu64 " failed, %" PRIu64
              " keys queried, %" PRIu64 " frames merged) on %" PRIu64
              " connections; %" PRIu64 " protocol errors, %" PRIu64
              " drops\n",
              stats.frames_received, keys.inserts, keys.insert_failures,
              keys.queries, stats.query_frames_merged,
              stats.connections_accepted, stats.protocol_errors,
              stats.connections_dropped);
  return 0;
}

int Demo() {
  // A service sized for 4M users, partitioned over 16 prefix-filter shards,
  // fronted by a real TCP server on an ephemeral loopback port.
  const uint64_t capacity = 4'000'000;
  auto service = MakeService(capacity, /*service_threads=*/0);
  net::MembershipServer server(service);
  if (!server.Start()) {
    std::fprintf(stderr, "server start failed: %s\n", server.error().c_str());
    return 1;
  }
  std::printf("server: 127.0.0.1:%u\n", server.port());

  net::ClientOptions client_options;
  client_options.port = server.port();

  // Four registration clients, each signing up 500k users in 8k batches
  // over its own connection.
  const auto users = prefixfilter::RandomKeys(2'000'000, /*seed=*/11);
  constexpr int kClients = 4;
  constexpr size_t kBatch = 8192;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      net::MembershipClient client(client_options);
      const size_t begin = users.size() * c / kClients;
      const size_t end = users.size() * (c + 1) / kClients;
      for (size_t base = begin; base < end; base += kBatch) {
        const size_t count = std::min(kBatch, end - base);
        uint64_t failures = 0;
        if (!client.InsertBatch(users.data() + base, count, &failures) ||
            failures != 0) {
          std::fprintf(stderr, "client %d: insert failures\n", c);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // A membership check: half known users, half strangers, pipelined.
  std::vector<uint64_t> probe = prefixfilter::RandomKeys(100'000, 12);
  for (size_t i = 0; i < probe.size(); i += 2) {
    probe[i] = users[i * 17 % users.size()];
  }
  net::MembershipClient client(client_options);
  std::vector<uint8_t> answers;
  if (!client.QueryPipelined(probe.data(), probe.size(), &answers)) {
    std::fprintf(stderr, "query failed: %s\n", client.error().c_str());
    return 1;
  }
  uint64_t members = 0;
  for (uint8_t a : answers) members += a;
  std::printf("membership check: %" PRIu64 " / %zu reported present "
              "(~half are registered users)\n",
              members, probe.size());

  // Per-shard accounting over the wire: the hash partition keeps shards
  // balanced, and the shard counters prove the batches rode BatchRouter.
  net::WireStats stats;
  if (!client.Stats(&stats)) {
    std::fprintf(stderr, "STATS failed: %s\n", client.error().c_str());
    return 1;
  }
  uint64_t min_load = ~uint64_t{0}, max_load = 0;
  for (const auto& shard : stats.shards) {
    min_load = std::min(min_load, shard.inserts);
    max_load = std::max(max_load, shard.inserts);
  }
  const net::WireShardStats totals = net::SumShards(stats.shards);
  std::printf("service: %" PRIu64 " keys inserted, %" PRIu64
              " queried over %zu shards; shard load %" PRIu64 "..%" PRIu64
              " (%.1f%% spread)\n",
              totals.inserts, totals.queries, stats.shards.size(), min_load,
              max_load,
              100.0 * static_cast<double>(max_load - min_load) /
                  static_cast<double>(max_load));
  uint64_t batches = 0;
  if (net::ServiceBatches(stats, "insert", &batches)) {
    std::printf("service: %" PRIu64 " insert batches\n", batches);
  }

  // Snapshot over the wire, "restart", verify: the restored service answers
  // identically — the build-once/load-later lifecycle of §1, lifted to the
  // networked service.
  std::vector<uint8_t> snapshot;
  if (!client.Snapshot(&snapshot)) {
    std::fprintf(stderr, "snapshot failed: %s\n", client.error().c_str());
    return 1;
  }
  auto restored = prefixfilter::ShardedFilter::Deserialize(snapshot.data(),
                                                          snapshot.size());
  if (restored == nullptr) {
    std::fprintf(stderr, "restore failed\n");
    return 1;
  }
  FilterService revived(std::move(restored), FilterServiceOptions{});
  std::vector<uint8_t> answers2(probe.size());
  revived.QueryBatchSync(probe.data(), probe.size(), answers2.data());
  uint64_t disagreements = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    disagreements += answers[i] != answers2[i];
  }
  std::printf("snapshot: %zu bytes over the wire; restored service "
              "disagreements: %" PRIu64 " (must be 0)\n",
              snapshot.size(), disagreements);
  return disagreements == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool serve = false;
  uint16_t port = 0;
  uint64_t capacity = 4'000'000;
  uint32_t service_threads = 0;
  uint32_t loops = 1;
  bool enable_http = false;
  uint16_t http_port = 0;
  double trace_sample = 0.0;
  double trace_slow_ms = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve") {
      serve = true;
    } else if (arg.rfind("--port=", 0) == 0) {
      port = static_cast<uint16_t>(std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--capacity=", 0) == 0) {
      capacity = std::strtoull(arg.c_str() + 11, nullptr, 0);
    } else if (arg.rfind("--threads=", 0) == 0) {
      service_threads = static_cast<uint32_t>(std::atoi(arg.c_str() + 10));
    } else if (arg.rfind("--loops=", 0) == 0) {
      loops = static_cast<uint32_t>(std::max(1, std::atoi(arg.c_str() + 8)));
    } else if (arg.rfind("--http-port=", 0) == 0) {
      enable_http = true;
      http_port = static_cast<uint16_t>(std::atoi(arg.c_str() + 12));
    } else if (arg.rfind("--trace-sample=", 0) == 0) {
      trace_sample = std::atof(arg.c_str() + 15);
    } else if (arg.rfind("--trace-slow-ms=", 0) == 0) {
      trace_slow_ms = std::atof(arg.c_str() + 16);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: example_membership_server [--serve] [--port=P]\n"
          "         [--capacity=N] [--threads=T] [--loops=N]\n"
          "         [--http-port=P] [--trace-sample=RATE]\n"
          "         [--trace-slow-ms=MS]\n"
          "Without --serve, runs the self-contained loopback demo.\n"
          "--loops=N serves on N SO_REUSEPORT event loops; --threads=T\n"
          "adds T filter worker threads (queries then run off-loop).\n"
          "--trace-sample=RATE head-samples that fraction of requests into\n"
          "GET /traces; --trace-slow-ms=MS additionally captures every\n"
          "request slower than MS milliseconds.\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 2;
    }
  }
  if (serve) {
    return Serve(capacity, port, service_threads, loops, enable_http,
                 http_port, trace_sample, trace_slow_ms);
  }
  return Demo();
}
