// net_loadgen: multi-connection load generator for the membership service.
//
// Drives src/workload query streams over the wire protocol against a
// MembershipServer — either an external one (--connect=host:port, the CI
// loopback smoke leg starts `example_membership_server --serve` first) or a
// self-hosted in-process server on an ephemeral loopback port (the default,
// so `bench_net_loadgen --quick` is self-contained).
//
// Measurement: one pipelined insert phase loads the workload's key set, then
// each query workload runs over C connections (one thread + one
// MembershipClient each), every thread sweeping its slice of the stream in
// pipeline windows of `--batch x --depth` keys.  Windows are the timing
// chunks, so the emitted ns/op p50/p90/p99 are end-to-end network latencies
// per key under pipelining, in the same prefixfilter-bench-v1 JSON rows
// (with query_mops / query_ns_* metric keys) as every other bench.
//
// Verification (exit code 1 on any failure — the CI smoke leg relies on it):
//  * zero transport/protocol errors on every connection,
//  * zero false negatives against the workload's ground truth,
//  * nonzero query throughput,
//  * the server's per-shard STATS query counters grew by at least the number
//    of keys this run queried — the observable proof that socket traffic
//    rode the BatchRouter/shard path rather than some scalar bypass.
//
// Usage:
//   bench_net_loadgen [--quick] [--n-log2=L] [--seed=S] [--json=PATH]
//                     [--connect=host:port] [--threads=T]
//                     [--connections=C] [--batch=B] [--depth=D]
//                     [--workloads=a,b,...]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/net/membership_client.h"
#include "src/net/membership_server.h"
#include "src/obs/metrics.h"
#include "src/service/filter_service.h"
#include "src/workload/workload.h"

namespace {

namespace bench = prefixfilter::bench;
namespace net = prefixfilter::net;
namespace workload = prefixfilter::workload;

// The self-hosted server's filter.
constexpr const char* kFilterName = "SHARD16[PF[TC]]";

struct LoadgenConfig {
  std::string connect;  // empty = self-host
  uint32_t service_threads = 0;  // self-host: 0 = serve on the event loop
  int connections = 4;
  size_t batch = 4096;
  size_t depth = 4;
  // Self-host event-loop counts (--server-threads=CSV).  The first value is
  // the loop count for the main phases; more than one value additionally
  // runs the multi-loop scaling sweep (one fresh server per count, one
  // `net-scaling,loops=N` row each, speedup relative to the first count).
  std::vector<uint32_t> server_threads = {1};
  std::vector<std::string> workloads = {"uniform-negative", "mixed-50-50",
                                        "adversarial-dup"};
  // --record-frames=DIR: every client mirrors its wire frames into DIR
  // (created if missing) — raw material for the fuzz seed corpora; see
  // fuzz/make_seed_corpus.cc.
  std::string record_frames_dir;
  // --trace-sample=RATE: every query client samples that fraction of its
  // QUERY_BATCH frames with a wire trace context, and a self-hosted run
  // appends a trace-overhead A/B row comparing untraced vs sampled
  // throughput.
  double trace_sample = 0.0;
};

// Per-thread query-phase result.
struct WorkerResult {
  bool ok = false;
  std::string error;
  uint64_t keys = 0;
  uint64_t false_negatives = 0;
  uint64_t false_positives = 0;
  uint64_t negatives = 0;  // ground-truth absent (FPR denominator)
  uint64_t frames_traced = 0;
  std::vector<double> chunk_ns;
};

void RunQuerySlice(const net::ClientOptions& client_options,
                   const workload::Stream& stream, size_t begin, size_t end,
                   WorkerResult* result) {
  net::MembershipClient client(client_options);
  if (!client.Connect()) {
    result->error = client.error();
    return;
  }
  const size_t window = client_options.max_batch_keys *
                        client_options.pipeline_depth;
  std::vector<uint8_t> answers;
  for (size_t base = begin; base < end; base += window) {
    const size_t count = std::min(window, end - base);
    bench::Timer timer;
    if (!client.QueryPipelined(stream.queries.data() + base, count,
                               &answers)) {
      result->error = client.error();
      return;
    }
    result->chunk_ns.push_back(timer.Seconds() * 1e9 /
                               static_cast<double>(count));
    for (size_t i = 0; i < count; ++i) {
      if (stream.query_expected[base + i]) {
        result->false_negatives += !answers[i];
      } else {
        ++result->negatives;
        result->false_positives += answers[i];
      }
    }
    result->keys += count;
  }
  if (client.remote_errors() != 0) {
    result->error = "server returned error frames: " + client.error();
    return;
  }
  result->frames_traced = client.frames_traced();
  result->ok = true;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenConfig config;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--connect=", 0) == 0) {
      config.connect = arg.substr(10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      config.service_threads =
          static_cast<uint32_t>(std::atoi(arg.c_str() + 10));
    } else if (arg.rfind("--server-threads=", 0) == 0) {
      config.server_threads.clear();
      for (const std::string& part : bench::SplitCsv(arg.substr(17))) {
        config.server_threads.push_back(static_cast<uint32_t>(
            std::max(1, std::atoi(part.c_str()))));
      }
      if (config.server_threads.empty()) config.server_threads = {1};
    } else if (arg.rfind("--connections=", 0) == 0) {
      config.connections = std::max(1, std::atoi(arg.c_str() + 14));
    } else if (arg.rfind("--batch=", 0) == 0) {
      config.batch = static_cast<size_t>(std::atoll(arg.c_str() + 8));
    } else if (arg.rfind("--depth=", 0) == 0) {
      config.depth = static_cast<size_t>(std::atoll(arg.c_str() + 8));
    } else if (arg.rfind("--workloads=", 0) == 0) {
      config.workloads = bench::SplitCsv(arg.substr(12));
    } else if (arg.rfind("--record-frames=", 0) == 0) {
      config.record_frames_dir = arg.substr(16);
    } else if (arg.rfind("--trace-sample=", 0) == 0) {
      config.trace_sample = std::atof(arg.c_str() + 15);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_net_loadgen [--quick] [--n-log2=L] [--seed=S]\n"
          "         [--json=PATH] [--connect=host:port] [--threads=T]\n"
          "         [--server-threads=N[,N...]]\n"
          "         [--connections=C] [--batch=B] [--depth=D]\n"
          "         [--workloads=a,b,...] [--record-frames=DIR]\n"
          "         [--trace-sample=RATE]\n"
          "Self-hosts an in-process loopback server unless --connect is\n"
          "given.  --server-threads sets the server's event-loop count\n"
          "(SO_REUSEPORT loop-per-core); a CSV list additionally runs a\n"
          "scaling sweep emitting one net-scaling,loops=N row per count.\n"
          "--trace-sample=RATE marks that fraction of query frames with a\n"
          "wire trace context (self-hosted runs add a trace-overhead A/B\n"
          "row).  Workloads must share one insert stream (any standard\n"
          "workload except disjoint-negative).\n");
      return 0;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  bench::Options options = bench::ParseOptions(
      static_cast<int>(passthrough.size()), passthrough.data());

  const uint64_t n = options.n();
  const uint64_t num_queries =
      options.quick ? std::max<uint64_t>(n, uint64_t{1} << 17) : n;

  // Generate every workload up front and check the shared-insert-set
  // invariant: the server is loaded once, so every stream's ground truth
  // must describe the same inserted keys.
  std::vector<workload::Stream> streams;
  for (const auto& name : config.workloads) {
    workload::Spec spec;
    if (!workload::FindStandardSpec(name, n, num_queries, options.seed,
                                    &spec)) {
      std::fprintf(stderr, "net_loadgen: unknown workload %s\n", name.c_str());
      return 2;
    }
    streams.push_back(workload::Generate(spec));
    if (streams.back().insert_keys != streams.front().insert_keys) {
      std::fprintf(stderr,
                   "net_loadgen: workload %s has a different insert stream "
                   "(disjoint-negative cannot share a server)\n",
                   name.c_str());
      return 2;
    }
  }
  if (streams.empty()) {
    std::fprintf(stderr, "net_loadgen: no workloads\n");
    return 2;
  }
  const std::vector<uint64_t>& insert_keys = streams.front().insert_keys;

  // Self-host unless --connect points at an external server.
  std::shared_ptr<prefixfilter::FilterService> service;
  std::unique_ptr<net::MembershipServer> server;
  net::ClientOptions client_options;
  client_options.max_batch_keys = config.batch;
  client_options.pipeline_depth = config.depth;
  client_options.trace_sample_rate = config.trace_sample;
  if (!config.record_frames_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.record_frames_dir, ec);
    if (ec) {
      std::fprintf(stderr, "net_loadgen: cannot create %s: %s\n",
                   config.record_frames_dir.c_str(), ec.message().c_str());
      return 2;
    }
    client_options.record_frames_dir = config.record_frames_dir;
    std::printf("net_loadgen: recording wire frames into %s\n",
                config.record_frames_dir.c_str());
  }
  if (config.connect.empty()) {
    prefixfilter::FilterServiceOptions service_options;
    service_options.num_threads = config.service_threads;
    service = prefixfilter::MakeFilterService(kFilterName, n,
                                              service_options, options.seed);
    if (service == nullptr) {
      std::fprintf(stderr, "net_loadgen: cannot build %s\n", kFilterName);
      return 2;
    }
    net::ServerOptions server_options;
    server_options.num_loops = config.server_threads.front();
    server = std::make_unique<net::MembershipServer>(service, server_options);
    if (!server->Start()) {
      std::fprintf(stderr, "net_loadgen: server start failed: %s\n",
                   server->error().c_str());
      return 1;
    }
    client_options.port = server->port();
    std::printf("net_loadgen: self-hosted %s on 127.0.0.1:%u (%u loop%s)\n",
                kFilterName, client_options.port,
                server->num_loops(),
                server->num_loops() == 1 ? "" : "s");
  } else {
    const size_t colon = config.connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "net_loadgen: --connect wants host:port\n");
      return 2;
    }
    client_options.host = config.connect.substr(0, colon);
    client_options.port = static_cast<uint16_t>(
        std::atoi(config.connect.c_str() + colon + 1));
    std::printf("net_loadgen: connecting to %s:%u\n",
                client_options.host.c_str(), client_options.port);
  }

  bench::BenchRunner runner("net_loadgen", options);
  net::MembershipClient control(client_options);
  net::WireStats before;
  if (!control.Connect() || !control.Stats(&before)) {
    std::fprintf(stderr, "net_loadgen: cannot reach server: %s\n",
                 control.error().c_str());
    return 1;
  }
  std::printf("net_loadgen: server filter %s (capacity %" PRIu64
              ", %zu shards)\n",
              before.filter_name.c_str(), before.capacity,
              before.shards.size());

  // --- insert phase (one connection; batch-per-RPC chunks) ------------------
  bench::PhaseStats insert_stats;
  {
    std::vector<double> chunk_ns;
    bench::Timer total;
    for (size_t base = 0; base < insert_keys.size(); base += config.batch) {
      const size_t count = std::min(config.batch, insert_keys.size() - base);
      uint64_t failures = 0;
      bench::Timer chunk;
      if (!control.InsertBatch(insert_keys.data() + base, count, &failures)) {
        std::fprintf(stderr, "net_loadgen: insert failed: %s\n",
                     control.error().c_str());
        return 1;
      }
      chunk_ns.push_back(chunk.Seconds() * 1e9 / static_cast<double>(count));
      insert_stats.failures += failures;
    }
    insert_stats.seconds = total.Seconds();
    insert_stats.ops = insert_keys.size();
    bench::internal::FillPercentiles(chunk_ns, &insert_stats);
  }
  {
    prefixfilter::json::Value metrics = bench::PhaseMetrics(insert_stats,
                                                            "insert");
    metrics.Set("insert_failures", insert_stats.failures);
    metrics.Set("connections", 1);
    metrics.Set("batch_keys", static_cast<uint64_t>(config.batch));
    std::printf("  insert            %8.2f Mops/s  p50 %7.0f ns/op  "
                "p99 %7.0f ns/op  (%" PRIu64 " rejected)\n",
                insert_stats.Mops(), insert_stats.ns_p50, insert_stats.ns_p99,
                insert_stats.failures);
    runner.Add(before.filter_name, "net-insert", std::move(metrics));
  }

  // --- query phases ---------------------------------------------------------
  bool failed = false;
  uint64_t total_queried = 0;
  for (size_t w = 0; w < streams.size(); ++w) {
    const workload::Stream& stream = streams[w];
    const int threads =
        static_cast<int>(std::min<size_t>(config.connections,
                                          std::max<size_t>(1, stream.queries.size() /
                                                                  config.batch)));
    std::vector<WorkerResult> results(threads);
    std::vector<std::thread> pool;
    const size_t per_thread = stream.queries.size() / threads;
    bench::Timer wall;
    for (int t = 0; t < threads; ++t) {
      const size_t begin = t * per_thread;
      const size_t end =
          t == threads - 1 ? stream.queries.size() : begin + per_thread;
      pool.emplace_back(RunQuerySlice, client_options, std::cref(stream),
                        begin, end, &results[t]);
    }
    for (auto& th : pool) th.join();
    const double seconds = wall.Seconds();

    bench::PhaseStats query_stats;
    uint64_t false_negatives = 0, false_positives = 0, negatives = 0;
    uint64_t frames_traced = 0;
    std::vector<double> chunk_ns;
    for (const WorkerResult& r : results) {
      if (!r.ok) {
        std::fprintf(stderr, "net_loadgen: %s: connection failed: %s\n",
                     stream.spec.name.c_str(), r.error.c_str());
        failed = true;
      }
      query_stats.ops += r.keys;
      false_negatives += r.false_negatives;
      false_positives += r.false_positives;
      negatives += r.negatives;
      frames_traced += r.frames_traced;
      chunk_ns.insert(chunk_ns.end(), r.chunk_ns.begin(), r.chunk_ns.end());
    }
    query_stats.seconds = seconds;
    bench::internal::FillPercentiles(chunk_ns, &query_stats);
    total_queried += query_stats.ops;
    if (false_negatives != 0) {
      std::fprintf(stderr, "net_loadgen: %s: %" PRIu64
                   " FALSE NEGATIVES over the wire\n",
                   stream.spec.name.c_str(), false_negatives);
      failed = true;
    }
    if (query_stats.Mops() <= 0.0) {
      std::fprintf(stderr, "net_loadgen: %s: zero throughput\n",
                   stream.spec.name.c_str());
      failed = true;
    }

    prefixfilter::json::Value metrics =
        bench::PhaseMetrics(query_stats, "query");
    metrics.Set("fpr", negatives > 0 ? static_cast<double>(false_positives) /
                                           static_cast<double>(negatives)
                                     : 0.0);
    metrics.Set("false_negatives", false_negatives);
    metrics.Set("connections", threads);
    metrics.Set("batch_keys", static_cast<uint64_t>(config.batch));
    metrics.Set("pipeline_depth", static_cast<uint64_t>(config.depth));
    if (config.trace_sample > 0) {
      metrics.Set("frames_traced", frames_traced);
    }
    std::printf("  %-17s %8.2f Mops/s  p50 %7.0f ns/op  p99 %7.0f ns/op"
                "  fpr %.5f%%  (%d conns)\n",
                stream.spec.name.c_str(), query_stats.Mops(),
                query_stats.ns_p50, query_stats.ns_p99,
                100.0 * metrics.GetDouble("fpr"), threads);
    runner.Add(before.filter_name, stream.spec.name, std::move(metrics));
  }

  // --- STATS verification ---------------------------------------------------
  net::WireStats after;
  if (!control.Stats(&after)) {
    std::fprintf(stderr, "net_loadgen: final STATS failed: %s\n",
                 control.error().c_str());
    return 1;
  }
  const uint64_t shard_delta = net::SumShards(after.shards).queries -
                               net::SumShards(before.shards).queries;
  if (shard_delta < total_queried) {
    std::fprintf(stderr,
                 "net_loadgen: shard counters grew by %" PRIu64 " for %" PRIu64
                 " queried keys — traffic bypassed the BatchRouter path\n",
                 shard_delta, total_queried);
    failed = true;
  }
  std::printf("net_loadgen: %" PRIu64 " keys over %zu shards "
              "(%" PRIu64 " shard queries)\n",
              total_queried, after.shards.size(), shard_delta);
  uint64_t batches_before = 0, batches_after = 0;
  if (net::ServiceBatches(before, "query", &batches_before) &&
      net::ServiceBatches(after, "query", &batches_after)) {
    std::printf("net_loadgen: %" PRIu64 " query batches served\n",
                batches_after - batches_before);
  }

  // --- server-side telemetry ------------------------------------------------
  // The final STATS carries the server's whole metrics registry: the
  // per-opcode latency histograms and queue-wait percentiles measured ON the
  // server, the other side of the client-observed ns/op above.  Emitted as
  // an extra prefixfilter-bench-v1 row so perf history tracks server-side
  // latency too.  Skipped silently against PF_OBS=OFF servers.
  if (!after.metrics.empty()) {
    prefixfilter::json::Value metrics = prefixfilter::json::Value::MakeObject();
    const auto hist_row = [&metrics, &after](const char* metric_name,
                                             const char* label_key,
                                             const char* label_value,
                                             const char* out_prefix) {
      const prefixfilter::obs::MetricSample* s = prefixfilter::obs::FindSample(
          after.metrics, metric_name, label_key, label_value);
      if (s == nullptr || s->hist.count == 0) return;
      const std::string p(out_prefix);
      metrics.Set(p + "_count", s->hist.count);
      metrics.Set(p + "_mean_ns", s->hist.Mean());
      metrics.Set(p + "_ns_p50", s->hist.Percentile(0.50));
      metrics.Set(p + "_ns_p90", s->hist.Percentile(0.90));
      metrics.Set(p + "_ns_p99", s->hist.Percentile(0.99));
    };
    hist_row("net.server.request.ns", "op", "query", "server_query");
    hist_row("net.server.request.ns", "op", "insert", "server_insert");
    hist_row("service.queue.wait.ns", "", "", "server_queue_wait");
    hist_row("net.server.merge.frames", "", "", "server_merge_frames");
    const prefixfilter::obs::MetricSample* bytes_in = prefixfilter::obs::
        FindSample(after.metrics, "net.server.bytes.in");
    const prefixfilter::obs::MetricSample* bytes_out = prefixfilter::obs::
        FindSample(after.metrics, "net.server.bytes.out");
    if (bytes_in != nullptr) metrics.Set("server_bytes_in", bytes_in->value);
    if (bytes_out != nullptr) {
      metrics.Set("server_bytes_out", bytes_out->value);
    }
    const prefixfilter::obs::MetricSample* query_hist =
        prefixfilter::obs::FindSample(after.metrics, "net.server.request.ns",
                                      "op", "query");
    if (query_hist != nullptr && query_hist->hist.count != 0) {
      std::printf("net_loadgen: server-side query batches: p50 %.0f ns  "
                  "p99 %.0f ns  (%" PRIu64 " merged batches, %zu series "
                  "scraped)\n",
                  query_hist->hist.Percentile(0.50),
                  query_hist->hist.Percentile(0.99), query_hist->hist.count,
                  after.metrics.size());
    }
    runner.Add(before.filter_name, "server-metrics", std::move(metrics));
  }

  // --- tracing overhead A/B (--trace-sample, self-host only) ----------------
  // Two passes over the first workload against the already-loaded server:
  // untraced clients, then clients sampling at the configured rate.  The
  // delta is the whole cost of tracing at that rate — context encoding and
  // server-side span capture — emitted as one trace-overhead
  // row (informational, not gated: loopback A/Bs are noisy).
  if (config.connect.empty() && config.trace_sample > 0) {
    const workload::Stream& stream = streams.front();
    const int threads = std::max(1, config.connections);
    const size_t per_thread = stream.queries.size() / threads;
    double pass_mops[2] = {0.0, 0.0};
    uint64_t ab_frames_traced = 0;
    for (int pass = 0; pass < 2; ++pass) {
      net::ClientOptions ab_options = client_options;
      ab_options.trace_sample_rate = pass == 0 ? 0.0 : config.trace_sample;
      std::vector<WorkerResult> results(threads);
      std::vector<std::thread> pool;
      bench::Timer wall;
      for (int t = 0; t < threads; ++t) {
        const size_t begin = t * per_thread;
        const size_t end =
            t == threads - 1 ? stream.queries.size() : begin + per_thread;
        pool.emplace_back(RunQuerySlice, ab_options, std::cref(stream),
                          begin, end, &results[t]);
      }
      for (auto& th : pool) th.join();
      const double seconds = wall.Seconds();
      bench::PhaseStats ab_stats;
      for (const WorkerResult& r : results) {
        if (!r.ok) {
          std::fprintf(stderr, "net_loadgen: trace A/B worker failed: %s\n",
                       r.error.c_str());
          failed = true;
        }
        ab_stats.ops += r.keys;
        if (pass == 1) ab_frames_traced += r.frames_traced;
      }
      ab_stats.seconds = seconds;
      pass_mops[pass] = ab_stats.Mops();
    }
    const double overhead_pct =
        pass_mops[1] > 0.0
            ? 100.0 * (pass_mops[0] - pass_mops[1]) / pass_mops[0]
            : 0.0;
    prefixfilter::json::Value metrics = prefixfilter::json::Value::MakeObject();
    metrics.Set("sample_rate", config.trace_sample);
    metrics.Set("baseline_mops", pass_mops[0]);
    metrics.Set("traced_mops", pass_mops[1]);
    metrics.Set("overhead_pct", overhead_pct);
    metrics.Set("frames_traced", ab_frames_traced);
    std::printf("  trace-overhead    base %8.2f Mops/s  sampled %8.2f "
                "Mops/s  (%.1f%% overhead at rate %.4f, %" PRIu64
                " traced frames)\n",
                pass_mops[0], pass_mops[1], overhead_pct, config.trace_sample,
                ab_frames_traced);
    runner.Add(before.filter_name, "trace-overhead", std::move(metrics));
  }

  // --- multi-loop scaling sweep (--server-threads=CSV, self-host only) ------
  // One fresh server per loop count, loaded and queried identically, so the
  // emitted rows isolate event-loop scaling: `net-scaling,loops=N` with
  // query_mops and speedup_vs_1loop, the same row style service_scaling uses
  // for its worker-thread sweep.  The ISSUE/CI acceptance bar (≥2.5x at 4
  // loops vs 1 on multi-core hardware) reads these rows.
  if (config.connect.empty() && config.server_threads.size() > 1) {
    const workload::Stream& stream = streams.front();
    double base_mops = 0.0;
    std::printf("net_loadgen: scaling sweep over %zu loop counts "
                "(%s, %d conns)\n",
                config.server_threads.size(), stream.spec.name.c_str(),
                config.connections);
    for (const uint32_t loops : config.server_threads) {
      prefixfilter::FilterServiceOptions sweep_service_options;
      sweep_service_options.num_threads = config.service_threads;
      auto sweep_service = prefixfilter::MakeFilterService(
          kFilterName, n, sweep_service_options, options.seed);
      net::ServerOptions sweep_server_options;
      sweep_server_options.num_loops = loops;
      net::MembershipServer sweep_server(sweep_service, sweep_server_options);
      if (!sweep_server.Start()) {
        std::fprintf(stderr, "net_loadgen: sweep server (loops=%u) failed: %s\n",
                     loops, sweep_server.error().c_str());
        failed = true;
        break;
      }
      net::ClientOptions sweep_client_options = client_options;
      sweep_client_options.port = sweep_server.port();

      net::MembershipClient loader(sweep_client_options);
      bool loaded = loader.Connect();
      for (size_t base = 0; loaded && base < insert_keys.size();
           base += config.batch) {
        const size_t count = std::min(config.batch, insert_keys.size() - base);
        uint64_t failures = 0;
        loaded = loader.InsertBatch(insert_keys.data() + base, count,
                                    &failures);
      }
      if (!loaded) {
        std::fprintf(stderr, "net_loadgen: sweep insert (loops=%u) failed: "
                     "%s\n", loops, loader.error().c_str());
        failed = true;
        continue;
      }

      const int threads = std::max(1, config.connections);
      std::vector<WorkerResult> results(threads);
      std::vector<std::thread> pool;
      const size_t per_thread = stream.queries.size() / threads;
      bench::Timer wall;
      for (int t = 0; t < threads; ++t) {
        const size_t begin = t * per_thread;
        const size_t end =
            t == threads - 1 ? stream.queries.size() : begin + per_thread;
        pool.emplace_back(RunQuerySlice, sweep_client_options,
                          std::cref(stream), begin, end, &results[t]);
      }
      for (auto& th : pool) th.join();
      const double seconds = wall.Seconds();

      bench::PhaseStats sweep_stats;
      std::vector<double> chunk_ns;
      for (const WorkerResult& r : results) {
        if (!r.ok || r.false_negatives != 0) {
          std::fprintf(stderr,
                       "net_loadgen: sweep (loops=%u): worker failed: %s\n",
                       loops, r.error.c_str());
          failed = true;
        }
        sweep_stats.ops += r.keys;
        chunk_ns.insert(chunk_ns.end(), r.chunk_ns.begin(), r.chunk_ns.end());
      }
      sweep_stats.seconds = seconds;
      bench::internal::FillPercentiles(chunk_ns, &sweep_stats);
      if (base_mops == 0.0) base_mops = sweep_stats.Mops();
      const double speedup =
          base_mops > 0.0 ? sweep_stats.Mops() / base_mops : 0.0;

      prefixfilter::json::Value metrics =
          bench::PhaseMetrics(sweep_stats, "query");
      metrics.Set("loops", static_cast<uint64_t>(sweep_server.num_loops()));
      metrics.Set("connections", static_cast<uint64_t>(threads));
      metrics.Set("speedup_vs_1loop", speedup);
      std::printf("  loops=%-2u          %8.2f Mops/s  p50 %7.0f ns/op  "
                  "speedup %.2fx\n",
                  loops, sweep_stats.Mops(), sweep_stats.ns_p50, speedup);
      runner.Add(before.filter_name,
                 "net-scaling,loops=" + std::to_string(loops),
                 std::move(metrics));
      sweep_server.Stop();
    }
  }

  if (server != nullptr) {
    const net::ServerStats stats = server->stats();
    if (stats.protocol_errors != 0) {
      std::fprintf(stderr, "net_loadgen: server counted %" PRIu64
                   " protocol errors\n",
                   stats.protocol_errors);
      failed = true;
    }
    std::printf("net_loadgen: server saw %" PRIu64 " frames on %" PRIu64
                " connections, merged %" PRIu64 " pipelined query frames\n",
                stats.frames_received, stats.connections_accepted,
                stats.query_frames_merged);
  }

  if (!runner.WriteJsonIfRequested()) return 1;
  if (failed) return 1;
  std::printf("net_loadgen: OK\n");
  return 0;
}
