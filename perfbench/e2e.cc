#include "perfbench/e2e.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "src/util/random.h"

namespace perfbench {

namespace net = prefixfilter::net;
using prefixfilter::FilterService;

namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
// Shape of the verification pass (untimed, so as fast as the wire allows).
constexpr size_t kVerifyFrameKeys = 4096;
constexpr size_t kVerifyDepth = 8;
// The timed phase's statistics are medians over equal windows: as many as
// give the windows kMinWindowCalls calls on average (so a window's p90 has
// about a hundred samples beyond it), at most kMaxWindows.
constexpr size_t kMinWindowCalls = 1000;
constexpr size_t kMaxWindows = 40;

std::string Format(const char* fmt, uint64_t a, uint64_t b) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

// Every request frame this client sent got exactly one response.
void CheckClient(const net::MembershipClient& client, const char* where,
                 Report* report) {
  if (client.frames_sent() != client.frames_received()) {
    report->Violation(std::string(where) +
                      Format(": %" PRIu64 " request frames, %" PRIu64
                             " responses",
                             client.frames_sent(), client.frames_received()));
  }
  if (client.remote_errors() != 0) {
    report->Violation(std::string(where) + ": error frames: " + client.error());
  }
}

// Server-side accounting once every client call has returned.
void CheckServer(const net::MembershipServer& server, const char* where,
                 Report* report) {
  const net::ServerStats s = server.stats();
  if (s.protocol_errors != 0 || s.connections_dropped != 0) {
    report->Violation(std::string(where) +
                      Format(": server saw %" PRIu64
                             " protocol errors, dropped %" PRIu64
                             " connections",
                             s.protocol_errors, s.connections_dropped));
  }
  if (s.frames_received != s.frames_sent) {
    report->Violation(std::string(where) +
                      Format(": server received %" PRIu64
                             " frames but answered %" PRIu64,
                             s.frames_received, s.frames_sent));
  }
}

uint64_t ShardQueries(uint16_t port, Report* report) {
  net::MembershipClient control(ClientFor(port, kVerifyFrameKeys, 1));
  net::WireStats stats;
  if (!control.Connect() || !control.Stats(&stats)) {
    report->Violation("STATS failed: " + control.error());
    return 0;
  }
  uint64_t total = 0;
  for (const auto& shard : stats.shards) total += shard.queries;
  return total;
}

void CheckShardGrowth(uint64_t before, uint64_t after, uint64_t queried,
                      Report* report) {
  if (after - before < queried) {
    report->Violation(Format("shard query counters grew by %" PRIu64
                             " for %" PRIu64 " keys queried",
                             after - before, queried));
  }
}

double BitsPerKey(const FilterService& service, uint64_t n) {
  return 8.0 * static_cast<double>(service.filter().SpaceBytes()) /
         static_cast<double>(n);
}

uint64_t FalsePositives(const Inputs& in, const std::vector<uint8_t>& answers) {
  uint64_t fp = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    fp += (in.expected[i] == 0 && answers[i] != 0);
  }
  return fp;
}

// Inserts every key over one connection in kInsertKeys batches; returns the
// seconds it took.
double Preload(uint16_t port, const Inputs& in, uint64_t* failed,
               Report* report) {
  net::MembershipClient client(ClientFor(port, kInsertKeys, 1));
  const uint64_t start = NowNs();
  if (!client.Connect()) {
    report->Violation("preload connect failed: " + client.error());
    *failed += in.n;
    return SecondsSince(start);
  }
  for (size_t base = 0; base < in.n; base += kInsertKeys) {
    const size_t count = std::min<size_t>(kInsertKeys, in.n - base);
    uint64_t rejected = 0;
    if (!client.InsertBatch(&in.insert_keys[base], count, &rejected)) {
      report->Violation("preload InsertBatch failed: " + client.error());
      *failed += in.n - base;
      break;
    }
    if (rejected != 0) {
      report->Violation(Format("preload: %" PRIu64 " of %" PRIu64
                               " inserts rejected",
                               rejected, count));
      *failed += rejected;
    }
  }
  const double seconds = SecondsSince(start);
  CheckClient(client, "preload", report);
  return seconds;
}

// The p99 is printed for reading, not reported: on a shared host it follows
// the neighbours' load more than the program (README "Why p90 and not p99").
void PrintP99(double p99_us) {
  std::printf("perfbench: %-34s %14.6f us (informational, not a metric)\n",
              "rtt_p99_us", p99_us);
}

void TimingMetrics(const CallStats& timed, Report* report) {
  const size_t windows = std::clamp<size_t>(timed.calls / kMinWindowCalls, 1,
                                            kMaxWindows);
  const WindowedStats w = Windowed(timed, windows);
  std::printf("perfbench: %" PRIu64 " calls in %.3f s (%.3f Mkeys/s overall); "
              "statistics are medians over %zu windows of %.3f s, each with "
              ">= %zu rtt samples\n",
              timed.calls, timed.seconds, timed.MkeysPerSecond(), windows,
              timed.seconds / static_cast<double>(windows), w.min_calls);
  report->Metric("query_mkeys_per_s", w.mkeys_per_s, "Mkeys/s");
  report->Metric("rtt_p50_us", w.rtt_p50_us, "us");
  report->Metric("rtt_p90_us", w.rtt_p90_us, "us");
  PrintP99(w.rtt_p99_us);
}

double WarmSeconds(double seconds) {
  return std::clamp(seconds * 0.1, 0.2, 1.0);
}

void RunWire(const Config& config, const Inputs& in, Report* report) {
  const WorkloadDef& def = config.def;
  std::vector<double> setup_s, insert_rate;
  uint64_t preload_failed = 0;
  Server live;
  for (int i = 0; i < kSetupRepeats; ++i) {
    live = Server{};  // the previous server stops before the next is timed
    const uint64_t start = NowNs();
    Server s = StartServer(in.n, report);
    const double load_s = Preload(s.port(), in, &preload_failed, report);
    setup_s.push_back(SecondsSince(start));
    insert_rate.push_back(static_cast<double>(in.n) / load_s / 1e6);
    live = std::move(s);
  }
  report->CountOps(kSetupRepeats * in.n, preload_failed);

  std::vector<uint8_t> reference;
  const uint64_t fp = WireVerifyPass(live.port(), in, &reference, report);
  const CallStats warm = WireQueryPhase(live.port(), def, in, reference,
                                        WarmSeconds(config.seconds), nullptr,
                                        report);
  report->CountOps(in.queries.size() + warm.keys, warm.failed_keys);

  const uint64_t shards_before = ShardQueries(live.port(), report);
  const CallStats timed = WireQueryPhase(live.port(), def, in, reference,
                                         config.seconds, nullptr, report);
  CheckShardGrowth(shards_before, ShardQueries(live.port(), report),
                   timed.keys, report);
  CheckServer(*live.server, def.name, report);
  report->CountOps(timed.keys, timed.failed_keys);

  report->Metric("setup_s", Median(setup_s), "s");
  TimingMetrics(timed, report);
  report->Metric("insert_mkeys_per_s", Median(insert_rate), "Mkeys/s");
  report->Metric("fpr",
                 static_cast<double>(fp) / static_cast<double>(in.negatives),
                 "frac");
  report->Metric("bits_per_key", BitsPerKey(*live.service, in.n), "bits/key");
}

void RunBuildAndQuery(const Config& config, const Inputs& in,
                      Report* report) {
  const std::vector<size_t> pool = NegativePool(in);
  // The untimed warm cycle fixes the false-positive count every later
  // cycle must reproduce.
  const CycleStats warm = BuildAndQueryCycle(config, in, pool, 0, nullptr,
                                             report);
  report->CountOps(warm.inserted + warm.queries.keys + in.queries.size(),
                   warm.failed_inserts + warm.queries.failed_keys);
  std::vector<CycleStats> cycles;
  const uint64_t start = NowNs();
  do {
    cycles.push_back(BuildAndQueryCycle(config, in, pool, cycles.size() + 1,
                                        nullptr, report));
  } while (SecondsSince(start) < config.seconds);

  std::vector<double> setup_s, query_rate, insert_rate;
  CallStats all;
  for (size_t i = 0; i < cycles.size(); ++i) {
    const CycleStats& c = cycles[i];
    if (c.false_positives != warm.false_positives) {
      report->Violation(Format("cycle %" PRIu64 ": %" PRIu64
                               " false positives",
                               i + 1, c.false_positives) +
                        ", the warm cycle had " +
                        std::to_string(warm.false_positives) +
                        " (fpr not reproducible)");
    }
    setup_s.push_back(c.setup_s);
    query_rate.push_back(c.queries.MkeysPerSecond());
    insert_rate.push_back(static_cast<double>(c.inserted) / c.fill_s / 1e6);
    all.Add(c.queries);
    report->CountOps(c.inserted + c.queries.keys + in.queries.size(),
                     c.failed_inserts + c.queries.failed_keys);
  }
  // Latency percentiles per run of about kMinWindowCalls consecutive calls,
  // median over the runs: the robustness the time windows give the other
  // workloads, without the gaps between cycles.
  const size_t runs =
      std::max<size_t>(1, all.rtt_us.size() / kMinWindowCalls);
  const size_t per_run = all.rtt_us.size() / runs;
  std::vector<double> p50, p90, p99;
  for (size_t r = 0; r < runs; ++r) {
    const auto begin = all.rtt_us.begin() + r * per_run;
    std::vector<float> chunk(
        begin, r + 1 == runs ? all.rtt_us.end() : begin + per_run);
    p50.push_back(Percentile(chunk, 0.50));
    p90.push_back(Percentile(chunk, 0.90));
    p99.push_back(Percentile(chunk, 0.99));
  }
  std::printf("perfbench: %zu build-and-query cycles, %" PRIu64
              " query calls; latency statistics are medians over %zu runs of "
              "%zu calls\n",
              cycles.size(), all.calls, runs, per_run);
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("query_mkeys_per_s", Median(query_rate), "Mkeys/s");
  report->Metric("rtt_p50_us", Median(p50), "us");
  report->Metric("rtt_p90_us", Median(p90), "us");
  PrintP99(Median(p99));
  report->Metric("insert_mkeys_per_s", Median(insert_rate), "Mkeys/s");
  report->Metric("fpr",
                 static_cast<double>(warm.false_positives) /
                     static_cast<double>(in.negatives),
                 "frac");
  report->Metric("bits_per_key", cycles.back().bits_per_key, "bits/key");
}

void RunInprocLarge(const Config& config, const Inputs& in, Report* report) {
  const WorkloadDef& def = config.def;
  prefixfilter::FilterServiceOptions options;
  options.num_threads = 0;  // embedded: batches run on the calling thread
  std::vector<double> setup_s;
  std::shared_ptr<FilterService> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    const uint64_t start = NowNs();
    service = prefixfilter::MakeFilterService(kFilterName, in.n, options);
    setup_s.push_back(SecondsSince(start));
  }

  const uint64_t build_start = NowNs();
  uint64_t rejected = 0;
  for (size_t base = 0; base < in.n; base += kInsertKeys) {
    const size_t count = std::min<size_t>(kInsertKeys, in.n - base);
    rejected += service->InsertBatchSync(&in.insert_keys[base], count);
  }
  const double build_s = SecondsSince(build_start);
  if (rejected != 0) {
    report->Violation(Format("build: %" PRIu64 " of %" PRIu64
                             " inserts rejected",
                             rejected, in.n));
  }
  report->CountOps(in.n, rejected);

  // The verification pass doubles as the untimed warm pass.
  std::vector<uint8_t> reference(in.queries.size());
  for (size_t base = 0; base < in.queries.size(); base += def.frame_keys) {
    const size_t count = std::min(def.frame_keys, in.queries.size() - base);
    service->QueryBatchSync(&in.queries[base], count, &reference[base]);
  }
  CheckAnswers(in, 0, reference.data(), reference.size(), nullptr,
               "the verification pass", report);
  const uint64_t fp = FalsePositives(in, reference);

  const uint64_t shards_before = service->filter().TotalStats().queries;
  const CallStats timed = InprocQueryPhase(*service, def, in, reference,
                                           config.seconds, nullptr, report);
  CheckShardGrowth(shards_before, service->filter().TotalStats().queries,
                   timed.keys, report);
  report->CountOps(in.queries.size() + timed.keys, 0);

  report->Metric("setup_s", Median(setup_s), "s");
  TimingMetrics(timed, report);
  report->Metric("insert_mkeys_per_s",
                 static_cast<double>(in.n) / build_s / 1e6, "Mkeys/s");
  report->Metric("fpr",
                 static_cast<double>(fp) / static_cast<double>(in.negatives),
                 "frac");
  report->Metric("bits_per_key", BitsPerKey(*service, in.n), "bits/key");
}

}  // namespace

net::ClientOptions ClientFor(uint16_t port, size_t frame_keys, size_t depth) {
  net::ClientOptions options;
  options.port = port;
  options.max_batch_keys = frame_keys;
  options.pipeline_depth = depth;
  options.auto_reconnect = false;
  return options;
}

void CallStats::Add(const CallStats& other) {
  calls += other.calls;
  keys += other.keys;
  failed_keys += other.failed_keys;
  seconds += other.seconds;
  rtt_us.insert(rtt_us.end(), other.rtt_us.begin(), other.rtt_us.end());
  done_us.insert(done_us.end(), other.done_us.begin(), other.done_us.end());
}

WindowedStats Windowed(const CallStats& stats, size_t windows) {
  const double window_us = stats.seconds * 1e6 / static_cast<double>(windows);
  const double keys_per_call =
      stats.calls == 0 ? 0.0
                       : static_cast<double>(stats.keys) /
                             static_cast<double>(stats.calls);
  std::vector<std::vector<float>> rtt(windows);
  for (size_t i = 0; i < stats.done_us.size(); ++i) {
    const size_t w = static_cast<size_t>(stats.done_us[i] / window_us);
    rtt[std::min(w, windows - 1)].push_back(stats.rtt_us[i]);
  }
  WindowedStats out;
  out.min_calls = ~size_t{0};
  std::vector<double> rate, p50, p90, p99;
  for (std::vector<float>& calls : rtt) {
    out.min_calls = std::min(out.min_calls, calls.size());
    rate.push_back(static_cast<double>(calls.size()) * keys_per_call /
                   window_us);
    p50.push_back(Percentile(calls, 0.50));
    p90.push_back(Percentile(calls, 0.90));
    p99.push_back(Percentile(calls, 0.99));
  }
  out.mkeys_per_s = Median(rate);
  out.rtt_p50_us = Median(p50);
  out.rtt_p90_us = Median(p90);
  out.rtt_p99_us = Median(p99);
  return out;
}

Server StartServer(uint64_t capacity, Report* report) {
  prefixfilter::FilterServiceOptions options;
  options.num_threads = kServiceWorkers;
  Server s;
  s.service = prefixfilter::MakeFilterService(kFilterName, capacity, options);
  s.server = std::make_unique<net::MembershipServer>(s.service);
  if (!s.server->Start()) {
    report->Violation("server start failed: " + s.server->error());
    report->Print();
    std::_Exit(1);  // earlier servers' threads may still run; skip teardown
  }
  return s;
}

uint64_t WireVerifyPass(uint16_t port, const Inputs& in,
                        std::vector<uint8_t>* answers, Report* report) {
  net::MembershipClient client(ClientFor(port, kVerifyFrameKeys,
                                         kVerifyDepth));
  if (!client.Connect() ||
      !client.QueryPipelined(in.queries.data(), in.queries.size(), answers)) {
    report->Violation("verification pass failed: " + client.error());
    answers->assign(in.queries.size(), 0);
    return 0;
  }
  CheckClient(client, "verification pass", report);
  CheckAnswers(in, 0, answers->data(), answers->size(), nullptr,
               "the verification pass", report);
  return FalsePositives(in, *answers);
}

CallStats WireQueryPhase(uint16_t port, const WorkloadDef& def,
                         const Inputs& in,
                         const std::vector<uint8_t>& reference,
                         double seconds, Tracer* tracer, Report* report) {
  const size_t conns = static_cast<size_t>(kWireConnections);
  const size_t q = in.queries.size();
  const size_t call_keys = def.frame_keys * def.depth;
  std::vector<CallStats> per(conns);
  std::vector<SpanLog*> logs(conns, nullptr);
  if (tracer != nullptr) {
    for (SpanLog*& log : logs) log = tracer->NewLog();
  }
  const uint64_t start = NowNs();
  for (CallStats& p : per) p.start_ns = start;
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      CallStats& out = per[t];
      net::MembershipClient client(ClientFor(port, def.frame_keys, def.depth));
      if (!client.Connect()) {
        report->Violation("connect failed: " + client.error());
        return;
      }
      std::vector<uint8_t> answers;
      size_t pos = q / conns * t / call_keys * call_keys;
      uint64_t request = t << 40;
      while (NowNs() < deadline) {
        const size_t count = std::min(call_keys, q - pos);
        const uint64_t t0 = NowNs();
        bool ok;
        {
          ScopedSpan span(logs[t], kClientCall, request++, count);
          ok = def.depth > 1
                   ? client.QueryPipelined(&in.queries[pos], count, &answers)
                   : client.QueryBatch(&in.queries[pos], count, &answers);
        }
        const uint64_t t1 = NowNs();
        ++out.calls;
        out.keys += count;
        if (!ok) {
          out.failed_keys += count;
          report->Violation("query call failed: " + client.error());
          break;
        }
        out.Record(t0, t1);
        CheckAnswers(in, pos, answers.data(), count, &reference,
                     "the timed phase", report);
        pos += count;
        if (pos >= q) pos = 0;
      }
      CheckClient(client, "timed phase", report);
    });
  }
  for (std::thread& thread : threads) thread.join();
  CallStats total;
  for (const CallStats& p : per) total.Add(p);
  total.start_ns = start;
  total.seconds = SecondsSince(start);
  return total;
}

std::vector<size_t> NegativePool(const Inputs& in) {
  std::vector<size_t> pool;
  for (size_t i = 0; i < in.expected.size(); ++i) {
    if (in.expected[i] == 0 || i == in.flipped) pool.push_back(i);
  }
  return pool;
}

CycleStats BuildAndQueryCycle(const Config& config, const Inputs& in,
                              const std::vector<size_t>& pool, uint64_t cycle,
                              Tracer* tracer, Report* report) {
  const WorkloadDef& def = config.def;
  CycleStats out;
  const uint64_t setup_start = NowNs();
  Server s = StartServer(in.n, report);
  out.setup_s = SecondsSince(setup_start);
  const uint16_t port = s.port();
  SpanLog* log = tracer != nullptr ? tracer->NewLog() : nullptr;

  std::atomic<size_t> acked{0};
  std::atomic<bool> done{false};
  std::thread inserter([&] {
    net::MembershipClient client(ClientFor(port, kInsertKeys, 1));
    const uint64_t start = NowNs();
    if (client.Connect()) {
      for (size_t base = 0; base < in.n; base += kInsertKeys) {
        const size_t count = std::min<size_t>(kInsertKeys, in.n - base);
        uint64_t rejected = 0;
        if (!client.InsertBatch(&in.insert_keys[base], count, &rejected)) {
          report->Violation("InsertBatch failed: " + client.error());
          out.failed_inserts += in.n - base;
          break;
        }
        if (rejected != 0) {
          report->Violation(Format("%" PRIu64 " of %" PRIu64
                                   " inserts rejected",
                                   rejected, count));
        }
        out.failed_inserts += rejected;
        out.inserted += count;
        acked.store(base + count, std::memory_order_release);
      }
    } else {
      report->Violation("insert connect failed: " + client.error());
      out.failed_inserts = in.n;
    }
    out.fill_s = SecondsSince(start);
    CheckClient(client, "build-and-query inserts", report);
    done.store(true, std::memory_order_release);
  });
  std::thread querier([&] {
    net::MembershipClient client(ClientFor(port, def.frame_keys, 1));
    const uint64_t start = NowNs();
    out.queries.start_ns = start;
    if (!client.Connect()) {
      report->Violation("query connect failed: " + client.error());
      return;
    }
    prefixfilter::Xoshiro256 rng(config.seed ^ (0xb0a7c0deULL + cycle));
    std::vector<uint64_t> keys(def.frame_keys);
    // Per key: Inputs::npos for an acknowledged insert, else its query index.
    std::vector<size_t> origin(def.frame_keys);
    std::vector<uint8_t> answers;
    uint64_t request = cycle << 40;
    CallStats& stats = out.queries;
    while (!done.load(std::memory_order_acquire)) {
      const size_t acknowledged = acked.load(std::memory_order_acquire);
      for (size_t i = 0; i < keys.size(); ++i) {
        if (acknowledged > 0 && (rng.Next() & 1) != 0) {
          keys[i] = in.insert_keys[rng.Below(acknowledged)];
          origin[i] = Inputs::npos;
        } else {
          origin[i] = pool[rng.Below(pool.size())];
          keys[i] = in.queries[origin[i]];
        }
      }
      const uint64_t t0 = NowNs();
      bool ok;
      {
        ScopedSpan span(log, kClientCall, request++, keys.size());
        ok = client.QueryBatch(keys.data(), keys.size(), &answers);
      }
      const uint64_t t1 = NowNs();
      ++stats.calls;
      stats.keys += keys.size();
      if (!ok) {
        stats.failed_keys += keys.size();
        report->Violation("QueryBatch failed: " + client.error());
        break;
      }
      stats.Record(t0, t1);
      for (size_t i = 0; i < keys.size(); ++i) {
        if (answers[i] != 0) continue;
        if (origin[i] == Inputs::npos) {
          report->Violation(Format("false negative: key 0x%016" PRIx64
                                   " answered absent after its insert was "
                                   "acknowledged (cycle %" PRIu64 ")",
                                   keys[i], cycle));
        } else if (in.expected[origin[i]] != 0) {
          report->Violation(
              Describe("false negative", in, origin[i], "build-and-query"));
        }
      }
    }
    stats.seconds = SecondsSince(start);
    CheckClient(client, "build-and-query queries", report);
  });
  inserter.join();
  querier.join();

  std::vector<uint8_t> answers;
  out.false_positives = WireVerifyPass(port, in, &answers, report);
  CheckShardGrowth(0, ShardQueries(port, report),
                   out.queries.keys + in.queries.size(), report);
  CheckServer(*s.server, "build-and-query", report);
  out.bits_per_key = BitsPerKey(*s.service, in.n);
  return out;
}

CallStats InprocQueryPhase(FilterService& service, const WorkloadDef& def,
                           const Inputs& in,
                           const std::vector<uint8_t>& reference,
                           double seconds, SpanLog* log, Report* report) {
  CallStats out;
  std::vector<uint8_t> answers(def.frame_keys);
  const size_t q = in.queries.size();
  size_t pos = 0;
  uint64_t request = 0;
  const uint64_t start = NowNs();
  out.start_ns = start;
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t t0 = start;
  while (t0 < deadline) {
    const size_t count = std::min(def.frame_keys, q - pos);
    {
      ScopedSpan span(log, kClientCall, request++, count);
      service.QueryBatchSync(&in.queries[pos], count, answers.data());
    }
    const uint64_t t1 = NowNs();
    ++out.calls;
    out.keys += count;
    out.Record(t0, t1);
    CheckAnswers(in, pos, answers.data(), count, &reference,
                 "the timed phase", report);
    pos += count;
    if (pos >= q) pos = 0;
    t0 = NowNs();
  }
  out.seconds = SecondsSince(start);
  return out;
}

void RunEndToEnd(const Config& config, const Inputs& in, Report* report) {
  switch (config.def.kind) {
    case Kind::kWireBulk:
    case Kind::kWireRpc:
      RunWire(config, in, report);
      break;
    case Kind::kBuildAndQuery:
      RunBuildAndQuery(config, in, report);
      break;
    case Kind::kInprocLarge:
      RunInprocLarge(config, in, report);
      break;
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
