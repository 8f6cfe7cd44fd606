// pf_stat: scrape and pretty-print a membership server's telemetry.
//
//   build/example_pf_stat --connect=HOST:PORT          one snapshot
//   build/example_pf_stat --connect=HOST:PORT --diff   two scrapes one
//       --interval apart, printed as interval rates/percentiles
//   build/example_pf_stat --connect=HOST:PORT --watch  scrape every
//       --interval seconds until interrupted, printing interval diffs
//
//   build/example_pf_stat --connect=HOST:PORT --traces  fetch the server's
//       retained request traces and print each span timeline
//
// One STATS round trip (src/net/protocol.h) returns the per-shard counters
// plus the server's whole metrics-registry snapshot.  Key and failure totals
// are the shard sums; batch counts come from the metrics (and are omitted
// when a PF_OBS=OFF server sends none).  --traces uses the TRACES opcode.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/net/membership_client.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace {

namespace net = prefixfilter::net;
namespace obs = prefixfilter::obs;

std::string LabelSuffix(const obs::MetricSample& s) {
  if (s.labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < s.labels.size(); ++i) {
    if (i != 0) out += ",";
    out += s.labels[i].first + "=" + s.labels[i].second;
  }
  out += "}";
  return out;
}

// cur - prev for cumulative histogram snapshots: interval percentiles come
// from the bucket-wise difference (both operands are monotone in time, so
// the difference is a valid histogram of the interval's samples).
obs::HistogramSnapshot DiffHist(const obs::HistogramSnapshot& cur,
                                const obs::HistogramSnapshot& prev) {
  obs::HistogramSnapshot d;
  size_t pi = 0;
  for (const auto& [index, count] : cur.buckets) {
    uint64_t base = 0;
    while (pi < prev.buckets.size() && prev.buckets[pi].first < index) ++pi;
    if (pi < prev.buckets.size() && prev.buckets[pi].first == index) {
      base = prev.buckets[pi].second;
    }
    if (count > base) d.buckets.emplace_back(index, count - base);
  }
  for (const auto& [index, count] : d.buckets) {
    d.count += count;
    (void)index;
  }
  d.sum = cur.sum >= prev.sum ? cur.sum - prev.sum : 0;
  if (!d.buckets.empty()) {
    d.min = obs::LatencyHistogram::BucketLowerBound(d.buckets.front().first);
    const uint32_t last = d.buckets.back().first;
    d.max = obs::LatencyHistogram::BucketLowerBound(last) +
            obs::LatencyHistogram::BucketWidth(last) - 1;
  }
  return d;
}

void PrintHistRow(const std::string& name, const obs::HistogramSnapshot& h) {
  if (h.count == 0) {
    std::printf("  %-44s (no samples)\n", name.c_str());
    return;
  }
  std::printf("  %-44s n=%-10" PRIu64
              " mean=%-10.0f p50=%-10.0f p90=%-10.0f p99=%-10.0f "
              "p999=%-10.0f max=%" PRIu64 "\n",
              name.c_str(), h.count, h.Mean(), h.Percentile(0.50),
              h.Percentile(0.90), h.Percentile(0.99), h.Percentile(0.999),
              h.max);
}

void PrintServiceSummary(const net::WireStats& w) {
  std::printf("service: %s  capacity=%" PRIu64 "  shards=%zu\n",
              w.filter_name.c_str(), w.capacity, w.shards.size());
  const net::WireShardStats totals = net::SumShards(w.shards);
  std::printf("  inserted=%" PRIu64 " (%" PRIu64 " failures)  queried=%" PRIu64
              "\n",
              totals.inserts, totals.insert_failures, totals.queries);
  uint64_t inserts = 0, queries = 0;
  if (net::ServiceBatches(w, "insert", &inserts) &&
      net::ServiceBatches(w, "query", &queries)) {
    std::printf("  batches: %" PRIu64 " insert, %" PRIu64 " query\n",
                inserts, queries);
  }
}

// Prints one scrape; `prev` (may be null) turns counters into interval
// deltas and histograms into interval distributions.
void PrintMetrics(const std::vector<obs::MetricSample>& cur,
                  const std::vector<obs::MetricSample>* prev,
                  double interval_s) {
  if (cur.empty()) {
    std::printf("metrics: (empty — server built with PF_OBS=OFF)\n");
    return;
  }
  std::printf("metrics (%zu series%s):\n", cur.size(),
              prev != nullptr ? ", interval values" : "");
  for (const obs::MetricSample& s : cur) {
    const std::string name = s.name + LabelSuffix(s);
    const obs::MetricSample* was =
        prev != nullptr
            ? obs::FindSample(*prev, s.name,
                              s.labels.empty() ? "" : s.labels[0].first,
                              s.labels.empty() ? "" : s.labels[0].second)
            : nullptr;
    switch (s.kind) {
      case obs::MetricKind::kCounter: {
        if (was != nullptr) {
          const int64_t delta = s.value - was->value;
          std::printf("  %-44s %" PRId64 "  (+%.0f/s)\n", name.c_str(),
                      s.value,
                      interval_s > 0 ? static_cast<double>(delta) / interval_s
                                     : 0.0);
        } else {
          std::printf("  %-44s %" PRId64 "\n", name.c_str(), s.value);
        }
        break;
      }
      case obs::MetricKind::kGauge:
        std::printf("  %-44s %" PRId64 " (gauge)\n", name.c_str(), s.value);
        break;
      case obs::MetricKind::kHistogram: {
        if (was != nullptr) {
          PrintHistRow(name, DiffHist(s.hist, was->hist));
        } else {
          PrintHistRow(name, s.hist);
        }
        break;
      }
    }
  }
}

// One trace as an indented span timeline, offsets relative to the trace
// start so a reader sees where the request's time actually went.
void PrintTrace(const obs::Trace& t) {
  const double total_us =
      static_cast<double>(t.end_ns - t.start_ns) / 1000.0;
  std::printf("  trace %016" PRIx64 "  op=%u loop=%u conn=%" PRIu64
              " keys=%u frames=%u  [%s%s]  total=%.1fus\n",
              t.trace_id, t.opcode, t.loop, t.conn_id, t.key_count, t.frames,
              t.sampled() ? "sampled" : "", t.slow() ? " slow" : "",
              total_us);
  if (t.spans_dropped != 0) {
    std::printf("    (%u spans dropped)\n", t.spans_dropped);
  }
  for (uint32_t i = 0; i < t.span_count && i < obs::kMaxTraceSpans; ++i) {
    const obs::TraceSpan& s = t.spans[i];
    const double offset_us =
        s.start_ns >= t.start_ns
            ? static_cast<double>(s.start_ns - t.start_ns) / 1000.0
            : 0.0;
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    std::printf("    %-12s +%-10.1f %10.1fus",
                obs::TraceStageName(static_cast<obs::TraceStage>(s.stage)),
                offset_us, dur_us);
    switch (static_cast<obs::TraceStage>(s.stage)) {
      case obs::TraceStage::kMerge:
        std::printf("  frames=%" PRIu64, s.detail);
        break;
      case obs::TraceStage::kShardProbe:
        std::printf("  shard=%" PRIu64 " keys=%" PRIu64, s.detail >> 32,
                    s.detail & 0xffffffffu);
        break;
      default:
        break;
    }
    std::printf("\n");
  }
}

int PrintTraces(net::MembershipClient& client) {
  std::vector<obs::Trace> traces;
  if (!client.Traces(&traces)) {
    std::fprintf(stderr, "TRACES failed: %s\n", client.error().c_str());
    return 1;
  }
  if (traces.empty()) {
    std::printf("traces: none retained (start the server with "
                "--trace-sample=RATE and/or --trace-slow-ms=MS)\n");
    return 0;
  }
  std::printf("traces: %zu retained (slow captures first)\n", traces.size());
  for (const obs::Trace& t : traces) PrintTrace(t);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  bool watch = false;
  bool diff = false;
  bool traces_mode = false;
  double interval_s = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--connect=", 0) == 0) {
      const std::string target = arg.substr(10);
      const size_t colon = target.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect wants HOST:PORT\n");
        return 2;
      }
      host = target.substr(0, colon);
      port = static_cast<uint16_t>(std::atoi(target.c_str() + colon + 1));
    } else if (arg == "--watch") {
      watch = true;
    } else if (arg == "--diff") {
      diff = true;
    } else if (arg == "--traces") {
      traces_mode = true;
    } else if (arg.rfind("--interval=", 0) == 0) {
      interval_s = std::atof(arg.c_str() + 11);
      if (interval_s <= 0) interval_s = 1.0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: example_pf_stat --connect=HOST:PORT "
                  "[--diff|--watch|--traces] [--interval=SECONDS]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 2;
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "missing --connect=HOST:PORT\n");
    return 2;
  }

  net::ClientOptions options;
  options.host = host;
  options.port = port;
  net::MembershipClient client(options);

  if (traces_mode) return PrintTraces(client);

  net::WireStats scrape;
  if (!client.Stats(&scrape)) {
    std::fprintf(stderr, "scrape failed: %s\n", client.error().c_str());
    return 1;
  }
  PrintServiceSummary(scrape);
  if (!watch && !diff) {
    PrintMetrics(scrape.metrics, nullptr, 0);
    return 0;
  }

  // --diff is one iteration of --watch.
  net::WireStats prev = std::move(scrape);
  do {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(interval_s));
    net::WireStats cur;
    if (!client.Stats(&cur)) {
      std::fprintf(stderr, "scrape failed: %s\n", client.error().c_str());
      return 1;
    }
    const net::WireShardStats now = net::SumShards(cur.shards);
    const net::WireShardStats was = net::SumShards(prev.shards);
    std::printf("--- +%.1fs: +%" PRIu64 " keys queried, +%" PRIu64
                " keys inserted, +%" PRIu64 " insert failures ---\n",
                interval_s, now.queries - was.queries,
                now.inserts - was.inserts,
                now.insert_failures - was.insert_failures);
    PrintMetrics(cur.metrics, &prev.metrics, interval_s);
    prev = std::move(cur);
  } while (watch);
  return 0;
}
