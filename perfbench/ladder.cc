#include "perfbench/ladder.h"

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "perfbench/alloc_count.h"
#include "perfbench/e2e.h"
#include "perfbench/spans.h"
#include "bench/harness.h"
#include "src/core/filter_factory.h"
#include "src/core/prefix_filter.h"
#include "src/core/spare.h"
#include "src/net/membership_client.h"
#include "src/net/membership_server.h"
#include "src/net/protocol.h"
#include "src/service/batch_router.h"
#include "src/service/filter_service.h"
#include "src/service/sharded_filter.h"

namespace perfbench {
namespace {

namespace net = prefixfilter::net;
using CoreFilter = prefixfilter::PrefixFilter<prefixfilter::SpareTcTraits>;

// Stored spans per name per thread; the rest only feed the aggregates.
constexpr size_t kKeepSpans = 2000;
// MakeFilter's default seed: core and anyfilter build the same filter, so
// their answers must agree bit for bit.
constexpr uint64_t kPfSeed = 42;
// Timed query phases sharing --seconds: core, anyfilter, shard, service
// sync, service async, codec, net, and two and a half for the end-to-end
// rounds behind trace.overhead_pct.
constexpr double kQueryPhases = 9.5;
// Untimed warm-up before each timed query phase.
constexpr double kWarmSeconds = 0.2;

// Every layer is driven through calls of one shape:
//   call(keys, n, out, log, request_id)
// answers keys[0..n) into out and opens its spans on `log`, which is null
// while warming up and during reference passes.
class Ladder {
 public:
  Ladder(const Config& config, const Inputs& in, Report* report)
      : config_(config),
        def_(config.def),
        in_(in),
        report_(report),
        tracer_(kKeepSpans),
        log_(tracer_.NewLog()),
        phase_s_(config.seconds / kQueryPhases) {}

  void Run();

 private:
  // Inserts every key in kInsertKeys batches, one span per call.
  template <typename Fn>
  void Inserts(SpanName name, const char* where, Fn&& insert_batch);
  // One untimed call-by-call pass over the whole stream: the reference
  // answers of a group of layers that share one filter.
  template <typename Fn>
  uint64_t ReferencePass(Fn&& call, std::vector<uint8_t>* answers,
                         const char* where);
  template <typename Fn>
  void Warm(size_t batch, Fn&& call);
  // phase_s_ of calls cycling the stream; returns the keys queried.
  template <typename Fn>
  uint64_t Timed(size_t batch, const std::vector<uint8_t>& reference,
                 const char* where, Fn&& call);

  void Core();
  void AnyFilterLayer();
  void Shard();
  void Service();
  void Codec();
  void Net();
  void TraceOverhead();
  void Emit();

  const Config& config_;
  const WorkloadDef& def_;
  const Inputs& in_;
  Report* report_;
  Tracer tracer_;
  SpanLog* log_;
  double phase_s_;
  uint64_t next_request_ = 1;

  std::vector<uint8_t> pf_answers_;     // core + anyfilter reference
  std::vector<uint8_t> shard_answers_;  // shard ... net reference
  double spare_insert_frac_ = 0;
  double spare_query_frac_ = 0;

  // Written by the service worker's completion callback; they outlive
  // service_, whose destruction joins the worker.
  std::atomic<uint64_t> async_done_ns_{0};
  std::vector<uint8_t> async_results_;
  std::shared_ptr<prefixfilter::FilterService> service_;

  uint64_t codec_frames_ = 0;
  uint64_t codec_keys_ = 0;
  uint64_t codec_wire_bytes_ = 0;

  std::unique_ptr<net::MembershipServer> server_;
  double net_allocs_per_frame_ = 0;
  double net_merged_frames_per_batch_ = 0;
  double net_backpressure_stalls_ = 0;
  double net_bytes_in_per_key_ = 0;
  double net_bytes_out_per_key_ = 0;

  double overhead_pct_ = 0;
};

template <typename Fn>
void Ladder::Inserts(SpanName name, const char* where, Fn&& insert_batch) {
  uint64_t rejected = 0;
  for (size_t base = 0; base < in_.n; base += kInsertKeys) {
    const size_t count = std::min<size_t>(kInsertKeys, in_.n - base);
    ScopedSpan span(log_, name, next_request_++, count);
    rejected += insert_batch(&in_.insert_keys[base], count);
  }
  if (rejected != 0) {
    report_->Violation(std::string(where) + ": " + std::to_string(rejected) +
                       " inserts rejected");
  }
  report_->CountOps(in_.n, rejected);
}

template <typename Fn>
uint64_t Ladder::ReferencePass(Fn&& call, std::vector<uint8_t>* answers,
                               const char* where) {
  const size_t q = in_.queries.size();
  answers->assign(q, 0);
  for (size_t base = 0; base < q; base += def_.frame_keys) {
    const size_t count = std::min(def_.frame_keys, q - base);
    call(&in_.queries[base], count, answers->data() + base, nullptr, 0);
  }
  CheckAnswers(in_, 0, answers->data(), q, nullptr, where, report_);
  report_->CountOps(q, 0);
  uint64_t fp = 0;
  for (size_t i = 0; i < q; ++i) fp += (in_.expected[i] == 0 && (*answers)[i]);
  return fp;
}

template <typename Fn>
void Ladder::Warm(size_t batch, Fn&& call) {
  std::vector<uint8_t> out(batch);
  const size_t q = in_.queries.size();
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(kWarmSeconds * 1e9);
  for (size_t pos = 0; pos < q && NowNs() < deadline; pos += batch) {
    call(&in_.queries[pos], std::min(batch, q - pos), out.data(), nullptr, 0);
  }
}

template <typename Fn>
uint64_t Ladder::Timed(size_t batch, const std::vector<uint8_t>& reference,
                       const char* where, Fn&& call) {
  std::vector<uint8_t> out(batch);
  const size_t q = in_.queries.size();
  size_t pos = 0;
  uint64_t keys = 0;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(phase_s_ * 1e9);
  while (NowNs() < deadline) {
    const size_t count = std::min(batch, q - pos);
    call(&in_.queries[pos], count, out.data(), log_, next_request_++);
    CheckAnswers(in_, pos, out.data(), count, &reference, where, report_);
    keys += count;
    pos += count;
    if (pos >= q) pos = 0;
  }
  report_->CountOps(keys, 0);
  return keys;
}

void Ladder::Core() {
  prefixfilter::PrefixFilterOptions options;
  options.seed = kPfSeed;
  auto filter = std::make_unique<CoreFilter>(in_.n, options);
  Inserts(kCoreInsert, "core", [&](const uint64_t* keys, size_t n) {
    uint64_t rejected = 0;
    for (size_t i = 0; i < n; ++i) rejected += !filter->Insert(keys[i]);
    return rejected;
  });
  spare_insert_frac_ = filter->stats().SpareInsertFraction();
  const auto call = [&](const uint64_t* keys, size_t n, uint8_t* out,
                        SpanLog* log, uint64_t request) {
    ScopedSpan span(log, kCoreQuery, request, n);
    prefixfilter::ContainsBatchOrScalar(*filter, keys, n, out);
  };
  // Exactly one pass over the stream: the spare-query fraction is an exact
  // count for the seed.
  filter->ResetQueryStats();
  ReferencePass(call, &pf_answers_, "core");
  spare_query_frac_ = filter->stats().SpareQueryFraction();
  Timed(def_.frame_keys, pf_answers_, "core", call);
}

void Ladder::AnyFilterLayer() {
  std::unique_ptr<prefixfilter::AnyFilter> filter =
      prefixfilter::MakeFilter("PF[TC]", in_.n, kPfSeed);
  Inserts(kAnyInsert, "anyfilter", [&](const uint64_t* keys, size_t n) {
    return filter->InsertBatch(keys, n);
  });
  const auto call = [&](const uint64_t* keys, size_t n, uint8_t* out,
                        SpanLog* log, uint64_t request) {
    ScopedSpan span(log, kAnyQuery, request, n);
    filter->ContainsBatch(keys, n, out);
  };
  Warm(def_.frame_keys, call);
  Timed(def_.frame_keys, pf_answers_, "anyfilter", call);
}

void Ladder::Shard() {
  std::unique_ptr<prefixfilter::ShardedFilter> filter =
      prefixfilter::ShardedFilter::Make(in_.n,
                                        prefixfilter::ShardedFilterOptions{});
  prefixfilter::BatchRouter router;
  Inserts(kShardInsert, "shard", [&](const uint64_t* keys, size_t n) {
    return filter->InsertBatch(keys, n);
  });
  const auto call = [&](const uint64_t* keys, size_t n, uint8_t* out,
                        SpanLog* log, uint64_t request) {
    ScopedSpan span(log, kShardQuery, request, n);
    router.Route(*filter, keys, n, out);
  };
  const uint64_t fp = ReferencePass(call, &shard_answers_, "shard");
  std::printf("perfbench: sharded filter fpr %.6f over %" PRIu64
              " negatives\n",
              static_cast<double>(fp) / static_cast<double>(in_.negatives),
              in_.negatives);
  Timed(def_.frame_keys, shard_answers_, "shard", call);
}

void Ladder::Service() {
  prefixfilter::FilterServiceOptions options;
  options.num_threads = kServiceWorkers;
  service_ = prefixfilter::MakeFilterService(kFilterName, in_.n, options);
  Inserts(kServiceInsert, "service", [&](const uint64_t* keys, size_t n) {
    return service_->InsertBatchSync(keys, n);
  });
  const auto sync = [&](const uint64_t* keys, size_t n, uint8_t* out,
                        SpanLog* log, uint64_t request) {
    ScopedSpan span(log, kServiceSyncQuery, request, n);
    service_->QueryBatchSync(keys, n, out);
  };
  Warm(def_.frame_keys, sync);
  Timed(def_.frame_keys, shard_answers_, "service sync", sync);

  // Submit to callback.  The request owns a copy of its keys (the server
  // hands over its merged batch the same way), made before the span opens.
  // The callback stamps the end; the waiting thread's wake-up is not billed.
  const auto async = [&](const uint64_t* keys, size_t n, uint8_t* out,
                         SpanLog* log, uint64_t request) {
    std::vector<uint64_t> batch(keys, keys + n);
    async_done_ns_.store(0, std::memory_order_relaxed);
    if (log != nullptr) log->Begin(kServiceAsyncQuery, request, n);
    service_->QueryBatchAsync(std::move(batch),
                              [this](std::vector<uint8_t> results) {
                                async_results_ = std::move(results);
                                async_done_ns_.store(NowNs(),
                                                     std::memory_order_release);
                                async_done_ns_.notify_one();
                              });
    uint64_t done = 0;
    while ((done = async_done_ns_.load(std::memory_order_acquire)) == 0) {
      async_done_ns_.wait(0, std::memory_order_acquire);
    }
    if (log != nullptr) log->EndAt(done);
    std::memcpy(out, async_results_.data(), n);
  };
  Warm(def_.frame_keys, async);
  Timed(def_.frame_keys, shard_answers_, "service async", async);
}

void Ladder::Codec() {
  // Per-connection state the client and server keep across frames; the
  // per-frame buffers below are fresh per call, as in the client and the
  // server's serve pass.
  net::FrameDecoder server_decoder;
  net::FrameDecoder client_decoder;
  std::vector<uint8_t> outbox;
  std::vector<uint8_t> results;
  const auto call = [&](const uint64_t* keys, size_t n, uint8_t* out,
                        SpanLog* log, uint64_t request) {
    std::vector<uint8_t> frame_bytes;
    {
      ScopedSpan roundtrip(log, kCodecRoundtrip, request, n);
      {
        ScopedSpan span(log, kCodecRequestEncode, request, n);
        net::EncodeKeyBatchRequest(net::Opcode::kQueryBatch, request, keys, n,
                                   &frame_bytes);
      }
      std::vector<uint64_t> pending;
      bool ok;
      {
        ScopedSpan span(log, kCodecRequestDecode, request, n);
        server_decoder.Feed(frame_bytes.data(), frame_bytes.size());
        net::Frame frame;
        ok = server_decoder.Next(&frame) == net::DecodeStatus::kFrame &&
             net::AppendKeyBatchPayload(frame.payload.data(),
                                        frame.payload.size(), &pending);
      }
      std::vector<uint8_t> exec_out(pending.size());
      {
        ScopedSpan span(log, kCodecExec, request, n);
        service_->QueryBatchSync(pending.data(), pending.size(),
                                 exec_out.data());
      }
      {
        ScopedSpan span(log, kCodecResponse, request, n);
        outbox.clear();
        net::EncodeQueryResponse(request, exec_out.data(), exec_out.size(),
                                 &outbox);
        client_decoder.Feed(outbox.data(), outbox.size());
        net::Frame frame;
        ok = ok && client_decoder.Next(&frame) == net::DecodeStatus::kFrame &&
             net::DecodeQueryResponsePayload(frame.payload.data(),
                                             frame.payload.size(), &results) &&
             results.size() == n;
      }
      if (!ok) {
        report_->Violation("codec: in-memory roundtrip failed to decode");
        results.assign(n, 0);
      }
    }
    std::memcpy(out, results.data(), n);
    if (log == nullptr) return;
    const size_t payload = frame_bytes.size() - net::kFrameHeaderBytes;
    {
      ScopedSpan span(log, kCodecCrc, request, payload);
      prefixfilter::bench::KeepAlive(
          net::Crc32(frame_bytes.data() + net::kFrameHeaderBytes, payload));
    }
    ++codec_frames_;
    codec_keys_ += n;
    codec_wire_bytes_ += frame_bytes.size() + outbox.size();
  };
  Warm(def_.frame_keys, call);
  Timed(def_.frame_keys, shard_answers_, "codec", call);
}

void Ladder::Net() {
  server_ = std::make_unique<net::MembershipServer>(service_);
  if (!server_->Start()) {
    report_->Violation("net: server start failed: " + server_->error());
    return;
  }
  net::MembershipClient client(
      ClientFor(server_->port(), def_.frame_keys, def_.depth));
  if (!client.Connect()) {
    report_->Violation("net: connect failed: " + client.error());
    return;
  }
  std::vector<uint8_t> answers;
  const auto call = [&](const uint64_t* keys, size_t n, uint8_t* out,
                        SpanLog* log, uint64_t request) {
    bool ok;
    {
      ScopedSpan span(log, kNetCall, request, n);
      ok = def_.depth > 1 ? client.QueryPipelined(keys, n, &answers)
                          : client.QueryBatch(keys, n, &answers);
    }
    if (!ok) {
      report_->Violation("net: call failed: " + client.error());
      answers.assign(n, 0);
    }
    std::memcpy(out, answers.data(), n);
  };
  const size_t call_keys = def_.frame_keys * def_.depth;
  Warm(call_keys, call);
  const net::ServerStats before = server_->stats();
  const uint64_t allocs_before = AllocCount();
  const uint64_t frames_before = client.frames_sent();
  const uint64_t keys = Timed(call_keys, shard_answers_, "net", call);
  const uint64_t allocs = AllocCount() - allocs_before;
  const uint64_t frames = client.frames_sent() - frames_before;
  const net::ServerStats after = server_->stats();
  if (client.frames_sent() != client.frames_received()) {
    report_->Violation("net: request frames and responses differ");
  }
  const double batches = static_cast<double>(after.batches_offloaded -
                                             before.batches_offloaded);
  const double merged = static_cast<double>(after.query_frames_merged -
                                            before.query_frames_merged);
  net_allocs_per_frame_ =
      frames == 0 ? 0.0 : static_cast<double>(allocs) / frames;
  net_merged_frames_per_batch_ =
      batches == 0 ? 1.0 : (batches + merged) / batches;
  net_backpressure_stalls_ = static_cast<double>(after.backpressure_stalls -
                                                 before.backpressure_stalls);
  net_bytes_in_per_key_ =
      static_cast<double>(after.bytes_in - before.bytes_in) / keys;
  net_bytes_out_per_key_ =
      static_cast<double>(after.bytes_out - before.bytes_out) / keys;
}

// The end-to-end phase without and with client.call spans: an untimed warm
// round, then untraced, traced, traced, untraced, so a linear drift of the
// machine's speed hits both sides alike.
void Ladder::TraceOverhead() {
  constexpr int kOrder[] = {-1, 0, 1, 1, 0};  // -1: warm-up, not counted
  double keys[2] = {0, 0};
  double seconds[2] = {0, 0};
  const double round_s = phase_s_ / 2;
  const std::vector<size_t> pool =
      def_.kind == Kind::kBuildAndQuery ? NegativePool(in_)
                                        : std::vector<size_t>();
  uint64_t cycle = 1;
  for (const int traced : kOrder) {
    Tracer* tracer = traced == 1 ? &tracer_ : nullptr;
    CallStats stats;
    switch (def_.kind) {
      case Kind::kWireBulk:
      case Kind::kWireRpc:
        stats = WireQueryPhase(server_->port(), def_, in_, shard_answers_,
                               round_s, tracer, report_);
        break;
      case Kind::kBuildAndQuery: {
        const uint64_t start = NowNs();
        do {
          stats.Add(BuildAndQueryCycle(config_, in_, pool, cycle++, tracer,
                                       report_)
                        .queries);
        } while (SecondsSince(start) < round_s);
        break;
      }
      case Kind::kInprocLarge:
        stats = InprocQueryPhase(*service_, def_, in_, shard_answers_,
                                 round_s, traced == 1 ? log_ : nullptr,
                                 report_);
        break;
    }
    report_->CountOps(stats.keys, stats.failed_keys);
    if (traced < 0) continue;
    keys[traced] += static_cast<double>(stats.keys);
    seconds[traced] += stats.seconds;
  }
  const double untraced = keys[0] / seconds[0];
  const double traced = keys[1] / seconds[1];
  overhead_pct_ = 100.0 * (untraced - traced) / untraced;
  std::printf("perfbench: end-to-end %.3f Mkeys/s untraced, %.3f traced\n",
              untraced / 1e6, traced / 1e6);
}

void Ladder::Run() {
  Core();
  AnyFilterLayer();
  Shard();
  Service();
  Codec();
  Net();
  TraceOverhead();
  server_.reset();
  Emit();
  if (!config_.spans_path.empty()) {
    if (tracer_.Write(config_.spans_path)) {
      std::printf("perfbench: %" PRIu64 " spans written to %s (%" PRIu64
                  " more aggregated only)\n",
                  tracer_.kept(), config_.spans_path.c_str(),
                  tracer_.dropped());
    } else {
      report_->Violation("cannot write the span file " + config_.spans_path);
    }
  }
}

void Ladder::Emit() {
  const auto per_key = [&](SpanName name) {
    return tracer_.Merged(name).SelfPerWork();
  };
  const double core_q = per_key(kCoreQuery);
  const double any_q = per_key(kAnyQuery);
  const double shard_q = per_key(kShardQuery);
  const double sync_q = per_key(kServiceSyncQuery);
  const double async_q = per_key(kServiceAsyncQuery);
  const double encode = per_key(kCodecRequestEncode);
  const double decode = per_key(kCodecRequestDecode);
  const double response = per_key(kCodecResponse);
  const double codec = encode + decode + response;
  const double loopback = per_key(kNetCall);
  const uint64_t allocs = tracer_.Merged(kCodecRequestEncode).allocs +
                          tracer_.Merged(kCodecRequestDecode).allocs +
                          tracer_.Merged(kCodecResponse).allocs;

  // Theorem 2(3), k = 25 slots per bin.
  const double k = CoreFilter::kBinCapacity;
  const double query_bound = 1.0 / std::sqrt(2 * std::numbers::pi * k);

  std::printf("perfbench: ladder for %s (%zu-key query calls, n = %" PRIu64
              "), self time per key, marginal tax over the layer below\n",
              def_.name, def_.frame_keys * def_.depth, in_.n);
  const auto row = [](const char* layer, double ns, double below) {
    std::printf("perfbench:   %-22s %9.2f ns/key  %+9.2f\n", layer, ns,
                ns - below);
  };
  row("core", core_q, 0);
  row("anyfilter", any_q, core_q);
  row("shard", shard_q, any_q);
  row("service sync", sync_q, shard_q);
  row("service async", async_q, sync_q);
  row("codec (enc+dec+resp)", codec, 0);
  row("net loopback", loopback, codec + async_q);
  std::printf("perfbench: spare fractions: queries %.5f (bound %.5f), "
              "inserts %.5f (bound %.5f)\n",
              spare_query_frac_, query_bound, spare_insert_frac_,
              1.1 * query_bound);
  std::printf("perfbench: codec / shard probe = %.2fx (ROADMAP seed "
              "observation ~5x: 45.6 vs 8.7 ns/key at n=61.6K)\n",
              shard_q > 0 ? codec / shard_q : 0.0);

  report_->Metric("core.query_ns_per_key", core_q, "ns/key");
  report_->Metric("core.insert_ns_per_key", per_key(kCoreInsert), "ns/key");
  report_->Metric("core.spare_query_frac", spare_query_frac_, "frac");
  report_->Metric("core.spare_insert_frac", spare_insert_frac_, "frac");
  report_->Metric("anyfilter.query_ns_per_key", any_q, "ns/key");
  report_->Metric("anyfilter.insert_ns_per_key", per_key(kAnyInsert),
                  "ns/key");
  report_->Metric("shard.query_ns_per_key", shard_q, "ns/key");
  report_->Metric("shard.insert_ns_per_key", per_key(kShardInsert), "ns/key");
  report_->Metric("service.sync_query_ns_per_key", sync_q, "ns/key");
  report_->Metric("service.async_query_ns_per_key", async_q, "ns/key");
  report_->Metric("service.handoff_ns_per_batch",
                  tracer_.Merged(kServiceAsyncQuery).SelfPerSpan() -
                      tracer_.Merged(kServiceSyncQuery).SelfPerSpan(),
                  "ns/batch");
  report_->Metric("service.insert_ns_per_key", per_key(kServiceInsert),
                  "ns/key");
  report_->Metric("codec.request_encode_ns_per_key", encode, "ns/key");
  report_->Metric("codec.request_decode_ns_per_key", decode, "ns/key");
  report_->Metric("codec.response_ns_per_key", response, "ns/key");
  report_->Metric("codec.crc_ns_per_byte", per_key(kCodecCrc), "ns/B");
  report_->Metric("codec.wire_bytes_per_key",
                  static_cast<double>(codec_wire_bytes_) / codec_keys_,
                  "B/key");
  report_->Metric("codec.allocs_per_frame",
                  static_cast<double>(allocs) / codec_frames_, "allocs/frame");
  report_->Metric("net.loopback_query_ns_per_key", loopback, "ns/key");
  report_->Metric("net.server_tax_ns_per_key", loopback - codec - async_q,
                  "ns/key");
  report_->Metric("net.allocs_per_frame", net_allocs_per_frame_,
                  "allocs/frame");
  report_->Metric("net.merged_frames_per_batch", net_merged_frames_per_batch_,
                  "frames/batch");
  report_->Metric("net.backpressure_stalls", net_backpressure_stalls_,
                  "count");
  report_->Metric("net.bytes_in_per_key", net_bytes_in_per_key_, "B/key");
  report_->Metric("net.bytes_out_per_key", net_bytes_out_per_key_, "B/key");
  report_->Metric("trace.overhead_pct", overhead_pct_, "%");
}

}  // namespace

void RunLadder(const Config& config, const Inputs& in, Report* report) {
  Ladder ladder(config, in, report);
  ladder.Run();
}

}  // namespace perfbench
