#include "perfbench/spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "perfbench/alloc_count.h"
#include "perfbench/common.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kNumSpanNames] = {
      "client.call",         "core.insert",          "core.query",
      "anyfilter.insert",    "anyfilter.query",      "shard.insert",
      "shard.query",         "service.insert",       "service.sync_query",
      "service.async_query", "codec.roundtrip",      "codec.request_encode",
      "codec.request_decode", "codec.exec",          "codec.response",
      "codec.crc",           "net.call",
  };
  return kNames[name];
}

SpanLog::SpanLog(uint32_t thread, size_t keep, double clock_ns)
    : thread_(thread), keep_(keep), clock_ns_(clock_ns) {
  stack_.reserve(8);
}

void SpanLog::Begin(SpanName name, uint64_t request_id, uint64_t work) {
  const uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  if (!stack_.empty()) stack_.back().has_children = true;
  stack_.push_back(Open{name, next_id_++, parent, request_id, work, 0, 0,
                        AllocCount(), false});
  stack_.back().start_ns = NowNs();
}

void SpanLog::End() { EndAt(NowNs()); }

void SpanLog::EndAt(uint64_t end_ns) {
  const Open open = stack_.back();
  stack_.pop_back();
  const uint64_t duration =
      end_ns > open.start_ns ? end_ns - open.start_ns : 0;
  double self =
      static_cast<double>(duration - std::min(duration, open.child_ns));
  if (!open.has_children) self = std::max(0.0, self - clock_ns_);
  SpanAgg& agg = aggs_[open.name];
  agg.count += 1;
  agg.work += open.work;
  agg.total_ns += static_cast<double>(duration);
  agg.self_ns += self;
  agg.allocs += AllocCount() - open.allocs_at_start;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (kept_by_name_[open.name] < keep_) {
    ++kept_by_name_[open.name];
    kept_.push_back(Span{open.request_id, open.start_ns, end_ns, open.id,
                         open.parent, open.name});
  } else {
    ++dropped_;
  }
}

namespace {

// Mean duration of an empty span: what two clock reads plus the
// bookkeeping cost, measured on a throwaway log.
double CalibrateClock() {
  constexpr int kRounds = 5;
  constexpr int kSpans = 20000;
  std::vector<double> per_span;
  for (int round = 0; round < kRounds; ++round) {
    SpanLog log(0, 0, 0.0);
    for (int i = 0; i < kSpans; ++i) {
      log.Begin(kClientCall, 0, 1);
      log.End();
    }
    per_span.push_back(log.agg(kClientCall).total_ns / kSpans);
  }
  return Median(per_span);
}

}  // namespace

Tracer::Tracer(size_t keep_per_name)
    : keep_per_name_(keep_per_name),
      clock_ns_(CalibrateClock()),
      epoch_ns_(NowNs()) {}

SpanLog* Tracer::NewLog() {
  logs_.push_back(std::make_unique<SpanLog>(
      static_cast<uint32_t>(logs_.size()), keep_per_name_, clock_ns_));
  return logs_.back().get();
}

SpanAgg Tracer::Merged(SpanName name) const {
  SpanAgg out;
  for (const auto& log : logs_) {
    const SpanAgg& a = log->agg(name);
    out.count += a.count;
    out.work += a.work;
    out.total_ns += a.total_ns;
    out.self_ns += a.self_ns;
    out.allocs += a.allocs;
  }
  return out;
}

uint64_t Tracer::kept() const {
  uint64_t n = 0;
  for (const auto& log : logs_) n += log->kept().size();
  return n;
}

uint64_t Tracer::dropped() const {
  uint64_t n = 0;
  for (const auto& log : logs_) n += log->dropped();
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& log : logs_) {
    for (const SpanLog::Span& s : log->kept()) {
      // Span ids are unique per thread; "thread" qualifies them.
      std::fprintf(f,
                   "{\"thread\":%" PRIu32 ",\"id\":%" PRIu32
                   ",\"parent\":%" PRIu32 ",\"request\":%" PRIu64
                   ",\"name\":\"%s\",\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 "}\n",
                   log->thread(), s.id, s.parent, s.request_id,
                   SpanNameString(s.name), s.start_ns - epoch_ns_,
                   s.end_ns - epoch_ns_);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
