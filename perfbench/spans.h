// In-memory span recording for the traced run.
//
// Spans come only from perfbench's own code: one around each call into a
// layer's public entry point and one around each client call.  Each span
// has a name, start, end, parent span and request id (spans of one request
// share the id).  A SpanLog belongs to one thread; it keeps a stack of open
// spans so a span's self time (its duration minus the time its child spans
// cover) is known the moment it closes, and folds every span into per-name
// aggregates.  The first `keep` spans of each name are also stored whole and
// written out as JSON lines when the run ends.
//
// Clock cost: a span costs two steady_clock reads.  The Tracer measures the
// duration of an empty span once and subtracts it from every leaf span's
// self time, so 16-key batches are not billed for the clock.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum SpanName : uint8_t {
  kClientCall,
  kCoreInsert,
  kCoreQuery,
  kAnyInsert,
  kAnyQuery,
  kShardInsert,
  kShardQuery,
  kServiceInsert,
  kServiceSyncQuery,
  kServiceAsyncQuery,
  kCodecRoundtrip,
  kCodecRequestEncode,
  kCodecRequestDecode,
  kCodecExec,
  kCodecResponse,
  kCodecCrc,
  kNetCall,
  kNumSpanNames,
};

const char* SpanNameString(SpanName name);

struct SpanAgg {
  uint64_t count = 0;
  uint64_t work = 0;      // keys (or bytes, for kCodecCrc) the spans covered
  double total_ns = 0;
  double self_ns = 0;     // calibrated: leaf spans lose the clock cost
  uint64_t allocs = 0;    // operator new calls inside the spans

  double SelfPerWork() const { return work == 0 ? 0.0 : self_ns / work; }
  double SelfPerSpan() const { return count == 0 ? 0.0 : self_ns / count; }
};

class SpanLog {
 public:
  SpanLog(uint32_t thread, size_t keep, double clock_ns);

  void Begin(SpanName name, uint64_t request_id, uint64_t work);
  // Closes the innermost open span now, or at `end_ns` when its end was
  // stamped elsewhere (an async completion observed on another thread).
  void End();
  void EndAt(uint64_t end_ns);

  const SpanAgg& agg(SpanName name) const { return aggs_[name]; }
  uint32_t thread() const { return thread_; }

  struct Span {
    uint64_t request_id;
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t id;
    uint32_t parent;  // 0 = root
    SpanName name;
  };
  const std::vector<Span>& kept() const { return kept_; }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    SpanName name;
    uint32_t id;
    uint32_t parent;
    uint64_t request_id;
    uint64_t work;
    uint64_t start_ns;
    uint64_t child_ns;
    uint64_t allocs_at_start;
    bool has_children;
  };

  uint32_t thread_;
  size_t keep_;
  double clock_ns_;
  uint32_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  uint64_t dropped_ = 0;
  SpanAgg aggs_[kNumSpanNames];
  size_t kept_by_name_[kNumSpanNames] = {};
};

// Opens a span on a possibly-null log (untraced runs pass nullptr).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, uint64_t request_id, uint64_t work)
      : log_(log) {
    if (log_ != nullptr) log_->Begin(name, request_id, work);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// Owns every thread's SpanLog.  NewLog is called before the thread that
// uses the log starts; Merged/Write after every such thread has joined.
class Tracer {
 public:
  // Each log stores up to `keep_per_name` spans of every name.
  explicit Tracer(size_t keep_per_name);

  SpanLog* NewLog();
  SpanAgg Merged(SpanName name) const;
  // Writes every kept span as one JSON object per line.  False on I/O error.
  bool Write(const std::string& path) const;
  uint64_t kept() const;
  uint64_t dropped() const;

 private:
  size_t keep_per_name_;
  double clock_ns_;
  uint64_t epoch_ns_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
