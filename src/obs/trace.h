// Request-scoped tracing: the per-request counterpart to the aggregate
// metrics of src/obs/metrics.h.
//
// A Trace is a fixed-size, trivially-copyable record of one request's walk
// through the pipeline: identity (trace id, request id, opcode, connection,
// event loop), wall-clock bounds, and up to kMaxTraceSpans stage spans
// (socket read, decode, merge, queue wait, worker exec, per-shard probe,
// completion transit, response write).  Fixed size is deliberate — traces
// move through the lock-free seqlock rings of trace_sink.h as raw words, so
// they must carry no heap state.
//
// The types here are always defined, even under -DPF_OBS=OFF: the wire
// codec in src/net/protocol.cc (TRACES opcode) must compile in every
// configuration.  Only the *mutating* paths compile out: ActiveTrace::
// AddSpan collapses to nothing and CurrentTrace() is a constant nullptr, so
// a disabled build carries no thread-local reads and no stores.
//
// Sampling model (decided by the caller, recorded here): head-based
// probabilistic sampling marks a trace kTraceSampled at admission; the
// tail-capture path marks requests slower than the server's threshold
// kTraceSlow at completion.  Either flag makes the trace worth retaining.
#ifndef PREFIXFILTER_SRC_OBS_TRACE_H_
#define PREFIXFILTER_SRC_OBS_TRACE_H_

#include <cstdint>
#include <type_traits>

namespace prefixfilter::obs {

// Pipeline stages a span can label.  Wire-stable: values are serialized by
// the TRACES codec, so only append.
enum class TraceStage : uint8_t {
  kDecode = 0,      // frame decode (checksum + parse) up to the batch seal
  kMerge = 1,       // pipelined QUERY frames coalescing into one batch
  kQueueWait = 2,   // service queue wait (enqueue -> worker pickup)
  kExec = 3,        // worker filter execution
  kShardProbe = 4,  // one shard group's probe under its shard lock
  kCompletion = 5,  // completion-queue transit (worker done -> loop drain)
  kWrite = 6,       // response encode + socket write on the event loop
  kRead = 7,        // socket reads (recv + decoder feed) on the event loop
};

inline constexpr uint32_t kNumTraceStages = 8;

// Stable lower-case name for JSON/CLI output ("decode", "queue_wait", ...).
const char* TraceStageName(TraceStage stage);

struct TraceSpan {
  uint8_t stage = 0;  // TraceStage
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  // Stage-specific payload: kMerge = frames merged into the batch,
  // kShardProbe = shard index << 32 | keys probed, otherwise 0.
  uint64_t detail = 0;
};

// Spans per trace: 16 shard-probe spans (one per shard group of a
// 16-shard batch) plus every pipeline stage fit without dropping.
inline constexpr uint32_t kMaxTraceSpans = 28;

// Trace::flags bits.
inline constexpr uint8_t kTraceSampled = 1u << 0;  // head-sampled at admission
inline constexpr uint8_t kTraceSlow = 1u << 1;     // exceeded the slow threshold

struct Trace {
  uint64_t trace_id = 0;
  uint64_t request_id = 0;
  uint64_t conn_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t loop = 0;        // owning event-loop index
  uint32_t key_count = 0;   // keys carried by the request (merged batch)
  uint32_t frames = 0;      // frames merged into this request's batch
  uint32_t spans_dropped = 0;
  uint32_t span_count = 0;
  uint8_t opcode = 0;       // net::Opcode of the request
  uint8_t flags = 0;        // kTraceSampled | kTraceSlow

  bool sampled() const { return (flags & kTraceSampled) != 0; }
  bool slow() const { return (flags & kTraceSlow) != 0; }

  TraceSpan spans[kMaxTraceSpans];
};
static_assert(std::is_trivially_copyable_v<Trace>,
              "traces move through the seqlock rings as raw words");
static_assert(sizeof(Trace) % 8 == 0,
              "trace_sink.h stores traces as arrays of atomic u64 words");

// A trace under construction.  Written by exactly one thread at a time —
// the event loop hands it to a worker through the service queue and gets it
// back through the completion queue, each hop ordered by a mutex — so the
// spans need no internal synchronization.
struct ActiveTrace {
  Trace t;

  void AddSpan(TraceStage stage, uint64_t start_ns, uint64_t end_ns,
               uint64_t detail = 0) {
#ifndef PF_OBS_DISABLED
    if (t.span_count < kMaxTraceSpans) {
      TraceSpan& span = t.spans[t.span_count++];
      span.stage = static_cast<uint8_t>(stage);
      span.start_ns = start_ns;
      span.end_ns = end_ns;
      span.detail = detail;
    } else {
      ++t.spans_dropped;
    }
#else
    (void)stage;
    (void)start_ns;
    (void)end_ns;
    (void)detail;
#endif
  }
};

// Thread-local current trace, so deep layers (ShardedFilter's per-shard
// probes) can record spans without widening the AnyFilter interface.  Set
// by FilterService around filter execution; nullptr everywhere else.
#ifndef PF_OBS_DISABLED
ActiveTrace* CurrentTrace();
void SetCurrentTrace(ActiveTrace* trace);
#else
inline ActiveTrace* CurrentTrace() { return nullptr; }
inline void SetCurrentTrace(ActiveTrace*) {}
#endif

// RAII guard: installs `trace` as the thread's current trace for a scope.
class ScopedCurrentTrace {
 public:
  explicit ScopedCurrentTrace(ActiveTrace* trace) { SetCurrentTrace(trace); }
  ~ScopedCurrentTrace() { SetCurrentTrace(nullptr); }
  ScopedCurrentTrace(const ScopedCurrentTrace&) = delete;
  ScopedCurrentTrace& operator=(const ScopedCurrentTrace&) = delete;
};

}  // namespace prefixfilter::obs

#endif  // PREFIXFILTER_SRC_OBS_TRACE_H_
