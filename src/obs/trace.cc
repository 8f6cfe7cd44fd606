#include "src/obs/trace.h"

namespace prefixfilter::obs {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kDecode:
      return "decode";
    case TraceStage::kMerge:
      return "merge";
    case TraceStage::kQueueWait:
      return "queue_wait";
    case TraceStage::kExec:
      return "exec";
    case TraceStage::kShardProbe:
      return "shard_probe";
    case TraceStage::kCompletion:
      return "completion";
    case TraceStage::kWrite:
      return "write";
    case TraceStage::kRead:
      return "read";
  }
  return "unknown";
}

#ifndef PF_OBS_DISABLED
namespace {
thread_local ActiveTrace* g_current_trace = nullptr;
}  // namespace

ActiveTrace* CurrentTrace() { return g_current_trace; }

void SetCurrentTrace(ActiveTrace* trace) { g_current_trace = trace; }
#endif

}  // namespace prefixfilter::obs
