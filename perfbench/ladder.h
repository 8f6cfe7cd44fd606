// The traced run: the workload's own stream and batch shape replayed
// through one public entry point at a time (the per-layer cost ladder),
// plus the tracing overhead of the end-to-end phase.
#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include "perfbench/common.h"
#include "perfbench/inputs.h"

namespace perfbench {

// Every per-layer metric into *report; writes the span file to
// config.spans_path when it is set.
void RunLadder(const Config& config, const Inputs& in, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
