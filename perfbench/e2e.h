// End-to-end phases: the system driven only through its public entry points
// (MembershipServer + MembershipClient over loopback, or FilterService for
// embedded use), closed loop, each client connection on its own thread.
// The untraced run calls RunEndToEnd; the traced run reuses the phases with
// a Tracer to time the same calls with spans.
#ifndef PERFBENCH_E2E_H_
#define PERFBENCH_E2E_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/inputs.h"
#include "perfbench/spans.h"
#include "src/net/membership_client.h"
#include "src/net/membership_server.h"
#include "src/service/filter_service.h"

namespace perfbench {

// Client options for one connection of the given call shape; never
// reconnects silently, so a dropped connection shows as a failed call.
prefixfilter::net::ClientOptions ClientFor(uint16_t port, size_t frame_keys,
                                           size_t depth);

// One self-hosted server: kFilterName, one event loop, kServiceWorkers pool
// workers, default ServerOptions.
struct Server {
  std::shared_ptr<prefixfilter::FilterService> service;
  std::unique_ptr<prefixfilter::net::MembershipServer> server;

  uint16_t port() const { return server->port(); }
};

// Builds the service for `capacity` keys and starts the server on an
// ephemeral loopback port.  A server that cannot start ends the run: the
// report is printed as failed and the process exits with status 1.
Server StartServer(uint64_t capacity, Report* report);

// A timed closed-loop phase.  Per-call samples are kept compact (8 bytes a
// call), so peak_rss_mb barely moves with the number of calls made.
struct CallStats {
  uint64_t calls = 0;
  uint64_t keys = 0;
  uint64_t failed_keys = 0;
  uint64_t start_ns = 0;   // set before the first Record
  double seconds = 0;
  // One entry per completed call: its duration, and when it completed
  // (microseconds after start_ns).
  std::vector<float> rtt_us;
  std::vector<uint32_t> done_us;

  void Record(uint64_t call_start_ns, uint64_t done_ns) {
    rtt_us.push_back(static_cast<float>(done_ns - call_start_ns) * 1e-3f);
    done_us.push_back(static_cast<uint32_t>((done_ns - start_ns) / 1000));
  }
  double MkeysPerSecond() const {
    return seconds > 0 ? static_cast<double>(keys) / seconds / 1e6 : 0.0;
  }
  // Appends another thread's calls of the same phase (same start_ns).
  void Add(const CallStats& other);
};

// The phase cut into `windows` equal consecutive windows by call completion
// time; each statistic is the median over the windows of that window's
// value, so a burst of interference on a shared machine moves a few
// windows, not the result.
struct WindowedStats {
  double mkeys_per_s = 0;
  double rtt_p50_us = 0;
  double rtt_p90_us = 0;
  double rtt_p99_us = 0;
  size_t min_calls = 0;  // fewest calls in one window
};
WindowedStats Windowed(const CallStats& stats, size_t windows);

// Queries the whole stream once over one pipelined connection (untimed);
// checks every answer against the ground truth and fills *answers.
// Returns the false-positive count.
uint64_t WireVerifyPass(uint16_t port, const Inputs& in,
                        std::vector<uint8_t>* answers, Report* report);

// The workload's timed query phase over kWireConnections connections.  With
// a tracer, every client call gets a client.call span.
CallStats WireQueryPhase(uint16_t port, const WorkloadDef& def,
                         const Inputs& in,
                         const std::vector<uint8_t>& reference,
                         double seconds, Tracer* tracer, Report* report);

// One build-and-query cycle: a fresh empty server, one connection streaming
// InsertBatch calls to n keys while a second runs QueryBatch calls (half
// acknowledged keys, half keys from `pool`), then a verification pass over
// the whole stream.  Callers compare false_positives across cycles.
struct CycleStats {
  double setup_s = 0;
  double fill_s = 0;
  CallStats queries;
  uint64_t inserted = 0;
  uint64_t failed_inserts = 0;
  uint64_t false_positives = 0;
  double bits_per_key = 0;
};
CycleStats BuildAndQueryCycle(const Config& config, const Inputs& in,
                              const std::vector<size_t>& pool,
                              uint64_t cycle, Tracer* tracer, Report* report);
// Stream indices of the absent keys build-and-query draws its negatives
// from (the --flip-truth index included, so a corrupted bit is exercised).
std::vector<size_t> NegativePool(const Inputs& in);

// Embedded queries: QueryBatchSync in frame_keys batches until `seconds`.
CallStats InprocQueryPhase(prefixfilter::FilterService& service,
                           const WorkloadDef& def, const Inputs& in,
                           const std::vector<uint8_t>& reference,
                           double seconds, SpanLog* log, Report* report);

// The untraced run: every end-to-end metric into *report.
void RunEndToEnd(const Config& config, const Inputs& in, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_E2E_H_
