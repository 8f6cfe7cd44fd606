#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "perfbench/common.h"

namespace perfbench {

const std::vector<WorkloadDef>& Workloads() {
  // name, kind, query stream, n_log2, queries_log2, frame keys, frames per
  // call.  README.md says why each exists.
  static const std::vector<WorkloadDef> kWorkloads = {
      {"wire-bulk", Kind::kWireBulk, "mixed-50-50", 22, 22, 4096, 4},
      {"wire-rpc", Kind::kWireRpc, "uniform-negative", 22, 22, 16, 1},
      {"build-and-query", Kind::kBuildAndQuery, "mixed-50-50", 22, 21, 4096,
       1},
      {"inproc-large", Kind::kInprocLarge, "mixed-50-50", 27, 24, 4096, 1},
  };
  return kWorkloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : Workloads()) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Violation(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++violation_count_;
  if (violations_.size() < 20) violations_.push_back(what);
}

void Report::CountOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::correct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return violation_count_ == 0;
}

void Report::Print() const {
  const bool ok = correct();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& v : violations_) {
      std::printf("perfbench: CORRECTNESS VIOLATION: %s\n", v.c_str());
    }
    if (violation_count_ > violations_.size()) {
      std::printf("perfbench: ... %" PRIu64 " violations in total\n",
                  violation_count_);
    }
  }
  std::printf("perfbench: %-34s %.6g (of %" PRIu64 " ops attempted)\n",
              "failed_ops_frac",
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
              attempted_);
  for (const Entry& e : metrics_) {
    std::printf("perfbench: %-34s %14.6f %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              ok ? "true" : "false", std::max<uint64_t>(1, attempted_),
              failed_);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", e.name.c_str(), v, e.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench
