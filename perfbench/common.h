// Shared perfbench plumbing: the workload table, run configuration, the
// report printed as the run's last line, and small statistics helpers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// The system under test, as every workload configures it.
inline constexpr const char* kFilterName = "SHARD16[PF[TC]]";
inline constexpr uint32_t kServiceWorkers = 1;
// Client connections in the wire workloads' timed phase (build-and-query
// uses one inserting and one querying connection).
inline constexpr int kWireConnections = 2;
// Keys per insert call, in every workload and ladder layer.
inline constexpr size_t kInsertKeys = 4096;

enum class Kind { kWireBulk, kWireRpc, kBuildAndQuery, kInprocLarge };

struct WorkloadDef {
  const char* name;
  Kind kind;
  const char* stream;       // workload::StandardSuite spec of the queries
  int n_log2;               // n = 0.94 * 2^n_log2 keys
  int queries_log2;         // query stream length
  size_t frame_keys;        // keys per frame
  size_t depth;             // frames per client call (pipelined when > 1)
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

struct Config {
  WorkloadDef def;          // after --toy scaling
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool flip_truth = false;  // self-test: corrupt one ground-truth bit
  std::string spans_path;   // traced run: where the span file goes
};

// Collects metrics and correctness violations; prints the human-readable
// summary and the one-line JSON result.  Violation() is thread-safe.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Violation(const std::string& what);
  void CountOps(uint64_t attempted, uint64_t failed);

  bool correct() const;
  // Human-readable lines (to stdout), then the JSON object as the last line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  mutable std::mutex mutex_;
  std::vector<std::string> violations_;
  uint64_t violation_count_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

double Median(std::vector<double> values);

// Nearest-rank percentile, p in [0, 1]; reorders `values`.
template <typename T>
double Percentile(std::vector<T>& values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = std::min(values.size() - 1,
                              rank < 1 ? 0 : static_cast<size_t>(rank) - 1);
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return static_cast<double>(values[idx]);
}

double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
