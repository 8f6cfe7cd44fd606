// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--toy] [--flip-truth] [--spans PATH]
//
// Generates the workload's inputs from --seed with src/workload (before any
// timing), drives the system through its public entry points, checks every
// answer, and prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 measures the end-to-end metrics; --trace 1 runs the per-layer
// ladder with spans.  Exit status 1 on any correctness violation, 2 on bad
// arguments.  --toy shrinks every size for the self-test; --flip-truth
// corrupts one ground-truth bit, which must make the run fail.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/common.h"
#include "perfbench/e2e.h"
#include "perfbench/inputs.h"
#include "perfbench/ladder.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--toy] [--flip-truth] [--spans PATH]\n"
               "workloads:",
               why);
  for (const perfbench::WorkloadDef& def : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", def.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  const perfbench::WorkloadDef* def = nullptr;
  bool toy = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      def = perfbench::FindWorkload(value());
      if (def == nullptr) Usage("unknown workload");
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 0);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value().c_str());
      if (!(config.seconds > 0)) Usage("--seconds must be positive");
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      config.trace = v == "1";
    } else if (arg == "--spans") {
      config.spans_path = value();
    } else if (arg == "--toy") {
      toy = true;
    } else if (arg == "--flip-truth") {
      config.flip_truth = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (def == nullptr) Usage("--workload is required");
  if (!have_seed) Usage("--seed is required");
  config.def = *def;
  if (toy) {
    config.def.n_log2 = 14;
    config.def.queries_log2 = 14;
  }

  std::printf("perfbench: workload %s, seed %llu, %.3g s, trace %d%s\n",
              config.def.name, static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, toy ? ", toy scale" : "");
  std::fflush(stdout);
  const perfbench::Inputs inputs = perfbench::MakeInputs(config);

  perfbench::Report report;
  if (config.trace) {
    perfbench::RunLadder(config, inputs, &report);
  } else {
    perfbench::RunEndToEnd(config, inputs, &report);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
