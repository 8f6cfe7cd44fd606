#include "perfbench/inputs.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "bench/harness.h"
#include "src/workload/workload.h"

namespace perfbench {

Inputs MakeInputs(const Config& config) {
  const WorkloadDef& def = config.def;
  Inputs in;
  prefixfilter::bench::Options sizing;  // n = 0.94 * 2^L, as every bench
  sizing.n_log2 = def.n_log2;
  in.n = sizing.n();
  prefixfilter::workload::Spec spec;
  if (!prefixfilter::workload::FindStandardSpec(
          def.stream, in.n, uint64_t{1} << def.queries_log2, config.seed,
          &spec)) {
    std::fprintf(stderr, "perfbench: unknown stream %s\n", def.stream);
    std::exit(2);
  }
  prefixfilter::workload::Stream stream =
      prefixfilter::workload::Generate(spec);
  in.insert_keys = std::move(stream.insert_keys);
  in.queries = std::move(stream.queries);
  in.expected = std::move(stream.query_expected);
  for (uint8_t e : in.expected) in.negatives += (e == 0);
  if (config.flip_truth) {
    for (size_t i = 0; i < in.expected.size(); ++i) {
      if (in.expected[i] == 0) {
        in.expected[i] = 1;
        in.flipped = i;
        std::fprintf(stderr,
                     "perfbench: --flip-truth: query #%zu (key 0x%016" PRIx64
                     ") now claims to be present\n",
                     i, in.queries[i]);
        break;
      }
    }
  }
  return in;
}

std::string Describe(const char* what, const Inputs& in, size_t index,
                     const char* where) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s: query #%zu (key 0x%016" PRIx64 ") in %s",
                what, index, in.queries[index], where);
  return buf;
}

void CheckAnswers(const Inputs& in, size_t pos, const uint8_t* answers,
                  size_t count, const std::vector<uint8_t>* reference,
                  const char* where, Report* report) {
  for (size_t i = 0; i < count; ++i) {
    const size_t q = pos + i;
    if (in.expected[q] != 0) {
      if (answers[i] == 0) {
        report->Violation(Describe("false negative", in, q, where));
      }
    } else if (reference != nullptr && answers[i] != (*reference)[q]) {
      report->Violation(Describe(
          "answer differs from the verification pass (fpr not reproducible)",
          in, q, where));
    }
  }
}

}  // namespace perfbench
