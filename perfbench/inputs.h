// Seeded inputs for one run, generated by src/workload before any timing.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {

struct Inputs {
  uint64_t n = 0;                      // keys inserted (and filter capacity)
  std::vector<uint64_t> insert_keys;   // insertion order
  std::vector<uint64_t> queries;       // the workload's query stream
  std::vector<uint8_t> expected;       // ground truth per query
  uint64_t negatives = 0;              // queries whose truth is "absent"
  // Index of the query whose truth bit --flip-truth corrupted, or npos.
  size_t flipped = npos;

  static constexpr size_t npos = ~size_t{0};
};

Inputs MakeInputs(const Config& config);

// Checks answers[0..count) for queries [pos, pos+count) against the ground
// truth (no false negatives) and, for absent keys, against `reference` (the
// verification pass's answers, so every repeat reproduces the same false
// positives).  `reference` may be null.  Reports violations naming `where`.
void CheckAnswers(const Inputs& in, size_t pos, const uint8_t* answers,
                  size_t count, const std::vector<uint8_t>* reference,
                  const char* where, Report* report);

// One violation message about query `index`.
std::string Describe(const char* what, const Inputs& in, size_t index,
                     const char* where);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
