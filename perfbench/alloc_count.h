// Process-wide heap allocation counter.
//
// alloc_count.cc replaces the global operator new/delete family for the
// whole perfbench binary (the library is linked statically, so its
// allocations go through the replacement too).  Every successful operator
// new bumps one relaxed atomic; the ladder reads it around a phase and
// divides by the frames that phase moved ("allocations per message").
// malloc/free calls that bypass operator new are not counted.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

// Allocations made through operator new since the process started.
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
