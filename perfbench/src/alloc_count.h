// Global heap-allocation counter for the benchmark binary. alloc_count.cc
// replaces the global operator new; counting is off until
// SetAllocCounting(true), so untraced runs pay one predictable branch.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

void SetAllocCounting(bool on);
AllocTotals AllocCounts();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
