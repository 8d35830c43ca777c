// Allocation counter owned by the benchmark.
//
// alloc_count.cpp replaces the global operator new/delete family for the
// whole benchmark binary.  Each thread tallies its own allocations in a
// thread-local counter, so a decorator can read the counter before and
// after the call it wraps and attribute exactly the allocations that call
// made on its thread.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made by the calling thread since it started.
std::uint64_t thread_allocs();

}  // namespace perfbench
