// Global allocation counter for tests that assert "no heap traffic".
//
// Linking tests/counting_new.cc into a test binary replaces the global operator new and
// delete with malloc/free wrappers that count every allocation. The replacements live
// in their own translation unit on purpose: when their bodies are visible where the
// standard library allocates, GCC inlines the free() into the caller and reports it as
// freeing memory from operator new (-Wmismatched-new-delete). Out of line, every call
// site sees a plain new/delete pair.
#ifndef TESTS_COUNTING_NEW_H_
#define TESTS_COUNTING_NEW_H_

#include <cstdint>

namespace totoro {

// Global allocations (operator new and new[]) since process start. Counting is always
// on (one relaxed atomic increment); tests snapshot it around the region of interest.
uint64_t AllocationCount();

}  // namespace totoro

#endif  // TESTS_COUNTING_NEW_H_
