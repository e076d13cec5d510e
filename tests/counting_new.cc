#include "tests/counting_new.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace totoro {

uint64_t AllocationCount() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace totoro
