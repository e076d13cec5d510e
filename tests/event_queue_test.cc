// EventQueue / EventFn unit tests: slot+generation cancellation semantics, slab reuse,
// and the zero-allocation steady state the simulator hot path depends on.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/event_queue.h"
#include "tests/counting_new.h"

namespace totoro {
namespace {

// --- EventFn ---

TEST(EventFnTest, InlineCaptureDoesNotAllocate) {
  char payload[EventFn::kInlineSize - 8] = {1};
  int hits = 0;
  const uint64_t before = AllocationCount();
  EventFn fn([&hits, payload]() { hits += payload[0]; });
  EXPECT_EQ(AllocationCount(), before);
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(EventFnTest, OversizedCaptureFallsBackToHeap) {
  char payload[EventFn::kInlineSize + 64] = {};
  payload[0] = 7;
  int result = 0;
  const uint64_t before = AllocationCount();
  EventFn fn([&result, payload]() { result = payload[0]; });
  EXPECT_GT(AllocationCount(), before);
  fn();
  EXPECT_EQ(result, 7);
}

TEST(EventFnTest, MoveOnlyCaptureSchedules) {
  auto owned = std::make_unique<int>(41);
  EventFn fn([p = std::move(owned)]() { ++*p; });
  EventFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move): move contract.
  EXPECT_TRUE(static_cast<bool>(moved));
  moved();
}

TEST(EventFnTest, DestructionRunsCaptureDestructors) {
  auto tracker = std::make_shared<int>(0);
  {
    EventFn fn([tracker]() {});
    EXPECT_EQ(tracker.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

// --- EventQueue ordering ---

TEST(EventQueueTest, PopsInTimeOrderWithFifoTieBreak) {
  EventQueue q;
  std::vector<int> order;
  q.Push(5.0, [&order]() { order.push_back(1); });
  q.Push(1.0, [&order]() { order.push_back(2); });
  q.Push(5.0, [&order]() { order.push_back(3); });  // Same time as #1: FIFO after it.
  q.Push(3.0, [&order]() { order.push_back(4); });
  SimTime at = 0.0;
  while (q.PopAndRun(&at)) {
  }
  EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3}));
}

TEST(EventQueueTest, PopNextMovesCallbackOut) {
  EventQueue q;
  auto owned = std::make_unique<int>(9);
  q.Push(1.0, [p = std::move(owned)]() { EXPECT_EQ(*p, 9); });
  SimTime at = 0.0;
  EventFn fn;
  ASSERT_TRUE(q.PopNext(&at, &fn));
  EXPECT_EQ(at, 1.0);
  fn();
  EXPECT_FALSE(q.PopNext(&at, &fn));
}

// --- Cancellation ---

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.Push(1.0, [&ran]() { ran = true; });
  EXPECT_TRUE(h.Cancel());
  EXPECT_TRUE(h.IsCancelled());
  SimTime at = 0.0;
  EXPECT_FALSE(q.PopAndRun(&at));
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.cancelled_total(), 1u);
}

TEST(EventQueueTest, CancelAfterFireIsNoOp) {
  EventQueue q;
  EventHandle h = q.Push(1.0, []() {});
  SimTime at = 0.0;
  EXPECT_TRUE(q.PopAndRun(&at));
  EXPECT_FALSE(h.Cancel());
  EXPECT_FALSE(h.IsCancelled());
  EXPECT_EQ(q.cancelled_total(), 0u);
}

TEST(EventQueueTest, SecondCancelReturnsFalse) {
  EventQueue q;
  EventHandle h = q.Push(1.0, []() {});
  EventHandle copy = h;
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.Cancel());
  EXPECT_FALSE(copy.Cancel());  // Copies target the same event.
  EXPECT_EQ(q.cancelled_total(), 1u);
}

TEST(EventQueueTest, HandleOutlivesQueue) {
  EventHandle h;
  {
    EventQueue q;
    h = q.Push(1.0, []() {});
  }
  EXPECT_FALSE(h.Cancel());
  EXPECT_FALSE(h.IsCancelled());
}

TEST(EventQueueTest, StaleHandleCannotCancelReusedSlot) {
  EventQueue q;
  EventHandle stale = q.Push(1.0, []() {});
  SimTime at = 0.0;
  EXPECT_TRUE(q.PopAndRun(&at));  // Slot released; generation bumped.
  bool second_ran = false;
  q.Push(2.0, [&second_ran]() { second_ran = true; });  // Reuses the slot.
  EXPECT_EQ(q.slab_size(), 1u);
  EXPECT_FALSE(stale.Cancel());  // Generation mismatch: must not kill the new tenant.
  EXPECT_TRUE(q.PopAndRun(&at));
  EXPECT_TRUE(second_ran);
}

// --- Slab reuse and steady-state allocation behaviour ---

TEST(EventQueueTest, SlabStaysFlatUnderChurn) {
  EventQueue q;
  for (int round = 0; round < 1000; ++round) {
    q.Push(static_cast<SimTime>(round), []() {});
    SimTime at = 0.0;
    ASSERT_TRUE(q.PopAndRun(&at));
  }
  EXPECT_EQ(q.slab_size(), 1u);  // One slot, reused 1000 times.
}

TEST(EventQueueTest, SteadyStateScheduleFireLoopIsAllocationFree) {
  EventQueue q;
  q.Reserve(64);
  // Warm up: materialize slab slots and heap capacity.
  for (int i = 0; i < 64; ++i) {
    q.Push(static_cast<SimTime>(i), []() {});
  }
  SimTime at = 0.0;
  while (q.PopAndRun(&at)) {
  }

  const uint64_t before = AllocationCount();
  int fired = 0;
  for (int round = 0; round < 10000; ++round) {
    // A capture representative of the delivery closure: well within kInlineSize.
    char payload[48] = {};
    payload[0] = static_cast<char>(round);
    q.Push(static_cast<SimTime>(round), [&fired, payload]() { fired += 1 + 0 * payload[0]; });
    if (round % 2 == 1) {  // Drain in pairs to exercise heap sift paths.
      ASSERT_TRUE(q.PopAndRun(&at));
      ASSERT_TRUE(q.PopAndRun(&at));
    }
  }
  while (q.PopAndRun(&at)) {
  }
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(AllocationCount(), before) << "steady-state schedule/fire loop allocated";
}

TEST(EventQueueTest, CancelChurnIsAllocationFreeAfterWarmup) {
  EventQueue q;
  q.Reserve(16);
  for (int i = 0; i < 16; ++i) {
    q.Push(static_cast<SimTime>(i), []() {});
  }
  SimTime at = 0.0;
  while (q.PopAndRun(&at)) {
  }

  const uint64_t before = AllocationCount();
  for (int round = 0; round < 1000; ++round) {
    EventHandle h = q.Push(static_cast<SimTime>(round), []() {});
    EventHandle keep = q.Push(static_cast<SimTime>(round) + 0.5, []() {});
    EXPECT_TRUE(h.Cancel());
    ASSERT_TRUE(q.PopAndRun(&at));  // Skips the cancelled event, runs `keep`.
    (void)keep;
  }
  EXPECT_EQ(AllocationCount(), before) << "cancel churn allocated";
  EXPECT_EQ(q.cancelled_total(), 1000u);
}

}  // namespace
}  // namespace totoro
