#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rtdrm::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now().ms(), 0.0);
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.scheduleAt(SimTime::millis(30.0), [&] { order.push_back(3); });
  sim.scheduleAt(SimTime::millis(10.0), [&] { order.push_back(1); });
  sim.scheduleAt(SimTime::millis(20.0), [&] { order.push_back(2); });
  sim.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().ms(), 30.0);
}

TEST(Simulator, SameTimestampFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.scheduleAt(SimTime::millis(5.0), [&order, i] { order.push_back(i); });
  }
  sim.runAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.scheduleAfter(SimDuration::millis(12.5), [&] { seen = sim.now().ms(); });
  sim.runAll();
  EXPECT_DOUBLE_EQ(seen, 12.5);
}

TEST(Simulator, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAt(SimTime::millis(10.0), [&] { ++fired; });
  sim.scheduleAt(SimTime::millis(50.0), [&] { ++fired; });
  sim.runUntil(SimTime::millis(20.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().ms(), 20.0);  // idles forward to the horizon
  sim.runUntil(SimTime::millis(100.0));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsExactlyAtHorizonFire) {
  Simulator sim;
  bool fired = false;
  sim.scheduleAt(SimTime::millis(20.0), [&] { fired = true; });
  sim.runUntil(SimTime::millis(20.0));
  EXPECT_TRUE(fired);
}

TEST(Simulator, NestedSchedulingFromCallbacks) {
  Simulator sim;
  std::vector<double> times;
  sim.scheduleAfter(SimDuration::millis(1.0), [&] {
    times.push_back(sim.now().ms());
    sim.scheduleAfter(SimDuration::millis(1.0), [&] {
      times.push_back(sim.now().ms());
    });
  });
  sim.runAll();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id =
      sim.scheduleAfter(SimDuration::millis(5.0), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.runAll();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  const EventId id = sim.scheduleAfter(SimDuration::millis(5.0), [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.scheduleAfter(SimDuration::millis(5.0), [] {});
  sim.runAll();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelUnknownIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventId{999}));
}

TEST(Simulator, StepExecutesExactlyOneLiveEvent) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAfter(SimDuration::millis(1.0), [&] { ++fired; });
  sim.scheduleAfter(SimDuration::millis(2.0), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StepSkipsCancelledTombstones) {
  Simulator sim;
  const EventId a = sim.scheduleAfter(SimDuration::millis(1.0), [] {});
  int fired = 0;
  sim.scheduleAfter(SimDuration::millis(2.0), [&] { ++fired; });
  sim.cancel(a);
  EXPECT_TRUE(sim.step());  // skips tombstone, runs live event
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RequestStopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAfter(SimDuration::millis(1.0), [&] {
    ++fired;
    sim.requestStop();
  });
  sim.scheduleAfter(SimDuration::millis(2.0), [&] { ++fired; });
  sim.runAll();
  EXPECT_EQ(fired, 1);
  sim.runAll();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsExecutedCountsLiveOnly) {
  Simulator sim;
  const EventId a = sim.scheduleAfter(SimDuration::millis(1.0), [] {});
  sim.scheduleAfter(SimDuration::millis(2.0), [] {});
  sim.cancel(a);
  sim.runAll();
  EXPECT_EQ(sim.eventsExecuted(), 1u);
}

TEST(Simulator, PendingEventsExcludesCancelled) {
  Simulator sim;
  const EventId a = sim.scheduleAfter(SimDuration::millis(1.0), [] {});
  sim.scheduleAfter(SimDuration::millis(2.0), [] {});
  EXPECT_EQ(sim.pendingEvents(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(SimulatorDeathTest, SchedulingInPastAsserts) {
  Simulator sim;
  sim.scheduleAfter(SimDuration::millis(10.0), [] {});
  sim.runAll();
  EXPECT_DEATH(sim.scheduleAt(SimTime::millis(5.0), [] {}), "past");
}

TEST(PeriodicActivity, TicksAtFixedIntervals) {
  Simulator sim;
  std::vector<double> times;
  PeriodicActivity act(sim, SimDuration::millis(10.0),
                       [&](std::uint64_t) { times.push_back(sim.now().ms()); });
  act.start(SimTime::millis(5.0));
  sim.runUntil(SimTime::millis(36.0));
  act.stop();
  EXPECT_EQ(times, (std::vector<double>{5.0, 15.0, 25.0, 35.0}));
}

TEST(PeriodicActivity, TickIndicesAreSequential) {
  Simulator sim;
  std::vector<std::uint64_t> ticks;
  PeriodicActivity act(sim, SimDuration::millis(1.0),
                       [&](std::uint64_t t) { ticks.push_back(t); });
  act.start(SimTime::zero());
  sim.runUntil(SimTime::millis(3.5));
  EXPECT_EQ(ticks, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(act.ticks(), 4u);
}

TEST(PeriodicActivity, StopFromWithinCallback) {
  Simulator sim;
  int count = 0;
  PeriodicActivity act(sim, SimDuration::millis(1.0), [&](std::uint64_t) {
    if (++count == 3) {
      act.stop();
    }
  });
  act.start(SimTime::zero());
  sim.runUntil(SimTime::millis(100.0));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(act.running());
}

TEST(PeriodicActivity, StopPreventsFurtherTicks) {
  Simulator sim;
  int count = 0;
  PeriodicActivity act(sim, SimDuration::millis(1.0),
                       [&](std::uint64_t) { ++count; });
  act.start(SimTime::zero());
  sim.runUntil(SimTime::millis(2.5));
  act.stop();
  sim.runUntil(SimTime::millis(10.0));
  EXPECT_EQ(count, 3);  // t = 0, 1, 2
}

TEST(PeriodicActivity, StopIsIdempotent) {
  Simulator sim;
  PeriodicActivity act(sim, SimDuration::millis(1.0), [](std::uint64_t) {});
  act.start(SimTime::zero());
  act.stop();
  act.stop();
  EXPECT_FALSE(act.running());
}


// The execution cursor: at equal times, firedPast(mark) tells whether the
// running event (or, between runs, the run's horizon) sorts after `mark`.
TEST(Simulator, FiredPastTracksSameTimeOrder) {
  Simulator sim;
  const SimTime t = SimTime::millis(2.0);
  sim.scheduleAt(t, [&] {});
  const std::uint64_t mark = sim.orderMark();
  std::vector<bool> seen;
  sim.scheduleAt(t, [&] { seen.push_back(sim.firedPast(mark)); });
  sim.scheduleAt(t, [&] { seen.push_back(sim.firedPast(mark)); });
  sim.runUntilBefore(t);  // exclusive horizon: nothing at t has fired
  EXPECT_EQ(sim.now(), t);
  EXPECT_FALSE(sim.firedPast(mark));
  sim.step();  // the event scheduled before the mark
  EXPECT_FALSE(sim.firedPast(mark));
  sim.runUntil(t);  // inclusive horizon: everything at t has fired
  EXPECT_EQ(seen, (std::vector<bool>{false, true}));
  EXPECT_TRUE(sim.firedPast(mark));
}

// The insertion guard runs before the new event takes its order key, so an
// event it schedules at the same time fires first; disarming closes it.
TEST(Simulator, InsertionGuardRunsBeforeTheKeyIsTaken) {
  Simulator sim;
  std::vector<int> order;
  std::vector<double> guarded;
  sim.armInsertionGuard(SimTime::millis(1.0), SimTime::millis(3.0),
                        [&](SimTime at) {
                          guarded.push_back(at.ms());
                          sim.disarmInsertionGuard();
                          sim.scheduleAt(at, [&] { order.push_back(1); });
                        });
  EXPECT_TRUE(sim.insertionGuardArmed());
  sim.scheduleAt(SimTime::millis(0.5), [&] { order.push_back(0); });
  sim.scheduleAt(SimTime::millis(2.0), [&] { order.push_back(2); });
  EXPECT_FALSE(sim.insertionGuardArmed());
  sim.scheduleAt(SimTime::millis(2.0), [&] { order.push_back(3); });
  sim.runAll();
  EXPECT_EQ(guarded, (std::vector<double>{2.0}));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// A reserved key is the one scheduleAt() would have taken, guard included;
// a deferred event under it takes its turn in step() between the events
// scheduled before and after it, and scheduleReserved() puts it back on
// the calendar in the same place.
TEST(Simulator, ReservedKeyOrdersDeferredAndReservedEvents) {
  Simulator sim;
  const SimTime t = SimTime::millis(5.0);
  std::vector<double> guarded;
  sim.armInsertionGuard(t, t, [&](SimTime at) {
    guarded.push_back(at.ms());
    sim.disarmInsertionGuard();
  });
  std::vector<int> order;
  sim.scheduleAt(t, [&] { order.push_back(0); });  // disarms the guard
  const std::uint64_t mark = sim.orderMark();
  const std::uint64_t key = sim.reserveOrderKey(t);
  EXPECT_EQ(key, mark);
  sim.defer(t, key, [&] { order.push_back(1); });
  const std::uint64_t key2 = sim.reserveOrderKey(t);
  sim.scheduleAt(t, [&] { order.push_back(3); });
  sim.scheduleReserved(t, key2, [&] { order.push_back(2); });
  EXPECT_EQ(guarded, (std::vector<double>{5.0}));
  while (sim.step()) {
    EXPECT_EQ(sim.now(), t);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.eventsExecuted(), 3u);  // the deferred one is not counted
}

// passed() is the tie rule for elided events; a deferred event a run has
// passed is applied by the next step() without counting as the step, and
// runAll() ends at the last deferred event's instant.
TEST(Simulator, DeferredEventsInRunsAndSteps) {
  Simulator sim;
  int applied = 0;
  const std::uint64_t k1 = sim.reserveOrderKey(SimTime::millis(2.0));
  sim.defer(SimTime::millis(2.0), k1, [&] { ++applied; });
  sim.scheduleAt(SimTime::millis(4.0), [] {});
  sim.runUntil(SimTime::millis(3.0));
  EXPECT_TRUE(sim.passed(SimTime::millis(2.0), k1));
  EXPECT_FALSE(sim.passed(SimTime::millis(4.0), k1));
  EXPECT_EQ(applied, 0);  // nothing touched it
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(applied, 1);
  EXPECT_DOUBLE_EQ(sim.now().ms(), 4.0);

  const std::uint64_t k2 = sim.reserveOrderKey(SimTime::millis(7.0));
  sim.defer(SimTime::millis(7.0), k2, [&] { ++applied; });
  const std::uint64_t k3 = sim.reserveOrderKey(SimTime::millis(9.0));
  const Simulator::DeferredId dropped =
      sim.defer(SimTime::millis(9.0), k3, [&] { applied += 100; });
  sim.undefer(dropped);
  EXPECT_TRUE(sim.runAll());
  EXPECT_EQ(applied, 2);
  EXPECT_DOUBLE_EQ(sim.now().ms(), 7.0);
  EXPECT_TRUE(sim.passed(SimTime::millis(7.0), k2));
  SimTime next;
  EXPECT_FALSE(sim.peekNextEvent(&next));
}

}  // namespace
}  // namespace rtdrm::sim
