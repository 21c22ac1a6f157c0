#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>
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

// The pre-event hook runs once the clock and cursor sit at the event,
// before its callback; the post-event hook after it.
TEST(Simulator, PreEventHookRunsAtTheEventBeforeItsCallback) {
  Simulator sim;
  std::vector<std::string> log;
  const std::uint64_t mark = sim.orderMark();
  sim.setPreEventHook([&] {
    log.push_back("pre@" + std::to_string(sim.now().ms()) +
                  (sim.firedPast(mark) ? "+" : "="));
  });
  sim.setPostEventHook([&] { log.push_back("post"); });
  sim.scheduleAt(SimTime::millis(1.5), [&] { log.push_back("cb"); });
  sim.scheduleAt(SimTime::millis(1.5), [&] { log.push_back("cb2"); });
  sim.runAll();
  EXPECT_EQ(log, (std::vector<std::string>{"pre@1.500000=", "cb", "post",
                                           "pre@1.500000+", "cb2", "post"}));
  sim.setPreEventHook(nullptr);
  sim.scheduleAt(SimTime::millis(2.0), [&] { log.push_back("cb3"); });
  sim.runAll();
  EXPECT_EQ(log.back(), "post");
  EXPECT_EQ(log[log.size() - 2], "cb3");
}

// The insertion guard runs before the new event takes its order key, so an
// event it schedules at the same time fires first; disarming closes it.
TEST(Simulator, InsertionGuardRunsBeforeTheKeyIsTaken) {
  Simulator sim;
  std::vector<int> order;
  std::vector<double> guarded;
  Simulator::GuardId id = 0;
  id = sim.addInsertionGuard([&](SimTime at) {
    guarded.push_back(at.ms());
    sim.disarmInsertionGuard(id);
    sim.scheduleAt(at, [&] { order.push_back(1); });
  });
  sim.armInsertionGuard(id, SimTime::millis(1.0), SimTime::millis(3.0));
  EXPECT_TRUE(sim.insertionGuardArmed(id));
  sim.scheduleAt(SimTime::millis(0.5), [&] { order.push_back(0); });
  sim.scheduleAt(SimTime::millis(2.0), [&] { order.push_back(2); });
  EXPECT_FALSE(sim.insertionGuardArmed(id));
  sim.scheduleAt(SimTime::millis(2.0), [&] { order.push_back(3); });
  sim.runAll();
  EXPECT_EQ(guarded, (std::vector<double>{2.0}));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  sim.removeInsertionGuard(id);
}

// Several clients at once: each armed client runs for every schedule call
// inside its own span, before the call's key is taken; a disarmed one is
// skipped; a client may disarm itself from its callback.
TEST(Simulator, InsertionGuardServesSeveralClients) {
  Simulator sim;
  std::vector<std::string> calls;
  std::vector<Simulator::GuardId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(sim.addInsertionGuard([&, i](SimTime at) {
      calls.push_back(std::to_string(i) + "@" + std::to_string(at.ms()));
      if (i == 2) {
        sim.disarmInsertionGuard(ids[2]);
      }
    }));
  }
  sim.armInsertionGuard(ids[0], SimTime::millis(1.0), SimTime::millis(4.0));
  sim.armInsertionGuard(ids[1], SimTime::millis(3.0), SimTime::millis(6.0));
  sim.armInsertionGuard(ids[2], SimTime::millis(0.0), SimTime::millis(9.0));
  sim.scheduleAt(SimTime::millis(2.0), [] {});
  EXPECT_EQ(calls, (std::vector<std::string>{"2@2.000000", "0@2.000000"}));
  EXPECT_FALSE(sim.insertionGuardArmed(ids[2]));
  calls.clear();
  sim.scheduleAt(SimTime::millis(3.5), [] {});
  EXPECT_EQ(calls.size(), 2u);
  calls.clear();
  sim.disarmInsertionGuard(ids[0]);
  sim.scheduleAt(SimTime::millis(3.5), [] {});
  EXPECT_EQ(calls, (std::vector<std::string>{"1@3.500000"}));
  calls.clear();
  sim.scheduleAt(SimTime::millis(7.0), [] {});
  EXPECT_TRUE(calls.empty());
  for (const Simulator::GuardId id : ids) {
    sim.removeInsertionGuard(id);
  }
}

/// A timeline of scripted (time, key) instants, applied in order.
class ScriptedTimeline final : public Simulator::Timeline {
 public:
  ScriptedTimeline(Simulator& sim, std::vector<int>& log)
      : sim_(sim), log_(log), id_(sim.addTimeline(this)) {}
  ~ScriptedTimeline() { sim_.removeTimeline(id_); }
  void add(SimTime at, std::uint64_t key, int tag) {
    instants_.push_back({at, key, tag});
    publish();
  }
  void applyInstant() override {
    log_.push_back(instants_[next_++].tag);
    publish();
  }

 private:
  void publish() {
    if (next_ < instants_.size()) {
      sim_.setTimelineNext(id_, instants_[next_].at, instants_[next_].key);
    } else {
      sim_.clearTimelineNext(id_);
    }
  }
  struct Instant {
    SimTime at;
    std::uint64_t key;
    int tag;
  };
  Simulator& sim_;
  std::vector<int>& log_;
  Simulator::TimelineId id_;
  std::vector<Instant> instants_;
  std::size_t next_ = 0;
};

// A timeline instant keyed with takeOrderKey() takes its turn between the
// events scheduled before and after the key was taken, as the event it
// stands for would have; it runs no hook and is not counted as an event.
TEST(Simulator, TimelineInstantTakesItsTurnByKey) {
  Simulator sim;
  const SimTime t = SimTime::millis(5.0);
  std::vector<int> order;
  ScriptedTimeline timeline(sim, order);
  int hooks = 0;
  sim.setPostEventHook([&] { ++hooks; });
  sim.scheduleAt(t, [&] { order.push_back(0); });
  const std::uint64_t mark = sim.orderMark();
  const std::uint64_t key = sim.takeOrderKey();
  EXPECT_EQ(key, mark);
  timeline.add(t, key, 1);
  sim.scheduleAt(t, [&] { order.push_back(2); });
  while (sim.step()) {
    EXPECT_EQ(sim.now(), t);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.eventsExecuted(), 2u);
  EXPECT_EQ(sim.instantsApplied(), 1u);
  EXPECT_EQ(hooks, 2);
}

// Every run applies instants in their turn: runUntil() those at its
// horizon, runUntilBefore() none there; runAll() ends at the last one, and
// peekNextEvent() reports them.
TEST(Simulator, TimelineInstantsInRunsAndSteps) {
  Simulator sim;
  std::vector<int> applied;
  ScriptedTimeline timeline(sim, applied);
  timeline.add(SimTime::millis(2.0), sim.takeOrderKey(), 1);
  timeline.add(SimTime::millis(3.0), sim.takeOrderKey(), 2);
  sim.scheduleAt(SimTime::millis(4.0), [] {});
  SimTime next;
  ASSERT_TRUE(sim.peekNextEvent(&next));
  EXPECT_DOUBLE_EQ(next.ms(), 2.0);
  sim.runUntilBefore(SimTime::millis(3.0));
  EXPECT_EQ(applied, (std::vector<int>{1}));
  sim.runUntil(SimTime::millis(3.0));
  EXPECT_EQ(applied, (std::vector<int>{1, 2}));
  EXPECT_TRUE(sim.step());
  EXPECT_DOUBLE_EQ(sim.now().ms(), 4.0);

  timeline.add(SimTime::millis(7.0), sim.takeOrderKey(), 3);
  EXPECT_TRUE(sim.runAll());
  EXPECT_EQ(applied, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().ms(), 7.0);
  EXPECT_FALSE(sim.peekNextEvent(&next));
  EXPECT_EQ(sim.eventsExecuted(), 1u);
}

}  // namespace
}  // namespace rtdrm::sim
