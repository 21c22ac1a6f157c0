#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

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

// A lane event is an ordinary event: same keys, ids, cancel() and hooks as
// a heap event, in the same order; only the heap's own high-water mark
// leaves it out.
TEST(Simulator, LaneEventsAreOrdinaryEvents) {
  Simulator sim;
  sim.addLane(SimDuration::millis(1.0));
  std::vector<int> order;
  int hooks = 0;
  sim.setPostEventHook([&] { ++hooks; });
  const EventId first = sim.scheduleAfter(SimDuration::millis(1.0),
                                          [&] { order.push_back(0); });
  sim.scheduleAt(SimTime::millis(1.0), [&] { order.push_back(1); });
  const EventId third = sim.scheduleAfter(SimDuration::millis(1.0),
                                          [&] { order.push_back(2); });
  sim.scheduleAfter(SimDuration::millis(1.0), [&] { order.push_back(3); });
  EXPECT_EQ(sim.laneEvents(), 3u);
  EXPECT_EQ(sim.peakHeapDepth(), 1u);
  EXPECT_EQ(sim.pendingEvents(), 4u);
  EXPECT_TRUE(sim.cancel(third));
  EXPECT_FALSE(sim.cancel(third));
  SimTime next;
  ASSERT_TRUE(sim.peekNextEvent(&next));
  EXPECT_DOUBLE_EQ(next.ms(), 1.0);
  sim.runAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.eventsExecuted(), 3u);
  EXPECT_EQ(sim.eventsCancelled(), 1u);
  EXPECT_EQ(hooks, 3);
}

// At most four lanes; a fifth or repeated registration is a no-op and its
// delay's events stay in the heap.
TEST(Simulator, AFifthLaneIsANoOp) {
  Simulator sim;
  for (int d = 1; d <= 5; ++d) {
    sim.addLane(SimDuration::millis(d));
  }
  sim.addLane(SimDuration::millis(1.0));
  for (int d = 1; d <= 5; ++d) {
    sim.scheduleAfter(SimDuration::millis(d), [] {});
  }
  sim.scheduleAfter(SimDuration::millis(1.5), [] {});
  EXPECT_EQ(sim.laneEvents(), 4u);
  EXPECT_EQ(sim.peakHeapDepth(), 2u);
  EXPECT_TRUE(sim.runAll());
  EXPECT_EQ(sim.eventsExecuted(), 6u);
}

std::string hexMs(double ms) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", ms);
  return buf;
}

/// One side of the lane parity check: a simulator driven by a random
/// script that logs everything observable (fired events with their time,
/// key and id, hook calls, guard calls, cancel() results, run results,
/// peekNextEvent(), firedPast()/orderMark() and the counters). Two scripts
/// with the same seed must log the same lines whether or not their
/// simulator has lanes.
class LaneScript final : public Simulator::Timeline {
 public:
  /// The script's fixed delays (ms), a zero delay among them. With lanes,
  /// all five are registered; the fifth registration is a no-op, so 2.0
  /// stays in the heap.
  static constexpr std::array<double, 5> kDelays = {0.0, 0.5, 1.25, 3.0,
                                                    2.0};

  LaneScript(std::uint64_t seed, bool lanes) : rng_(seed) {
    if (lanes) {
      for (const double d : kDelays) {
        sim_.addLane(SimDuration::millis(d));
      }
    }
    timeline_ = sim_.addTimeline(this);
    guard_ = sim_.addInsertionGuard([this](SimTime at) { onGuard(at); });
    sim_.setPreEventHook([this] { note("pre"); });
    sim_.setPostEventHook([this] { note("post"); });
  }
  ~LaneScript() {
    sim_.removeTimeline(timeline_);
    sim_.removeInsertionGuard(guard_);
  }

  const Simulator& sim() const { return sim_; }
  const std::vector<std::string>& log() const { return log_; }
  /// Guard calls made for a fixed-delay scheduleAfter() (a lane push when
  /// the simulator has lanes).
  int guardedFixedPushes() const { return guarded_fixed_pushes_; }
  /// Pending head, middle or tail entries of a lane delay cancelled.
  int pendingFixedCancels() const { return pending_fixed_cancels_; }

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      mark_ = sim_.orderMark();
      const std::int64_t kind = rng_.uniformInt(0, 15);
      std::string line = "op" + std::to_string(kind);
      switch (kind) {
        case 0:
        case 1:
        case 2:
          spawn(4);
          break;
        case 3:
          line += tieBurst();
          break;
        case 4:
        case 5:
          line += " runUntil=" + std::to_string(sim_.runUntil(horizon()));
          break;
        case 6:
          line += " runUntilBefore=" +
                  std::to_string(sim_.runUntilBefore(horizon()));
          break;
        case 7:
        case 8:
          line += " step=" + std::to_string(sim_.step());
          break;
        case 9:
          line += cancelFixed();
          break;
        case 10:
          if (!ids_.empty()) {
            const std::size_t n = pick(ids_.size());
            line += " cancel#" + std::to_string(n) + "=" +
                    std::to_string(cancel(n));
          }
          break;
        case 11:
          if (!sim_.insertionGuardArmed(guard_)) {
            const double lo = sim_.now().ms() + 0.25 * pick(8);
            sim_.armInsertionGuard(guard_, SimTime::millis(lo),
                                   SimTime::millis(lo + 0.25 * pick(16)));
          } else {
            sim_.disarmInsertionGuard(guard_);
          }
          break;
        case 12:
          sim_.requestStop();
          break;
        case 13: {
          SimTime next;
          const bool have = sim_.peekNextEvent(&next);
          line += " peek=" + std::to_string(have) +
                  (have ? "@" + hexMs(next.ms()) : "");
          break;
        }
        case 14:
          line += " runAll=" + std::to_string(sim_.runAll());
          break;
        default:
          addInstant(SimTime::millis(sim_.now().ms() + fixedDelay()));
          break;
      }
      note(line);
      log_.push_back("counters " + std::to_string(sim_.eventsExecuted()) +
                     " " + std::to_string(sim_.eventsScheduled()) + " " +
                     std::to_string(sim_.eventsCancelled()) + " " +
                     std::to_string(sim_.pendingEvents()) + " " +
                     std::to_string(sim_.instantsApplied()) + " mark " +
                     std::to_string(sim_.orderMark()) + " past " +
                     std::to_string(sim_.firedPast(mark_)));
    }
    if (sim_.stopPending()) {
      sim_.consumeStopRequest();
    }
    sim_.disarmInsertionGuard(guard_);
    note(" drain=" + std::to_string(sim_.runAll()));
  }

  void applyInstant() override {
    const auto it = instants_.begin();
    const int n = std::get<2>(*it);
    instants_.erase(it);
    publish();
    note("instant#" + std::to_string(n));
    if (rng_.uniform01() < 0.3) {
      spawn(1);
    }
  }

 private:
  double fixedDelay() { return kDelays[pick(kDelays.size())]; }
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(n) - 1));
  }

  /// The same-time key of the running event (or the cursor between runs):
  /// the least mark firedPast() does not pass.
  std::uint64_t cursorKey() const {
    std::uint64_t lo = 0;
    std::uint64_t hi = ~0ull;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (sim_.firedPast(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  void note(const std::string& what) {
    log_.push_back(what + " @" + hexMs(sim_.now().ms()) + " k" +
                   std::to_string(cursorKey()));
  }

  /// A time a run may stop at: often exactly a pending fixed-delay event's.
  SimTime horizon() {
    if (!fixed_times_.empty() && rng_.uniform01() < 0.6) {
      const std::size_t recent = std::min<std::size_t>(16, fixed_times_.size());
      const double t = fixed_times_[fixed_times_.size() - 1 - pick(recent)];
      if (t >= sim_.now().ms()) {
        return SimTime::millis(t);
      }
    }
    return SimTime::millis(sim_.now().ms() + 0.25 * pick(20));
  }

  /// Schedules one event that may spawn `depth - 1` levels more.
  void spawn(int depth) {
    if (ids_.size() >= 4000) {
      return;
    }
    const std::int64_t kind = rng_.uniformInt(0, 9);
    if (kind < 5) {
      scheduleFixed(fixedDelay(), depth);
      return;
    }
    const std::size_t n = nextId();
    EventId id;
    if (kind < 7) {
      // Quarter-millisecond delays: some equal a lane's, most do not.
      const double d = 0.25 * pick(25);
      id = sim_.scheduleAfter(SimDuration::millis(d), body(n, depth));
    } else if (kind < 9) {
      id = sim_.scheduleAt(SimTime::millis(sim_.now().ms() + fixedDelay()),
                           body(n, depth));
    } else {
      id = sim_.scheduleAtMerged(
          SimTime::millis(sim_.now().ms() + fixedDelay()),
          static_cast<std::uint32_t>(pick(3)), ++merged_seq_, body(n, depth));
    }
    ids_[n] = id;
  }

  void scheduleFixed(double d, int depth) {
    const std::size_t lane = static_cast<std::size_t>(
        std::find(kDelays.begin(), kDelays.end(), d) - kDelays.begin());
    const std::size_t n = nextId();
    in_fixed_push_ = true;
    const EventId id =
        sim_.scheduleAfter(SimDuration::millis(d), body(n, depth));
    in_fixed_push_ = false;
    ids_[n] = id;
    fixed_[lane].push_back(n);
    fixed_times_.push_back(sim_.now().ms() + d);
  }

  /// Equal-time ties at one fixed delay: a fixed-delay event, then the
  /// same time through scheduleAt(), a merged post and a timeline
  /// instant, then a fixed-delay event again.
  std::string tieBurst() {
    const double d = fixedDelay();
    const SimTime at = SimTime::millis(sim_.now().ms() + d);
    scheduleFixed(d, 2);
    std::size_t n = nextId();
    EventId id = sim_.scheduleAt(at, body(n, 1));
    ids_[n] = id;
    n = nextId();
    id = sim_.scheduleAtMerged(at, 1, ++merged_seq_, body(n, 1));
    ids_[n] = id;
    addInstant(at);
    scheduleFixed(d, 2);
    return " ties@" + hexMs(at.ms());
  }

  /// Cancels the head, the middle or the tail of one delay's pending
  /// events, or one of its events at random (most have fired already).
  std::string cancelFixed() {
    const std::size_t lane = pick(kDelays.size());
    const std::vector<std::size_t>& ids = fixed_[lane];
    if (ids.empty()) {
      return "";
    }
    std::vector<std::size_t> pending;
    for (std::size_t i = ids.size() > 64 ? ids.size() - 64 : 0;
         i < ids.size(); ++i) {
      if (!done_[ids[i]]) {
        pending.push_back(ids[i]);
      }
    }
    const std::size_t where = pick(4);
    std::size_t n = ids[pick(ids.size())];
    if (where < 3 && !pending.empty()) {
      n = where == 0   ? pending.front()
          : where == 1 ? pending[pending.size() / 2]
                       : pending.back();
    }
    const bool cancelled = cancel(n);
    if (cancelled && where < 3 && lane < Simulator::kMaxLanes) {
      ++pending_fixed_cancels_;
    }
    return " cancel-fixed" + std::to_string(lane) + "/" +
           std::to_string(where) + "#" + std::to_string(n) + "=" +
           std::to_string(cancelled);
  }

  bool cancel(std::size_t n) {
    const bool cancelled = sim_.cancel(ids_[n]);
    done_[n] = done_[n] || cancelled;
    return cancelled;
  }

  /// Reserves the script id of an event about to be scheduled (a guard
  /// call may schedule another one first).
  std::size_t nextId() {
    ids_.emplace_back();
    done_.push_back(false);
    return ids_.size() - 1;
  }

  Simulator::Callback body(std::size_t n, int depth) {
    return [this, n, depth] {
      done_[n] = true;
      note("fire#" + std::to_string(n) + " past " +
           std::to_string(sim_.firedPast(mark_)) + " mark " +
           std::to_string(sim_.orderMark()));
      // Cancelling itself fails: the id is dead once the event fires.
      log_.push_back("self-cancel=" + std::to_string(sim_.cancel(ids_[n])));
      if (rng_.uniform01() < 0.03) {
        sim_.requestStop();
        log_.push_back("stop");
      }
      if (rng_.uniform01() < 0.1) {
        log_.push_back(cancelFixed());
      }
      if (depth > 1) {
        const std::int64_t children = rng_.uniformInt(0, 2);
        for (std::int64_t c = 0; c < children; ++c) {
          spawn(depth - 1);
        }
      }
    };
  }

  void addInstant(SimTime at) {
    instants_.insert({at.ms(), sim_.takeOrderKey(), next_instant_++});
    publish();
  }
  void publish() {
    if (instants_.empty()) {
      sim_.clearTimelineNext(timeline_);
      return;
    }
    const auto& [at_ms, key, n] = *instants_.begin();
    sim_.setTimelineNext(timeline_, SimTime::millis(at_ms), key);
  }

  void onGuard(SimTime at) {
    if (in_fixed_push_) {
      ++guarded_fixed_pushes_;
    }
    log_.push_back("guard@" + hexMs(at.ms()) + " mark " +
                   std::to_string(sim_.orderMark()));
    if (rng_.uniform01() < 0.3) {
      // As the bus does: disarm, then schedule ahead of the pending call.
      sim_.disarmInsertionGuard(guard_);
      const bool fixed = in_fixed_push_;
      in_fixed_push_ = false;
      const std::size_t n = nextId();
      const EventId id = sim_.scheduleAt(at, body(n, 1));
      ids_[n] = id;
      in_fixed_push_ = fixed;
    }
  }

  Simulator sim_;
  Xoshiro256 rng_;
  Simulator::TimelineId timeline_ = 0;
  Simulator::GuardId guard_ = 0;
  std::vector<std::string> log_;
  std::vector<EventId> ids_;
  std::vector<bool> done_;  // fired or cancelled, by script id
  /// Per fixed delay: the script ids of its scheduleAfter() events.
  std::array<std::vector<std::size_t>, kDelays.size()> fixed_;
  std::vector<double> fixed_times_;
  std::set<std::tuple<double, std::uint64_t, int>> instants_;
  int next_instant_ = 0;
  std::uint64_t merged_seq_ = 0;
  std::uint64_t mark_ = 0;
  bool in_fixed_push_ = false;
  int guarded_fixed_pushes_ = 0;
  int pending_fixed_cancels_ = 0;
};

// Lanes change where an event waits, never when it fires: random scripts
// log the same lines on a simulator with lanes as on one without.
TEST(Simulator, LanesKeepTheHeapOnlyOrderBitForBit) {
  std::uint64_t lane_events = 0;
  int guarded_lane_pushes = 0;
  int pending_cancels = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    LaneScript with(seed, true);
    LaneScript without(seed, false);
    with.run(400);
    without.run(400);
    const auto& a = with.log();
    const auto& b = without.log();
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t first = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] != b[i]) {
        first = i;
        break;
      }
    }
    ASSERT_EQ(first, n) << "seed " << seed << ": lanes log \"" << a[first]
                        << "\", heap-only log \"" << b[first] << "\"";
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    EXPECT_EQ(without.sim().laneEvents(), 0u);
    EXPECT_LE(with.sim().peakHeapDepth(), without.sim().peakHeapDepth());
    lane_events += with.sim().laneEvents();
    guarded_lane_pushes += with.guardedFixedPushes();
    pending_cancels += with.pendingFixedCancels();
  }
  // Not vacuous: lanes carried events, the guard saw lane pushes and
  // pending lane entries were cancelled.
  EXPECT_GT(lane_events, 10000u);
  EXPECT_GT(guarded_lane_pushes, 100);
  EXPECT_GT(pending_cancels, 100);
}

}  // namespace
}  // namespace rtdrm::sim
