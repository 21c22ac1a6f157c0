// Lone callback-free completions, the shortest node train
// (node/processor.hpp), against the end events they replace. A job with an
// on_complete always completes on an event of its own, so the same random
// job stream is run twice: once with its callback-free jobs bare (their
// completions are train instants) and once with a no-op callback on each
// (every completion is an event). Every read, the clock after each step()
// and the clock at the end of the run must match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "node/processor.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::node {
namespace {

enum class Drive { kRunAll, kSteps, kHorizons };
enum class Callbacks { kBare, kNoOp, kRecordInstants };

/// A scripted action at an instant. Planted before the run starts, so it
/// sorts ahead of every event the run schedules at the same instant; with
/// `chain` a read also schedules a second read at the same instant from
/// inside the first, which sorts behind them.
struct Op {
  enum Kind { kSubmit, kAbort, kCrash, kRestart, kThrottle, kRead } kind;
  double at = 0.0;
  double demand = 0.0;   // kSubmit
  bool callback = false; // kSubmit: a real callback, in both runs
  int priority = 0;
  double deadline = 0.0;
  double period = 0.0;
  std::size_t target = 0;  // kAbort: index into the submitted ids
  double factor = 1.0;     // kThrottle
  bool chain = false;      // kRead: read again behind this instant's events
};

struct Script {
  ProcessorConfig cfg;
  std::vector<Op> ops;
  /// Random run horizons for Drive::kHorizons.
  std::vector<double> horizons;
};

Op randomSubmit(Xoshiro256& rng, double at) {
  Op op{Op::kSubmit};
  op.at = at;
  // Zero demands and sub-quantum demands on purpose: they give the
  // shortest stretches and the most exact ties.
  const double u = rng.uniform01();
  op.demand = u < 0.1 ? 0.0 : (u < 0.4 ? rng.uniform(0.01, 0.9)
                                       : rng.uniform(0.5, 6.0));
  op.callback = rng.uniform01() < 0.3;
  op.priority = static_cast<int>(rng.uniformInt(0, 3));
  op.deadline = rng.uniform01() < 0.7 ? at + rng.uniform(2.0, 40.0) : 0.0;
  op.period = rng.uniform01() < 0.7 ? rng.uniform(2.0, 30.0) : 0.0;
  return op;
}

Script makeScript(int policy, bool context_switch, std::uint64_t seed) {
  Xoshiro256 rng(seed * 7919 + static_cast<std::uint64_t>(policy) * 31 +
                 (context_switch ? 1 : 0));
  Script s;
  s.cfg.policy = static_cast<SchedPolicy>(policy);
  s.cfg.quantum = SimDuration::millis(rng.uniform(0.25, 2.0));
  if (context_switch) {
    s.cfg.context_switch = SimDuration::millis(rng.uniform(0.01, 0.2));
  }
  // Sparse arrivals, so that jobs often run alone and their completions
  // defer, with bursts that contend.
  double t = 0.0;
  for (int i = 0; i < 50; ++i) {
    t += rng.uniform01() < 0.3 ? rng.uniform(0.0, 0.5) : rng.uniform(1.0, 8.0);
    s.ops.push_back(randomSubmit(rng, t));
  }
  const double end = t;
  for (int i = 0; i < 8; ++i) {
    Op op{Op::kAbort};
    op.at = rng.uniform(0.0, end);
    op.target = static_cast<std::size_t>(rng.uniformInt(0, 49));
    s.ops.push_back(op);
  }
  for (int i = 0; i < 2; ++i) {
    Op crash{Op::kCrash};
    crash.at = rng.uniform(0.0, end);
    s.ops.push_back(crash);
    Op restart{Op::kRestart};
    restart.at = crash.at + rng.uniform(0.5, 6.0);
    s.ops.push_back(restart);
  }
  for (int i = 0; i < 5; ++i) {
    Op op{Op::kThrottle};
    op.at = rng.uniform(0.0, end);
    const double factors[] = {0.5, 0.75, 1.0, 2.0};
    op.factor = factors[rng.uniformInt(0, 3)];
    s.ops.push_back(op);
  }
  for (int i = 0; i < 40; ++i) {
    Op op{Op::kRead};
    op.at = rng.uniform(0.0, end + 5.0);
    op.chain = rng.uniform01() < 0.5;
    s.ops.push_back(op);
  }
  for (int i = 0; i < 12; ++i) {
    s.horizons.push_back(rng.uniform(0.0, end + 5.0));
  }
  return s;
}

/// Everything a caller can read off a processor, with doubles as bits.
struct Reading {
  std::uint64_t t = 0;
  std::uint64_t busy_time = 0;
  std::uint64_t served = 0;
  std::uint64_t overhead = 0;
  std::size_t resident = 0;
  bool busy = false;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t rejected = 0;
  bool operator==(const Reading&) const = default;
};

std::string describe(const Reading& r) {
  return "t=" + std::to_string(std::bit_cast<double>(r.t)) +
         " busy_time=" + std::to_string(std::bit_cast<double>(r.busy_time)) +
         " served=" + std::to_string(std::bit_cast<double>(r.served)) +
         " overhead=" + std::to_string(std::bit_cast<double>(r.overhead)) +
         " resident=" + std::to_string(r.resident) +
         " busy=" + std::to_string(r.busy) +
         " completed=" + std::to_string(r.completed) +
         " aborted=" + std::to_string(r.aborted);
}

struct Outcome {
  std::vector<Reading> reads;
  std::vector<std::uint64_t> step_times;
  std::uint64_t end_time = 0;
  std::uint64_t events = 0;
  std::vector<double> completions;  // Callbacks::kRecordInstants only
};

/// Runs `script` once. Callback-free jobs get no callback (kBare), a no-op
/// one (kNoOp) or one that records its completion instant. `instants` are
/// completion instants of the stream: reads are planted there, and some
/// serve as run horizons.
Outcome run(const Script& script, Callbacks callbacks, Drive drive,
            const std::vector<double>& instants) {
  sim::Simulator sim;
  Processor cpu(sim, ProcessorId{0}, script.cfg);
  Outcome out;
  std::vector<JobId> ids;

  const auto read = [&] {
    out.reads.push_back(Reading{
        std::bit_cast<std::uint64_t>(sim.now().ms()),
        std::bit_cast<std::uint64_t>(cpu.busyTime().ms()),
        std::bit_cast<std::uint64_t>(cpu.demandServed().ms()),
        std::bit_cast<std::uint64_t>(cpu.schedOverhead().ms()),
        cpu.residentJobs(), cpu.busy(), cpu.jobsCompleted(),
        cpu.jobsAborted(), cpu.jobsRejected()});
  };
  const auto submit = [&](const Op& op) {
    std::function<void()> done;
    if (op.callback) {
      // A real callback, in both runs: it reads, and it may chain a
      // callback-free follow-up exactly at its own completion instant.
      const bool follow_up = op.demand > 3.0;
      done = [&, follow_up] {
        read();
        if (follow_up) {
          Job next{SimDuration::millis(0.4), nullptr, "follow-up"};
          if (callbacks == Callbacks::kNoOp) {
            next.on_complete = [] {};
          }
          cpu.submit(std::move(next));
        }
      };
    } else if (callbacks == Callbacks::kNoOp) {
      done = [] {};
    } else if (callbacks == Callbacks::kRecordInstants) {
      done = [&] { out.completions.push_back(sim.now().ms()); };
    }
    ids.push_back(cpu.submit(Job{SimDuration::millis(op.demand),
                                 std::move(done), "j", op.priority,
                                 SimTime::millis(op.deadline),
                                 SimDuration::millis(op.period)}));
  };
  const auto act = [&](const Op& op) {
    switch (op.kind) {
      case Op::kSubmit:
        submit(op);
        break;
      case Op::kAbort:
        if (op.target < ids.size()) {
          cpu.abort(ids[op.target]);
        }
        break;
      case Op::kCrash:
        cpu.setUp(false);
        break;
      case Op::kRestart:
        cpu.setUp(true);
        break;
      case Op::kThrottle:
        cpu.setSpeedFactor(op.factor);
        break;
      case Op::kRead:
        read();
        if (op.chain) {
          sim.scheduleAfter(SimDuration::zero(), read);
        }
        break;
    }
  };
  for (const Op& op : script.ops) {
    sim.scheduleAt(SimTime::millis(op.at), [&act, &op] { act(op); });
  }
  // Three reads at each completion instant: one that sorts ahead of the
  // completion (planted now), one that sorts behind it (scheduled from the
  // first, after the completing stretch took its key), and one relayed
  // from shortly before the instant, which sorts behind the stretch's key
  // but ahead of anything scheduled at the instant itself. At most one of
  // them is followed by an arrival, which lands exactly on the completion.
  for (std::size_t i = 0; i < instants.size(); ++i) {
    const double t = instants[i];
    const std::size_t arrives = i % 4;  // 0: no arrival
    Op op{Op::kSubmit};
    op.at = t;
    op.demand = 0.3;
    const auto read_then = [&, op](bool arrive) {
      read();
      if (arrive) {
        submit(op);
      }
    };
    sim.scheduleAt(SimTime::millis(t), [&, read_then, arrives] {
      read_then(arrives == 1);
      sim.scheduleAfter(SimDuration::zero(),
                        [read_then, arrives] { read_then(arrives == 2); });
    });
    const double relay_at = t - 0.5 * (t - std::floor(t));
    sim.scheduleAt(SimTime::millis(relay_at), [&, t, read_then, arrives] {
      sim.scheduleAt(SimTime::millis(t),
                     [read_then, arrives] { read_then(arrives == 3); });
    });
  }

  switch (drive) {
    case Drive::kRunAll:
      sim.runAll();
      break;
    case Drive::kSteps:
      while (sim.step()) {
        out.step_times.push_back(std::bit_cast<std::uint64_t>(sim.now().ms()));
      }
      break;
    case Drive::kHorizons: {
      // Reads between runs, at random horizons and on every third
      // completion instant, in time order: at a closed horizon
      // (runUntil) everything due there has fired, at a half-open one
      // (runUntilBefore) nothing has. Single steps in between.
      std::vector<double> horizons = script.horizons;
      for (std::size_t i = 0; i < instants.size(); i += 3) {
        horizons.push_back(instants[i]);
      }
      std::sort(horizons.begin(), horizons.end());
      for (std::size_t i = 0; i < horizons.size(); ++i) {
        const SimTime h = SimTime::millis(horizons[i]);
        if (h >= sim.now()) {
          if (i % 2 == 0) {
            sim.runUntil(h);
          } else {
            sim.runUntilBefore(h);
          }
        }
        read();
        sim.step();
        out.step_times.push_back(std::bit_cast<std::uint64_t>(sim.now().ms()));
        read();
      }
      sim.runAll();
      break;
    }
  }
  read();
  out.end_time = std::bit_cast<std::uint64_t>(sim.now().ms());
  out.events = sim.eventsExecuted();
  return out;
}

using Param = std::tuple<int /*policy*/, bool /*context switch*/>;

class DeferredCompletion : public ::testing::TestWithParam<Param> {};

TEST_P(DeferredCompletion, MatchesEventedCompletionsBitForBit) {
  const int policy = std::get<0>(GetParam());
  const bool cs = std::get<1>(GetParam());
  std::uint64_t events_deferred = 0;
  std::uint64_t events_evented = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Script script = makeScript(policy, cs, seed);
    // Completion instants of the stream, with reads planted there.
    const std::vector<double> instants =
        run(script, Callbacks::kRecordInstants, Drive::kRunAll, {})
            .completions;
    for (const Drive drive :
         {Drive::kRunAll, Drive::kSteps, Drive::kHorizons}) {
      const Outcome bare = run(script, Callbacks::kBare, drive, instants);
      const Outcome evented = run(script, Callbacks::kNoOp, drive, instants);
      const std::string where = "seed " + std::to_string(seed) + " drive " +
                                std::to_string(static_cast<int>(drive));
      ASSERT_EQ(bare.reads.size(), evented.reads.size()) << where;
      for (std::size_t i = 0; i < bare.reads.size(); ++i) {
        ASSERT_EQ(bare.reads[i], evented.reads[i])
            << where << " read " << i << "\n deferred: "
            << describe(bare.reads[i])
            << "\n evented:  " << describe(evented.reads[i]);
      }
      EXPECT_EQ(bare.step_times, evented.step_times) << where;
      EXPECT_EQ(bare.end_time, evented.end_time) << where;
      if (drive == Drive::kRunAll) {
        events_deferred += bare.events;
        events_evented += evented.events;
      }
    }
  }
  // The comparison is only worth something if completions did defer.
  EXPECT_LT(events_deferred, events_evented);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSwitchCharge, DeferredCompletion,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),  // rr..llf
                       ::testing::Bool()));

// A drained run ends at a lone completion's instant, and a step executes
// it in its turn.
TEST(DeferredCompletion, RunAllAndStepTreatItAsAnEvent) {
  sim::Simulator sim;
  Processor cpu(sim, ProcessorId{0});
  cpu.submit(Job{SimDuration::millis(2.5), nullptr, "bg"});
  EXPECT_EQ(sim.pendingEvents(), 0u);  // nothing scheduled: it deferred
  sim.scheduleAt(SimTime::millis(1.0), [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_DOUBLE_EQ(sim.now().ms(), 1.0);
  EXPECT_TRUE(cpu.busy());
  EXPECT_TRUE(sim.step());  // the completion, a train instant
  EXPECT_DOUBLE_EQ(sim.now().ms(), 2.5);
  EXPECT_FALSE(cpu.busy());
  EXPECT_FALSE(sim.step());

  cpu.submit(Job{SimDuration::millis(4.0), nullptr, "bg"});
  EXPECT_TRUE(sim.runAll());
  EXPECT_DOUBLE_EQ(sim.now().ms(), 6.5);
  EXPECT_EQ(cpu.jobsCompleted(), 2u);
  EXPECT_EQ(sim.eventsExecuted(), 1u);  // only the planted event
}

// An event at the completion instant sees the job still running when it
// was scheduled before the stretch began, and completed when after.
TEST(DeferredCompletion, TieAtTheInstantFollowsScheduleOrder) {
  sim::Simulator sim;
  Processor cpu(sim, ProcessorId{0});
  std::vector<std::size_t> seen;
  sim.scheduleAt(SimTime::millis(3.0),
                 [&] { seen.push_back(cpu.residentJobs()); });
  cpu.submit(Job{SimDuration::millis(3.0), nullptr, "bg"});
  sim.scheduleAt(SimTime::millis(3.0),
                 [&] { seen.push_back(cpu.residentJobs()); });
  sim.runUntil(SimTime::millis(3.0));
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(cpu.residentJobs(), 0u);
}

// A non-preempting arrival behind a deferred stretch gives the stretch its
// end event back; a preempting one settles it and nothing is left behind.
TEST(DeferredCompletion, MaterializesOrDropsOnAdmit) {
  for (const SchedPolicy policy : {SchedPolicy::kFifo, SchedPolicy::kRoundRobin}) {
    sim::Simulator sim;
    ProcessorConfig cfg;
    cfg.policy = policy;
    Processor cpu(sim, ProcessorId{0}, cfg);
    cpu.submit(Job{SimDuration::millis(5.0), nullptr, "bg"});
    ASSERT_EQ(sim.pendingEvents(), 0u);
    double second_done = -1.0;
    sim.scheduleAt(SimTime::millis(1.0), [&] {
      cpu.submit(Job{SimDuration::millis(1.0),
                     [&] { second_done = sim.now().ms(); }, "probe"});
    });
    sim.runAll();
    // FIFO: the first job keeps its stretch to 5 ms (materialized), then
    // the probe runs. RR: the arrival breaks the stretch up at 1 ms.
    EXPECT_DOUBLE_EQ(second_done, policy == SchedPolicy::kFifo ? 6.0 : 3.0);
    EXPECT_EQ(cpu.jobsCompleted(), 2u);
    EXPECT_DOUBLE_EQ(sim.now().ms(), 6.0);
  }
}

}  // namespace
}  // namespace rtdrm::node
