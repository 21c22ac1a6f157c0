// Node behaviour pinned bit for bit: random job streams through a
// Processor with a BackgroundLoad, over all six policies, with and without
// a context-switch charge, with background target steps (including
// setTarget(0) and re-arming), aborts, crashes, restarts and throttles,
// driven by runAll(), by step() and by runUntil/runUntilBefore horizons.
// Every read at random instants and at the stream's own instants
// (arrivals, quantum ends, completions: the clock after each step() of an
// undisturbed run), the clock after each step() and the clock at the end
// are folded into one digest per seed and policy. The digests were
// recorded with every node instant an event of its own; any model of the
// node that elides those events must reproduce them.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "node/background_load.hpp"
#include "node/cluster.hpp"
#include "node/processor.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::node {
namespace {

enum class Drive { kRunAll, kSteps, kHorizons };

struct Op {
  enum Kind {
    kSubmit,
    kAbort,
    kCrash,
    kRestart,
    kThrottle,
    kTarget,
    kRead
  } kind;
  double at = 0.0;
  double demand = 0.0;    // kSubmit
  bool callback = false;  // kSubmit
  int priority = 0;
  double deadline = 0.0;
  double period = 0.0;
  std::size_t target = 0;  // kAbort: index into the submitted ids
  double factor = 1.0;     // kThrottle
  double load = 0.0;       // kTarget
  bool chain = false;      // kRead: read again behind this instant's events
};

struct Script {
  ProcessorConfig cfg;
  BackgroundLoadConfig bg;
  std::uint64_t bg_seed = 0;
  std::vector<Op> ops;
  std::vector<double> horizons;
};

Script makeScript(int policy, bool context_switch, std::uint64_t seed) {
  Xoshiro256 rng(seed * 104729 + static_cast<std::uint64_t>(policy) * 131 +
                 (context_switch ? 7 : 0));
  Script s;
  s.cfg.policy = static_cast<SchedPolicy>(policy);
  s.cfg.quantum = SimDuration::millis(rng.uniform01() < 0.5
                                          ? 1.0
                                          : rng.uniform(0.25, 2.0));
  if (context_switch) {
    s.cfg.context_switch = SimDuration::millis(rng.uniform(0.01, 0.2));
  }
  s.bg.mean_service = SimDuration::millis(rng.uniform(0.3, 3.0));
  s.bg.exponential_service = rng.uniform01() < 0.6;
  s.bg.priority = static_cast<int>(rng.uniformInt(0, 3));
  s.bg_seed = rng.next();

  const double end = rng.uniform(100.0, 250.0);
  // Background target steps: armed from the start, stepped, stopped and
  // re-armed, and stopped for good at `end` so that runAll() drains.
  Op arm{Op::kTarget};
  arm.at = 0.0;
  arm.load = rng.uniform(0.2, 0.8);
  s.ops.push_back(arm);
  for (int i = 0; i < 6; ++i) {
    Op op{Op::kTarget};
    op.at = rng.uniform(0.0, end);
    op.load = rng.uniform01() < 0.3 ? 0.0 : rng.uniform(0.05, 0.95);
    s.ops.push_back(op);
    if (op.load == 0.0) {
      Op rearm{Op::kTarget};
      rearm.at = std::min(end, op.at + rng.uniform(1.0, 10.0));
      rearm.load = rng.uniform(0.1, 0.9);
      s.ops.push_back(rearm);
    }
  }
  Op stop{Op::kTarget};
  stop.at = end;
  s.ops.push_back(stop);

  for (int i = 0; i < 24; ++i) {
    Op op{Op::kSubmit};
    op.at = rng.uniform(0.0, end);
    const double u = rng.uniform01();
    op.demand = u < 0.1 ? 0.0 : (u < 0.4 ? rng.uniform(0.01, 0.9)
                                         : rng.uniform(0.5, 6.0));
    op.callback = rng.uniform01() < 0.5;
    op.priority = static_cast<int>(rng.uniformInt(0, 3));
    op.deadline = rng.uniform01() < 0.7 ? op.at + rng.uniform(2.0, 40.0) : 0.0;
    op.period = rng.uniform01() < 0.7 ? rng.uniform(2.0, 30.0) : 0.0;
    s.ops.push_back(op);
  }
  for (int i = 0; i < 5; ++i) {
    Op op{Op::kAbort};
    op.at = rng.uniform(0.0, end);
    op.target = static_cast<std::size_t>(rng.uniformInt(0, 23));
    s.ops.push_back(op);
  }
  Op crash{Op::kCrash};
  crash.at = rng.uniform(0.0, end);
  s.ops.push_back(crash);
  Op restart{Op::kRestart};
  restart.at = crash.at + rng.uniform(0.5, 6.0);
  s.ops.push_back(restart);
  for (int i = 0; i < 4; ++i) {
    Op op{Op::kThrottle};
    op.at = rng.uniform(0.0, end);
    const double factors[] = {0.5, 0.75, 1.0, 2.0};
    op.factor = factors[rng.uniformInt(0, 3)];
    s.ops.push_back(op);
  }
  for (int i = 0; i < 30; ++i) {
    Op op{Op::kRead};
    op.at = rng.uniform(0.0, end + 10.0);
    op.chain = rng.uniform01() < 0.5;
    s.ops.push_back(op);
  }
  for (int i = 0; i < 10; ++i) {
    s.horizons.push_back(rng.uniform(0.0, end + 10.0));
  }
  return s;
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

struct Outcome {
  std::uint64_t digest = 0;
  std::vector<double> step_times;  // Drive::kSteps
  std::size_t reads = 0;
};

/// Runs `script` once under `drive`, with reads planted at `instants`.
Outcome run(const Script& script, Drive drive,
            const std::vector<double>& instants) {
  sim::Simulator sim;
  Processor cpu(sim, ProcessorId{0}, script.cfg);
  BackgroundLoad bg(sim, cpu, Xoshiro256(script.bg_seed), script.bg);
  Digest d;
  Outcome out;
  std::vector<JobId> ids;

  const auto read = [&] {
    ++out.reads;
    d.add(sim.now().ms());
    d.add(cpu.busyTime().ms());
    d.add(cpu.demandServed().ms());
    d.add(cpu.schedOverhead().ms());
    d.add(static_cast<std::uint64_t>(cpu.residentJobs()));
    d.add(static_cast<std::uint64_t>(cpu.busy()));
    d.add(cpu.jobsCompleted());
    d.add(cpu.jobsAborted());
    d.add(cpu.jobsRejected());
    d.add(bg.jobsInjected());
    d.add(bg.target().value());
  };
  const auto submit = [&](const Op& op) {
    std::function<void()> done;
    if (op.callback) {
      // Reads at its own completion, and may chain a follow-up job that
      // arrives exactly at that instant.
      const bool follow_up = op.demand > 3.0;
      done = [&, follow_up] {
        read();
        if (follow_up) {
          cpu.submit(Job{SimDuration::millis(0.4), nullptr, "follow-up"});
        }
      };
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
      case Op::kTarget:
        bg.setTarget(Utilization::fraction(op.load));
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
  // Three reads at each planted instant: one planted now, which sorts
  // ahead of everything the run schedules there; one scheduled from it,
  // which sorts behind whatever was scheduled there before it ran; and
  // one relayed from shortly before the instant, which sorts between.
  // Every fourth instant also gets a submit from one of them.
  for (std::size_t i = 0; i < instants.size(); ++i) {
    const double t = instants[i];
    const std::size_t arrives = i % 4;  // 0: no submit
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
        out.step_times.push_back(sim.now().ms());
        d.add(sim.now().ms());
      }
      break;
    case Drive::kHorizons: {
      std::vector<double> horizons = script.horizons;
      for (std::size_t i = 0; i < instants.size(); i += 5) {
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
        d.add(sim.now().ms());
        read();
      }
      sim.runAll();
      break;
    }
  }
  read();
  d.add(sim.now().ms());
  out.digest = d.h;
  return out;
}

constexpr std::uint64_t kSeeds = 8;

/// The node's own instants: the clock after each step() of a run with
/// nothing planted.
std::vector<double> streamInstants(const Script& script) {
  return run(script, Drive::kSteps, {}).step_times;
}

std::uint64_t scriptDigest(int policy, std::uint64_t seed) {
  const Script script = makeScript(policy, seed % 2 == 0, seed);
  const std::vector<double> instants = streamInstants(script);
  // The stream must be worth pinning: background arrivals, quantum ends
  // and completions by the hundred.
  EXPECT_GT(instants.size(), 100u) << "policy " << policy << " seed " << seed;
  Digest d;
  for (const Drive drive : {Drive::kRunAll, Drive::kSteps, Drive::kHorizons}) {
    d.add(run(script, drive, instants).digest);
  }
  return d.h;
}

// Recorded with every arrival, quantum end and completion an event of its
// own. Row: policy (rr, fifo, priority, edf, rms, llf); column: seed 1..8
// (even seeds with a context-switch charge).
constexpr std::array<std::array<std::uint64_t, kSeeds>, 6> kPinned = {{
    {0x310980c587270304, 0x7fb254f4e51abb11, 0xbd3c6f0af2e43542,
     0xff1c9163ac1e0e2a, 0x62e641cda5067865, 0x69346e1789066db6,
     0xb47a4506f55c880a, 0x56934cae304bb5f4},
    {0x80b94fb39519afd6, 0xcdf0a9a16d51d2fb, 0xc38b44116c985e39,
     0xb5d1813aa576e037, 0x76eb5bd1741d5e0e, 0x456088056a904fe6,
     0xe61f23875f5ffa51, 0xbf3148355d72a5bb},
    {0x8339815a6d2ae79b, 0xcec2ac294f89d50c, 0x62f73390299fb0fa,
     0x1746b9770edbbc0a, 0xc6bf16ee243b1dfc, 0x92c05111846c691f,
     0x674e99661087d54a, 0x132c15c1466ac29},
    {0x372be5d0471b08d2, 0x8b8d0577f91cb1f2, 0x61bd5010132f12f2,
     0x44da722226099c24, 0x8439250942da4ae1, 0xa15ee82662be3b76,
     0xff5456d15073f835, 0xf3f82433f8e78330},
    {0x5809f393336d634a, 0xaec0a64632ca4802, 0xb15ad37a027ac8e5,
     0x51c92949cd4d590f, 0xbacddb2e8087ec0c, 0x8ed72335b11931e2,
     0x5a98d7b3fe9477a6, 0x885a7abb4233adc2},
    {0x1c98b48b5d13b0e3, 0xcb6e72a03883dae9, 0x5fa62703ba18017b,
     0xe21d4d8899c4f6dc, 0xbd7bc794a3bb2ad7, 0xb4b3ec00b16613f5,
     0xa3ae88b1ab11440c, 0xaeb064e4c0e2e09b},
}};

class NodeTrainPinned : public ::testing::TestWithParam<int> {};

TEST_P(NodeTrainPinned, ReproducesEventedDigests) {
  const int policy = GetParam();
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::uint64_t got = scriptDigest(policy, seed);
    EXPECT_EQ(got, kPinned[static_cast<std::size_t>(policy)][seed - 1])
        << "policy " << policy << " seed " << seed << ": 0x" << std::hex
        << got;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, NodeTrainPinned,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

// Background arrivals and quantum ends are instants, not events: a node
// under round-robin background load runs a long stretch of simulated time
// on a handful of events, and a job with a callback still completes on an
// event of its own, at the same instant as when everything was evented.
TEST(NodeTrain, BackgroundLoadRunsWithoutEvents) {
  sim::Simulator sim;
  Processor cpu(sim, ProcessorId{0});
  BackgroundLoad bg(sim, cpu, Xoshiro256(11));
  bg.setTarget(Utilization::fraction(0.6));
  double done_at = -1.0;
  sim.scheduleAt(SimTime::millis(500.0), [&] {
    cpu.submit(Job{SimDuration::millis(3.0), [&] { done_at = sim.now().ms(); },
                   "probe"});
  });
  sim.runUntil(SimTime::millis(2000.0));
  EXPECT_GT(bg.jobsInjected(), 200u);
  EXPECT_GT(done_at, 503.0);
  // The planted event and the probe's completion; every arrival, quantum
  // end and background completion was an instant.
  EXPECT_EQ(sim.eventsExecuted(), 2u);
  EXPECT_GT(sim.instantsApplied(), 2 * bg.jobsInjected() - 10);
}

// An instant is keyed where its event would have been scheduled. FIFO, no
// background: X runs 0-2 ms, Y (zero demand) is queued behind it, so at
// 2 ms X's end (keyed at 0) dispatches Y, whose end also falls at 2 ms but
// is keyed only then. A read scheduled at 2 ms from 0.5 ms sorts after X's
// end and before Y's: it must see X done and Y still running.
TEST(NodeTrain, InstantsAreKeyedWhereTheirEventsWere) {
  sim::Simulator sim;
  ProcessorConfig cfg;
  cfg.policy = SchedPolicy::kFifo;
  Processor cpu(sim, ProcessorId{0}, cfg);
  cpu.submit(Job{SimDuration::millis(2.0), nullptr, "x"});
  cpu.submit(Job{SimDuration::zero(), nullptr, "y"});
  std::vector<std::uint64_t> seen;
  sim.scheduleAt(SimTime::millis(0.5), [&] {
    sim.scheduleAt(SimTime::millis(2.0), [&] {
      seen.push_back(cpu.jobsCompleted());
      seen.push_back(cpu.residentJobs());
      seen.push_back(cpu.busy());
    });
  });
  sim.runAll();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(cpu.jobsCompleted(), 2u);
  EXPECT_DOUBLE_EQ(sim.now().ms(), 2.0);
}

// Two instants of one node at the same time keep the order of their keys.
// FIFO: X (keyed at 0) runs from 0 exactly to the second background
// arrival, which is keyed only at the first. A read scheduled for that
// instant from between the two keys sees X done and the arrival still to
// come.
TEST(NodeTrain, SameTimeInstantsOfOneNodeKeepTheirKeyOrder) {
  ProcessorConfig cfg;
  cfg.policy = SchedPolicy::kFifo;
  double arrivals[2] = {0.0, 0.0};
  {
    sim::Simulator sim;
    Processor cpu(sim, ProcessorId{0}, cfg);
    BackgroundLoad bg(sim, cpu, Xoshiro256(21));
    bg.setTarget(Utilization::fraction(0.5));
    while (bg.jobsInjected() < 2 && sim.step()) {
      if (bg.jobsInjected() > 0 && arrivals[0] == 0.0) {
        arrivals[0] = sim.now().ms();
      }
    }
    arrivals[1] = sim.now().ms();
  }
  ASSERT_GT(arrivals[1], arrivals[0]);
  sim::Simulator sim;
  Processor cpu(sim, ProcessorId{0}, cfg);
  BackgroundLoad bg(sim, cpu, Xoshiro256(21));
  bg.setTarget(Utilization::fraction(0.5));
  cpu.submit(Job{SimDuration::millis(arrivals[1]), nullptr, "x"});
  std::vector<std::uint64_t> seen;
  sim.scheduleAt(SimTime::millis(0.5 * arrivals[0]), [&] {
    sim.scheduleAt(SimTime::millis(arrivals[1]), [&] {
      seen.push_back(cpu.jobsCompleted());
      seen.push_back(bg.jobsInjected());
    });
  });
  sim.runUntil(SimTime::millis(arrivals[1]));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(bg.jobsInjected(), 2u);
}

// Reads only read: reading the node after every event changes no event or
// instant the run executes, schedules or cancels.
TEST(NodeTrain, ReadsNeverChangeTheSchedule) {
  for (const int policy : {0, 1, 5}) {
    const Script script = makeScript(policy, true, 3);
    std::array<std::uint64_t, 3> counts[2];
    std::uint64_t digests[2] = {0, 0};
    for (int pass = 0; pass < 2; ++pass) {
      sim::Simulator sim;
      Processor cpu(sim, ProcessorId{0}, script.cfg);
      BackgroundLoad bg(sim, cpu, Xoshiro256(script.bg_seed), script.bg);
      Digest d;
      if (pass == 1) {
        sim.setPostEventHook([&] {
          d.add(cpu.busyTime().ms());
          d.add(cpu.jobsCompleted());
          d.add(bg.jobsInjected());
        });
      }
      std::vector<JobId> ids;
      for (const Op& op : script.ops) {
        if (op.kind == Op::kSubmit || op.kind == Op::kTarget ||
            op.kind == Op::kAbort) {
          sim.scheduleAt(SimTime::millis(op.at), [&, op] {
            if (op.kind == Op::kTarget) {
              bg.setTarget(Utilization::fraction(op.load));
            } else if (op.kind == Op::kAbort) {
              if (op.target < ids.size()) {
                cpu.abort(ids[op.target]);
              }
            } else {
              ids.push_back(cpu.submit(Job{
                  SimDuration::millis(op.demand),
                  op.callback ? std::function<void()>([] {}) : nullptr,
                  "j"}));
            }
          });
        }
      }
      sim.runAll();
      sim.setPostEventHook(nullptr);
      counts[pass] = {sim.eventsExecuted() + sim.instantsApplied(),
                      sim.eventsScheduled(), sim.eventsCancelled()};
      digests[pass] = cpu.jobsCompleted() * 131 + bg.jobsInjected();
    }
    EXPECT_EQ(counts[0], counts[1]) << "policy " << policy;
    EXPECT_EQ(digests[0], digests[1]) << "policy " << policy;
  }
}

/// A cluster on the sharded engine: background load on every node, target
/// steps and crashes posted from the control shard, utilization sampled
/// from barrier snapshots. Returns a digest of every sample and the final
/// node counters.
std::uint64_t shardedDigest(parallel::SimMode mode, unsigned threads) {
  sim::ShardedConfig cfg;
  cfg.shards = 4;
  cfg.mode = mode;
  cfg.threads = threads;
  cfg.lookahead = SimDuration::micros(12.0);
  sim::ShardedEngine engine(cfg);
  ProcessorConfig pc;
  pc.context_switch = SimDuration::millis(0.02);
  Cluster cluster(engine, 12, pc);
  cluster.attachBackgroundLoad(RngStreams(77), {});
  Digest d;
  Xoshiro256 rng(3);
  for (const ProcessorId id : cluster.ids()) {
    cluster.setBackgroundTarget(id, Utilization::fraction(rng.uniform(0.1, 0.8)));
  }
  sim::PeriodicActivity tick(
      engine.control(), SimDuration::millis(7.0), [&](std::uint64_t k) {
        for (const Utilization u : cluster.sampleUtilization()) {
          d.add(u.value());
        }
        const ProcessorId id{static_cast<std::uint32_t>(k % 12)};
        if (k % 5 == 0) {
          cluster.setBackgroundTarget(
              id, Utilization::fraction(rng.uniform01() < 0.2
                                            ? 0.0
                                            : rng.uniform(0.05, 0.9)));
        }
        if (k % 11 == 3) {
          cluster.setNodeUp(id, !cluster.isUp(id));
        }
      });
  tick.start(SimTime::millis(1.0));
  engine.runUntil(SimTime::millis(400.0));
  tick.stop();
  for (const ProcessorId id : cluster.ids()) {
    const Processor& cpu = cluster.processor(id);
    d.add(cpu.busyTime().ms());
    d.add(cpu.jobsCompleted());
    d.add(cluster.backgroundLoad(id).jobsInjected());
  }
  return d.h;
}

// The trains run on the node shards too: each shard's run loop applies its
// nodes' instants, barrier-hook reads find them current while the shards
// are quiescent, and the outcome is the same on any worker count.
TEST(NodeTrainSharded, SameDigestOnEveryWorkerCount) {
  const std::uint64_t det1 =
      shardedDigest(parallel::SimMode::kDeterministic, 1);
  EXPECT_EQ(det1, shardedDigest(parallel::SimMode::kDeterministic, 4));
  EXPECT_EQ(shardedDigest(parallel::SimMode::kFast, 1),
            shardedDigest(parallel::SimMode::kFast, 4));
}

}  // namespace
}  // namespace rtdrm::node
