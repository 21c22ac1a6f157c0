#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace rtdrm::check {
namespace {

TEST(MakeFuzzScenario, IsDeterministicPerSeed) {
  const FuzzScenario a = makeFuzzScenario(7);
  const FuzzScenario b = makeFuzzScenario(7);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.workload_tracks, b.workload_tracks);
  EXPECT_EQ(a.background_targets, b.background_targets);
  EXPECT_EQ(a.coresident_tracks, b.coresident_tracks);
}

TEST(MakeFuzzScenario, DifferentSeedsDiffer) {
  const FuzzScenario a = makeFuzzScenario(1);
  const FuzzScenario b = makeFuzzScenario(2);
  EXPECT_NE(a.summary(), b.summary());
}

TEST(MakeFuzzScenario, GeneratesValidBoundedScenarios) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const FuzzScenario s = makeFuzzScenario(seed);
    EXPECT_GE(s.node_count, 2u);
    EXPECT_LE(s.node_count, 8u);
    EXPECT_GE(s.spec.stageCount(), 2u);
    EXPECT_LE(s.spec.stageCount(), 6u);
    EXPECT_GE(s.periods, 8u);
    EXPECT_LE(s.periods, 40u);
    EXPECT_LE(s.spec.deadline.ms(), s.spec.period.ms());
    bool any_replicable = false;
    for (const auto& st : s.spec.subtasks) {
      any_replicable = any_replicable || st.replicable;
    }
    EXPECT_TRUE(any_replicable) << "seed " << seed;
    for (const double w : s.workload_tracks) {
      EXPECT_GT(w, 0.0) << "zero workload would break EQF's contract";
    }
    EXPECT_EQ(s.models.exec.size(), s.spec.stageCount());
  }
}

TEST(MakeFuzzScenario, SubtaskCapTruncatesWithoutChangingOtherDraws) {
  const FuzzScenario full = makeFuzzScenario(11);
  ShrinkSpec shrink;
  shrink.max_subtasks = 2;
  const FuzzScenario capped = makeFuzzScenario(11, shrink);
  EXPECT_EQ(capped.spec.stageCount(), 2u);
  // Caps truncate after the draws: everything not capped is identical.
  EXPECT_EQ(capped.spec.period.ms(), full.spec.period.ms());
  EXPECT_EQ(capped.spec.deadline.ms(), full.spec.deadline.ms());
  EXPECT_EQ(capped.node_count, full.node_count);
  EXPECT_EQ(capped.periods, full.periods);
  EXPECT_EQ(capped.workload_tracks, full.workload_tracks);
  EXPECT_EQ(capped.spec.subtasks[0].cost.beta_ms,
            full.spec.subtasks[0].cost.beta_ms);
}

TEST(MakeFuzzScenario, PeriodCapShortensHorizon) {
  ShrinkSpec shrink;
  shrink.max_periods = 5;
  const FuzzScenario s = makeFuzzScenario(11, shrink);
  EXPECT_EQ(s.periods, 5u);
}

TEST(MakeFuzzScenario, FlattenYieldsConstantWorkload) {
  ShrinkSpec shrink;
  shrink.flatten_workload = true;
  const FuzzScenario s = makeFuzzScenario(11, shrink);
  for (const double w : s.workload_tracks) {
    EXPECT_DOUBLE_EQ(w, s.workload_tracks.front());
  }
}

TEST(MakeFuzzScenario, CapKeepsAReplicableStage) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    ShrinkSpec shrink;
    shrink.max_subtasks = 2;
    const FuzzScenario s = makeFuzzScenario(seed, shrink);
    bool any_replicable = false;
    for (const auto& st : s.spec.subtasks) {
      any_replicable = any_replicable || st.replicable;
    }
    EXPECT_TRUE(any_replicable) << "seed " << seed;
  }
}

TEST(MakeFuzzScenario, SchedDimensionIsAppendOnly) {
  // The scheduler draw is appended after every other draw: the base
  // scenario of a seed is byte-identical with and without the dimension.
  bool any_non_rr = false;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const FuzzScenario base = makeFuzzScenario(seed);
    const FuzzScenario sched = makeFuzzScenario(seed, {}, {FuzzDim::kSched});
    any_non_rr = any_non_rr || sched.sched != node::SchedPolicy::kRoundRobin;
    EXPECT_EQ(base.workload_tracks, sched.workload_tracks);
    EXPECT_EQ(base.node_count, sched.node_count);
    EXPECT_EQ(base.spec.period.ms(), sched.spec.period.ms());
    EXPECT_EQ(base.sched, node::SchedPolicy::kRoundRobin);
    // The shrink cap restores the Round-Robin baseline exactly.
    ShrinkSpec drop;
    drop.dropped.add(FuzzDim::kSched);
    const FuzzScenario dropped =
        makeFuzzScenario(seed, drop, {FuzzDim::kSched});
    EXPECT_EQ(dropped.sched, node::SchedPolicy::kRoundRobin);
    EXPECT_EQ(dropped.summary(), base.summary());
  }
  EXPECT_TRUE(any_non_rr) << "25 seeds never drew a non-RR policy";
}

TEST(MakeFuzzScenario, PeriodAdjustDimensionIsAppendOnly) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const FuzzScenario base = makeFuzzScenario(seed);
    const FuzzScenario elastic =
        makeFuzzScenario(seed, {}, {FuzzDim::kPeriodAdjust});
    EXPECT_TRUE(elastic.manager.allow_period_adjust);
    EXPECT_GT(elastic.spec.max_period, elastic.spec.period);
    EXPECT_LE(elastic.spec.max_period.ms(), elastic.spec.period.ms() * 2.5);
    EXPECT_EQ(base.workload_tracks, elastic.workload_tracks);
    EXPECT_EQ(base.spec.period.ms(), elastic.spec.period.ms());
    EXPECT_FALSE(base.manager.allow_period_adjust);
    ShrinkSpec drop;
    drop.dropped.add(FuzzDim::kPeriodAdjust);
    const FuzzScenario dropped =
        makeFuzzScenario(seed, drop, {FuzzDim::kPeriodAdjust});
    EXPECT_FALSE(dropped.manager.allow_period_adjust);
    EXPECT_EQ(dropped.spec.max_period, SimDuration::zero());
    EXPECT_EQ(dropped.summary(), base.summary());
  }
}

TEST(RunFuzzSeed, SchedAndPeriodAdjustSeedsRunClean) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const FuzzOutcome out = runFuzzSeed(
        seed, {}, {FuzzDim::kSched, FuzzDim::kPeriodAdjust});
    EXPECT_FALSE(out.failed()) << "seed " << seed << ": " << out.detail;
    EXPECT_GT(out.checks, 0u);
  }
}

TEST(RunFuzzCase, DroppedDimensionsReproduceBaselineDigest) {
  // The in-binary neutrality gate: generating with a dimension enabled but
  // shrink-capped away must replay the exact baseline digest — its draws
  // and its dormant code paths leave no trace. Each dimension alone, then
  // all six together, over short capped scenarios under both allocators
  // and two uncapped ones.
  ShrinkSpec capped;
  capped.max_subtasks = 3;
  capped.max_periods = 6;
  struct Case {
    std::uint64_t seed;
    ShrinkSpec caps;
    AllocatorKind kind;
  };
  std::vector<Case> cases;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    cases.push_back({seed, capped,
                     seed % 2 == 0 ? AllocatorKind::kPredictive
                                   : AllocatorKind::kNonPredictive});
  }
  for (std::uint64_t seed = 4; seed < 6; ++seed) {
    cases.push_back({seed, ShrinkSpec{}, AllocatorKind::kPredictive});
  }
  std::vector<FuzzDims> sets;
  FuzzDims all;
  for (const FuzzDimInfo& d : kFuzzDims) {
    sets.push_back({d.dim});
    all.add(d.dim);
  }
  sets.push_back(all);
  for (const Case& c : cases) {
    const FuzzCaseResult base =
        runFuzzCase(makeFuzzScenario(c.seed, c.caps), c.kind);
    ASSERT_FALSE(base.digest.empty());
    for (const FuzzDims dims : sets) {
      ShrinkSpec dropped = c.caps;
      dropped.dropped = dims;
      const FuzzCaseResult gated =
          runFuzzCase(makeFuzzScenario(c.seed, dropped, dims), c.kind);
      EXPECT_EQ(base.digest, gated.digest)
          << "seed " << c.seed << " dropped" << dropped.cliFlags();
    }
  }
}

TEST(TablePattern, HoldsLastLevelBeyondTable) {
  const TablePattern p({10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(p.at(0).count(), 10.0);
  EXPECT_DOUBLE_EQ(p.at(2).count(), 30.0);
  EXPECT_DOUBLE_EQ(p.at(100).count(), 30.0);
}

TEST(ShrinkSpec, CliFlagsRoundTripTheCaps) {
  ShrinkSpec s;
  EXPECT_EQ(s.cliFlags(), "");
  s.max_subtasks = 3;
  s.max_periods = 8;
  s.flatten_workload = true;
  EXPECT_EQ(s.cliFlags(), " --max-subtasks=3 --max-periods=8 --flat");
  // Each dimension's cap is its own --drop-<flag>.
  for (const FuzzDimInfo& d : kFuzzDims) {
    ShrinkSpec one;
    one.dropped.add(d.dim);
    EXPECT_EQ(one.cliFlags(), std::string(" --drop-") + d.flag);
    EXPECT_FALSE(one.unshrunk());
  }
  // All six at once, in enumerator order, after the size caps.
  for (const FuzzDimInfo& d : kFuzzDims) {
    s.dropped.add(d.dim);
  }
  EXPECT_EQ(s.cliFlags(),
            " --max-subtasks=3 --max-periods=8 --flat --drop-faults"
            " --drop-manager-faults --drop-sched --drop-period-adjust"
            " --drop-net-topology --drop-workload-mix");
}

TEST(ReproLine, SingleQueueRunAddsNoEngineFlags) {
  ShrinkSpec s;
  s.max_subtasks = 2;
  s.max_periods = 3;
  s.flatten_workload = true;
  s.dropped.add(FuzzDim::kWorkloadMix);
  EXPECT_EQ(reproLine(185, {FuzzDim::kManagerFaults, FuzzDim::kWorkloadMix},
                      s, {}),
            "fuzz_scenarios --replay-seed=185 --manager-faults"
            " --workload-mix --max-subtasks=2 --max-periods=3 --flat"
            " --drop-workload-mix");
  EXPECT_EQ(reproLine(7, {}, {}, {}), "fuzz_scenarios --replay-seed=7");
}

TEST(ReproLine, ShardedRunReplaysOnTheSameEngine) {
  FuzzExecConfig exec;
  exec.sim_shards = 4;
  exec.sim_mode = parallel::SimMode::kFast;
  EXPECT_EQ(reproLine(1096, {FuzzDim::kFaults, FuzzDim::kManagerFaults}, {},
                      exec),
            "fuzz_scenarios --replay-seed=1096 --faults --manager-faults"
            " --shards=4 --sim-mode=fast --lookahead=adaptive");
  exec.sim_mode = parallel::SimMode::kDeterministic;
  exec.lookahead = parallel::LookaheadPolicy::kStatic;
  ShrinkSpec s;
  s.max_periods = 5;
  EXPECT_EQ(reproLine(3, {FuzzDim::kSched}, s, exec),
            "fuzz_scenarios --replay-seed=3 --sched --max-periods=5"
            " --shards=4 --sim-mode=det --lookahead=static");
}

TEST(RunFuzzSeed, CleanSeedsPassBothAllocatorsAndReplay) {
  // A handful of full-stack runs: oracle holds and replays are
  // byte-identical under both allocators.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const FuzzOutcome out = runFuzzSeed(seed);
    EXPECT_FALSE(out.failed()) << "seed " << seed << ": " << out.detail;
    EXPECT_GT(out.checks, 0u);
  }
}

// Regression: with a control-plane action latency, a placement decided just
// before its manager was deposed used to land after the handover
// (`--manager-faults --replay-seed 193`: plane-deposed-decision).
TEST(RunFuzzSeed, DeposedManagersDeferredPlacementNeverLands) {
  const FuzzOutcome out = runFuzzSeed(193, {}, {FuzzDim::kManagerFaults});
  EXPECT_FALSE(out.failed()) << out.detail;
  EXPECT_GT(out.checks, 0u);
}

// Regression: with a control-plane action latency, a placement decided
// before a node crashed used to land after failure handling had taken the
// node out, putting the replica back on the down node (`--faults
// --replay-seed 738`: replica-on-down-node, then fault-recovery-deadline;
// seed 2367 likewise).
TEST(RunFuzzSeed, DeferredPlacementNeverLandsOnCrashedNode) {
  for (const std::uint64_t seed : {738u, 2367u}) {
    const FuzzOutcome out = runFuzzSeed(seed, {}, {FuzzDim::kFaults});
    EXPECT_FALSE(out.failed()) << "seed " << seed << ": " << out.detail;
    EXPECT_GT(out.checks, 0u);
  }
}

// Regression: the active manager crashed and restarted before the manager
// detector declared it down, so no election ran, and a node declared dead
// in between stayed queued and kept hosting its stage (`--faults
// --manager-faults --replay-seed 1668`: fault-recovery-deadline).
TEST(RunFuzzSeed, ActiveRestartRepairsFailuresQueuedInTheGap) {
  const FuzzOutcome out =
      runFuzzSeed(1668, {}, {FuzzDim::kFaults, FuzzDim::kManagerFaults});
  EXPECT_FALSE(out.failed()) << out.detail;
  EXPECT_GT(out.checks, 0u);
}

TEST(RunFuzzCase, SameScenarioProducesByteIdenticalDigests) {
  const FuzzScenario s = makeFuzzScenario(5);
  const FuzzCaseResult a = runFuzzCase(s, AllocatorKind::kPredictive);
  const FuzzCaseResult b = runFuzzCase(s, AllocatorKind::kPredictive);
  EXPECT_EQ(a.violations, 0u) << a.report;
  EXPECT_FALSE(a.digest.empty());
  EXPECT_EQ(a.digest, b.digest);
}

TEST(RunFuzzCase, AllocatorsProduceDistinctRuns) {
  // Sanity that the knob matters: the two allocators should not trace
  // identically on a scenario that triggers adaptation.
  const FuzzScenario s = makeFuzzScenario(6);
  const FuzzCaseResult pred = runFuzzCase(s, AllocatorKind::kPredictive);
  const FuzzCaseResult nonp = runFuzzCase(s, AllocatorKind::kNonPredictive);
  EXPECT_NE(pred.digest, nonp.digest);
}

TEST(Minimize, ShrinksToTheFloorWhenEverythingFails) {
  const ShrinkSpec minimal =
      minimize(11, {}, [](std::uint64_t, const ShrinkSpec&) { return true; });
  const FuzzScenario s = makeFuzzScenario(11, minimal);
  EXPECT_EQ(s.spec.stageCount(), 2u);
  EXPECT_EQ(s.periods, 3u);
  EXPECT_TRUE(minimal.flatten_workload);
}

TEST(Minimize, FindsTheBoundaryOfAHorizonPredicate) {
  // Artificial failure: "fails iff the scenario runs more than 12 periods".
  const std::uint64_t seed = 0;
  ASSERT_GT(makeFuzzScenario(seed).periods, 13u);
  const auto fails = [](std::uint64_t s, const ShrinkSpec& c) {
    return makeFuzzScenario(s, c).periods > 12;
  };
  ASSERT_TRUE(fails(seed, {}));
  const ShrinkSpec minimal = minimize(seed, {}, fails);
  // Greedy halving + decrement lands exactly on the smallest failing
  // horizon; subtask and flatten caps don't affect this predicate so they
  // shrink to their floors too.
  EXPECT_EQ(makeFuzzScenario(seed, minimal).periods, 13u);
  EXPECT_TRUE(fails(seed, minimal));
}

TEST(Minimize, DropsDimensionsInTheFixedOrder) {
  // Every harsher cap fails, so each pass keeps the first dimension it
  // tries: the drops land one at a time in kFuzzShrinkOrder, and only for
  // dimensions the scenario is generated with.
  FuzzDims all;
  for (const FuzzDimInfo& d : kFuzzDims) {
    all.add(d.dim);
  }
  std::vector<FuzzDims> tried;
  const ShrinkSpec minimal =
      minimize(11, {},
               [&tried](std::uint64_t, const ShrinkSpec& c) {
                 tried.push_back(c.dropped);
                 return true;
               },
               all);
  EXPECT_EQ(minimal.dropped, all);
  const std::vector<FuzzDim> order{
      FuzzDim::kNetTopology,  FuzzDim::kWorkloadMix,   FuzzDim::kSched,
      FuzzDim::kPeriodAdjust, FuzzDim::kManagerFaults, FuzzDim::kFaults};
  ASSERT_GE(tried.size(), order.size());
  FuzzDims expected;
  for (std::size_t i = 0; i < order.size(); ++i) {
    expected.add(order[i]);
    EXPECT_EQ(tried[i], expected) << "drop " << i;
  }

  // A failure that needs the scheduler keeps it and drops the rest; a
  // dimension the scenario lacks is never tried.
  tried.clear();
  const ShrinkSpec keeps_sched =
      minimize(11, {},
               [&tried](std::uint64_t, const ShrinkSpec& c) {
                 tried.push_back(c.dropped);
                 return !c.dropped.has(FuzzDim::kSched);
               },
               {FuzzDim::kSched, FuzzDim::kFaults});
  EXPECT_FALSE(keeps_sched.dropped.has(FuzzDim::kSched));
  EXPECT_TRUE(keeps_sched.dropped.has(FuzzDim::kFaults));
  for (const FuzzDims d : tried) {
    EXPECT_FALSE(d.has(FuzzDim::kNetTopology));
    EXPECT_FALSE(d.has(FuzzDim::kManagerFaults));
  }
}

TEST(Minimize, KeepsTheInitialSpecWhenNothingHarsherFails) {
  // Fails only in the *unshrunk* configuration: no cap can be applied.
  const auto fails = [](std::uint64_t, const ShrinkSpec& c) {
    return c.unshrunk();
  };
  const ShrinkSpec minimal = minimize(3, {}, fails);
  EXPECT_TRUE(minimal.unshrunk());
}

}  // namespace
}  // namespace rtdrm::check
