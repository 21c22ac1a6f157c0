#include "check/fuzz.hpp"

#include <gtest/gtest.h>

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
    const FuzzScenario sched =
        makeFuzzScenario(seed, {}, false, false, /*with_sched=*/true);
    any_non_rr = any_non_rr || sched.sched != node::SchedPolicy::kRoundRobin;
    EXPECT_EQ(base.workload_tracks, sched.workload_tracks);
    EXPECT_EQ(base.node_count, sched.node_count);
    EXPECT_EQ(base.spec.period.ms(), sched.spec.period.ms());
    EXPECT_EQ(base.sched, node::SchedPolicy::kRoundRobin);
    // The shrink cap restores the Round-Robin baseline exactly.
    ShrinkSpec drop;
    drop.drop_sched = true;
    const FuzzScenario dropped =
        makeFuzzScenario(seed, drop, false, false, /*with_sched=*/true);
    EXPECT_EQ(dropped.sched, node::SchedPolicy::kRoundRobin);
    EXPECT_EQ(dropped.summary(), base.summary());
  }
  EXPECT_TRUE(any_non_rr) << "25 seeds never drew a non-RR policy";
}

TEST(MakeFuzzScenario, PeriodAdjustDimensionIsAppendOnly) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const FuzzScenario base = makeFuzzScenario(seed);
    const FuzzScenario elastic = makeFuzzScenario(seed, {}, false, false,
                                                  false,
                                                  /*with_period_adjust=*/true);
    EXPECT_TRUE(elastic.manager.allow_period_adjust);
    EXPECT_GT(elastic.spec.max_period, elastic.spec.period);
    EXPECT_LE(elastic.spec.max_period.ms(), elastic.spec.period.ms() * 2.5);
    EXPECT_EQ(base.workload_tracks, elastic.workload_tracks);
    EXPECT_EQ(base.spec.period.ms(), elastic.spec.period.ms());
    EXPECT_FALSE(base.manager.allow_period_adjust);
    ShrinkSpec drop;
    drop.drop_period_adjust = true;
    const FuzzScenario dropped = makeFuzzScenario(seed, drop, false, false,
                                                  false,
                                                  /*with_period_adjust=*/true);
    EXPECT_FALSE(dropped.manager.allow_period_adjust);
    EXPECT_EQ(dropped.spec.max_period, SimDuration::zero());
    EXPECT_EQ(dropped.summary(), base.summary());
  }
}

TEST(RunFuzzSeed, SchedAndPeriodAdjustSeedsRunClean) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const FuzzOutcome out = runFuzzSeed(seed, {}, false, {}, false,
                                        /*with_sched=*/true,
                                        /*with_period_adjust=*/true);
    EXPECT_FALSE(out.failed()) << "seed " << seed << ": " << out.detail;
    EXPECT_GT(out.checks, 0u);
  }
}

TEST(RunFuzzCase, DroppedDimensionsReproduceBaselineDigest) {
  // The in-binary neutrality gate: generating with both new dimensions
  // enabled but shrink-capped away must replay the exact baseline digest —
  // the dispatch seam and the dormant lever leave no trace.
  ShrinkSpec drop;
  drop.drop_sched = true;
  drop.drop_period_adjust = true;
  for (std::uint64_t seed = 4; seed < 6; ++seed) {
    const FuzzCaseResult base =
        runFuzzCase(makeFuzzScenario(seed), AllocatorKind::kPredictive);
    const FuzzCaseResult gated = runFuzzCase(
        makeFuzzScenario(seed, drop, false, false, true, true),
        AllocatorKind::kPredictive);
    EXPECT_EQ(base.digest, gated.digest) << "seed " << seed;
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
  s.drop_sched = true;
  s.drop_period_adjust = true;
  EXPECT_EQ(s.cliFlags(),
            " --max-subtasks=3 --max-periods=8 --flat --drop-sched"
            " --drop-period-adjust");
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
  const FuzzOutcome out = runFuzzSeed(193, {}, /*with_faults=*/false, {},
                                      /*with_manager_faults=*/true);
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
    const FuzzOutcome out = runFuzzSeed(seed, {}, /*with_faults=*/true);
    EXPECT_FALSE(out.failed()) << "seed " << seed << ": " << out.detail;
    EXPECT_GT(out.checks, 0u);
  }
}

// Regression: the active manager crashed and restarted before the manager
// detector declared it down, so no election ran, and a node declared dead
// in between stayed queued and kept hosting its stage (`--faults
// --manager-faults --replay-seed 1668`: fault-recovery-deadline).
TEST(RunFuzzSeed, ActiveRestartRepairsFailuresQueuedInTheGap) {
  const FuzzOutcome out = runFuzzSeed(1668, {}, /*with_faults=*/true, {},
                                      /*with_manager_faults=*/true);
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
