// Sharded-engine determinism suite: the engine's core contract is that a
// deterministic-mode run is a pure function of (scenario, shard count) —
// the worker-thread count must never leak into results. Each seed runs the
// full fuzz stack on a sharded engine and the byte-exact digest (trace
// events + metrics + substrate counters) is compared across thread counts
// {1, 2, 4, 8}. Fast mode must satisfy the same thread-count independence
// via the canonical (time, src, seq) mailbox merge, so a smaller seed
// sweep covers it too.
//
// Scenarios are shrink-capped (short horizon, short pipeline) to keep the
// 50-seed sweep inside a unit-test budget; the caps truncate the generated
// scenario without changing its draws, so every seed still exercises a
// distinct cluster/workload/schedule shape.
#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/parallel.hpp"

namespace rtdrm::check {
namespace {

/// Restores the process-wide worker budget after each test so thread
/// overrides never leak into other suites.
class FuzzDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { parallel::setThreads(0); }

  static ShrinkSpec cappedScenario() {
    ShrinkSpec shrink;
    shrink.max_subtasks = 3;
    shrink.max_periods = 6;
    return shrink;
  }

  static FuzzCaseResult runSharded(
      std::uint64_t seed, AllocatorKind kind, parallel::SimMode mode,
      parallel::LookaheadPolicy policy = parallel::LookaheadPolicy::kAdaptive) {
    FuzzExecConfig exec;
    exec.sim_shards = 3;  // control shard + 2 node shards
    exec.sim_mode = mode;
    exec.lookahead = policy;
    return runFuzzCase(makeFuzzScenario(seed, cappedScenario()), kind,
                       nullptr, exec);
  }
};

TEST_F(FuzzDeterminism, DetDigestsByteIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    // Alternate allocators so both decision paths get swept.
    const AllocatorKind kind = (seed % 2 == 0) ? AllocatorKind::kPredictive
                                               : AllocatorKind::kNonPredictive;
    parallel::setThreads(1);
    const FuzzCaseResult base =
        runSharded(seed, kind, parallel::SimMode::kDeterministic);
    EXPECT_EQ(base.violations, 0u) << "seed " << seed << ": " << base.report;
    ASSERT_FALSE(base.digest.empty());
    for (const unsigned threads : {2u, 4u, 8u}) {
      parallel::setThreads(threads);
      const FuzzCaseResult run =
          runSharded(seed, kind, parallel::SimMode::kDeterministic);
      EXPECT_EQ(base.digest, run.digest)
          << "seed " << seed << ": deterministic digest diverged at "
          << threads << " threads (" << base.digest.size() << " vs "
          << run.digest.size() << " bytes)";
      EXPECT_TRUE(base.sameOracleSamples(run))  // kept out of the digest
          << "oracle samples diverged";
    }
  }
}

TEST_F(FuzzDeterminism, AdaptiveVsStaticDigestParityAcrossThreadCounts) {
  // The adaptive-window determinism invariant, end to end: window sizing
  // is pure execution strategy, so a static-lookahead single-threaded run
  // and adaptive runs at any worker count must produce byte-identical
  // digests for every seed.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const AllocatorKind kind = (seed % 2 == 0) ? AllocatorKind::kPredictive
                                               : AllocatorKind::kNonPredictive;
    parallel::setThreads(1);
    const FuzzCaseResult base =
        runSharded(seed, kind, parallel::SimMode::kDeterministic,
                   parallel::LookaheadPolicy::kStatic);
    EXPECT_EQ(base.violations, 0u) << "seed " << seed << ": " << base.report;
    ASSERT_FALSE(base.digest.empty());
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      parallel::setThreads(threads);
      const FuzzCaseResult run =
          runSharded(seed, kind, parallel::SimMode::kDeterministic,
                     parallel::LookaheadPolicy::kAdaptive);
      EXPECT_EQ(base.digest, run.digest)
          << "seed " << seed << ": adaptive digest diverged from the "
          << "static baseline at " << threads << " threads ("
          << base.digest.size() << " vs " << run.digest.size() << " bytes)";
      EXPECT_TRUE(base.sameOracleSamples(run))  // kept out of the digest
          << "oracle samples diverged";
    }
  }
}

TEST_F(FuzzDeterminism, ManagerCrashDigestsByteIdenticalAcrossThreadCounts) {
  // Fixed-seed manager-crash scenarios: the sharded management plane
  // (gossip wire traffic, election, decision-gap accounting, the target
  // detector's heartbeats) must be exactly as thread-count independent as
  // the base stack. One seed runs the plane faults alone, one stacks them
  // on top of the node/link fault schedule.
  struct Case {
    std::uint64_t seed;
    bool with_node_faults;
  };
  for (const Case c : {Case{11, false}, Case{23, true}}) {
    const AllocatorKind kind = c.with_node_faults
                                   ? AllocatorKind::kNonPredictive
                                   : AllocatorKind::kPredictive;
    FuzzExecConfig exec;
    exec.sim_shards = 3;
    exec.sim_mode = parallel::SimMode::kDeterministic;
    FuzzDims dims{FuzzDim::kManagerFaults};
    if (c.with_node_faults) {
      dims.add(FuzzDim::kFaults);
    }
    const FuzzScenario scenario =
        makeFuzzScenario(c.seed, cappedScenario(), dims);
    ASSERT_GT(scenario.managers, 1u) << "seed " << c.seed;
    ASSERT_FALSE(scenario.faults.manager_crashes.empty())
        << "seed " << c.seed;
    parallel::setThreads(1);
    const FuzzCaseResult base = runFuzzCase(scenario, kind, nullptr, exec);
    EXPECT_EQ(base.violations, 0u) << "seed " << c.seed << ": "
                                   << base.report;
    ASSERT_FALSE(base.digest.empty());
    for (const unsigned threads : {2u, 4u, 8u}) {
      parallel::setThreads(threads);
      const FuzzCaseResult run = runFuzzCase(scenario, kind, nullptr, exec);
      EXPECT_EQ(base.digest, run.digest)
          << "seed " << c.seed << ": manager-crash digest diverged at "
          << threads << " threads";
      EXPECT_TRUE(base.sameOracleSamples(run))  // kept out of the digest
          << "oracle samples diverged";
    }
  }
}

TEST_F(FuzzDeterminism, SchedDimensionDigestsByteIdenticalAcrossThreadCounts) {
  // The new dimensions ride the same contract: EDF/RMS/LLF dispatch
  // decisions and the manager's period-adjust lever must be pure functions
  // of the scenario, independent of the worker-thread count.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const AllocatorKind kind = (seed % 2 == 0) ? AllocatorKind::kPredictive
                                               : AllocatorKind::kNonPredictive;
    FuzzExecConfig exec;
    exec.sim_shards = 3;
    exec.sim_mode = parallel::SimMode::kDeterministic;
    const FuzzScenario scenario =
        makeFuzzScenario(seed, cappedScenario(),
                         {FuzzDim::kSched, FuzzDim::kPeriodAdjust});
    parallel::setThreads(1);
    const FuzzCaseResult base = runFuzzCase(scenario, kind, nullptr, exec);
    EXPECT_EQ(base.violations, 0u) << "seed " << seed << ": " << base.report;
    ASSERT_FALSE(base.digest.empty());
    for (const unsigned threads : {2u, 4u, 8u}) {
      parallel::setThreads(threads);
      const FuzzCaseResult run = runFuzzCase(scenario, kind, nullptr, exec);
      EXPECT_EQ(base.digest, run.digest)
          << "seed " << seed << " (" << scenario.summary()
          << "): sched-dimension digest diverged at " << threads
          << " threads";
      EXPECT_TRUE(base.sameOracleSamples(run))  // kept out of the digest
          << "oracle samples diverged";
    }
  }
}

TEST_F(FuzzDeterminism, SwitchedFabricDigestsByteIdenticalAcrossThreadCounts) {
  // Switched-fabric episodes on the sharded engine: per-port FIFO service,
  // store-and-forward hops, tail-drop NACK returns, and the generator
  // workload mixes must all be pure functions of the scenario — the
  // worker-thread count can never leak into a deterministic-mode digest.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const AllocatorKind kind = (seed % 2 == 0) ? AllocatorKind::kPredictive
                                               : AllocatorKind::kNonPredictive;
    FuzzExecConfig exec;
    exec.sim_shards = 3;
    exec.sim_mode = parallel::SimMode::kDeterministic;
    const FuzzScenario scenario =
        makeFuzzScenario(seed, cappedScenario(),
                         {FuzzDim::kNetTopology, FuzzDim::kWorkloadMix});
    parallel::setThreads(1);
    const FuzzCaseResult base = runFuzzCase(scenario, kind, nullptr, exec);
    EXPECT_EQ(base.violations, 0u) << "seed " << seed << ": " << base.report;
    ASSERT_FALSE(base.digest.empty());
    for (const unsigned threads : {2u, 4u, 8u}) {
      parallel::setThreads(threads);
      const FuzzCaseResult run = runFuzzCase(scenario, kind, nullptr, exec);
      EXPECT_EQ(base.digest, run.digest)
          << "seed " << seed << " (" << scenario.summary()
          << "): switched-fabric digest diverged at " << threads
          << " threads";
      EXPECT_TRUE(base.sameOracleSamples(run))  // kept out of the digest
          << "oracle samples diverged";
    }
  }
}

TEST_F(FuzzDeterminism, DroppedFabricDimensionsReproduceBaseDigests) {
  // Bus neutrality on the sharded engine: enabling the network-topology and
  // workload-mix dimensions but shrinking them away must reproduce the
  // baseline digest byte for byte there too, not only on the single queue
  // (RunFuzzCase.DroppedDimensionsReproduceBaselineDigest covers that one).
  FuzzExecConfig exec;
  exec.sim_shards = 3;
  exec.sim_mode = parallel::SimMode::kDeterministic;
  const FuzzDims fabric{FuzzDim::kNetTopology, FuzzDim::kWorkloadMix};
  ShrinkSpec dropped = cappedScenario();
  dropped.dropped = fabric;
  parallel::setThreads(2);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const AllocatorKind kind = (seed % 2 == 0) ? AllocatorKind::kPredictive
                                               : AllocatorKind::kNonPredictive;
    const FuzzCaseResult base = runFuzzCase(
        makeFuzzScenario(seed, cappedScenario()), kind, nullptr, exec);
    const FuzzCaseResult gated = runFuzzCase(
        makeFuzzScenario(seed, dropped, fabric), kind, nullptr, exec);
    ASSERT_FALSE(base.digest.empty());
    EXPECT_EQ(base.digest, gated.digest) << "seed " << seed;
  }
}

TEST_F(FuzzDeterminism, FastDigestsByteIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const AllocatorKind kind = (seed % 2 == 0) ? AllocatorKind::kPredictive
                                               : AllocatorKind::kNonPredictive;
    parallel::setThreads(1);
    const FuzzCaseResult base =
        runSharded(seed, kind, parallel::SimMode::kFast);
    ASSERT_FALSE(base.digest.empty());
    for (const unsigned threads : {2u, 4u, 8u}) {
      parallel::setThreads(threads);
      const FuzzCaseResult run =
          runSharded(seed, kind, parallel::SimMode::kFast);
      EXPECT_EQ(base.digest, run.digest)
          << "seed " << seed << ": fast digest diverged at " << threads
          << " threads";
      EXPECT_TRUE(base.sameOracleSamples(run))  // kept out of the digest
          << "oracle samples diverged";
    }
  }
}

TEST_F(FuzzDeterminism, ShardedReplayIsByteIdentical) {
  // Same (seed, shards, mode, threads) twice: hidden nondeterminism in the
  // sharded path (iteration order, uninitialized state) would diverge here
  // even with one worker.
  parallel::setThreads(4);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const FuzzCaseResult a = runSharded(seed, AllocatorKind::kPredictive,
                                        parallel::SimMode::kDeterministic);
    const FuzzCaseResult b = runSharded(seed, AllocatorKind::kPredictive,
                                        parallel::SimMode::kDeterministic);
    EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
  }
}

TEST_F(FuzzDeterminism, LegacySingleQueueDigestUnchangedByExecConfig) {
  // The default FuzzExecConfig must be the exact legacy path: a run with
  // an explicit 1-shard exec config matches the implicit default byte for
  // byte, at any thread setting.
  const FuzzScenario s = makeFuzzScenario(7, cappedScenario());
  const FuzzCaseResult implicit_default =
      runFuzzCase(s, AllocatorKind::kPredictive);
  parallel::setThreads(8);
  FuzzExecConfig exec;
  exec.sim_shards = 1;
  exec.sim_mode = parallel::SimMode::kFast;  // ignored at one shard
  const FuzzCaseResult explicit_single =
      runFuzzCase(s, AllocatorKind::kPredictive, nullptr, exec);
  EXPECT_EQ(implicit_default.digest, explicit_single.digest);
}

}  // namespace
}  // namespace rtdrm::check
