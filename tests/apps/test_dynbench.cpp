#include "apps/dynbench.hpp"

#include <gtest/gtest.h>

#include "apps/scenario.hpp"

namespace rtdrm::apps {
namespace {

TEST(AawTaskSpec, MatchesTable1Structure) {
  const task::TaskSpec spec = makeAawTaskSpec();
  EXPECT_EQ(spec.stageCount(), 5u);
  EXPECT_EQ(spec.messages.size(), 4u);
  EXPECT_EQ(spec.period, SimDuration::seconds(1.0));
  EXPECT_EQ(spec.deadline, SimDuration::millis(990.0));
  std::size_t replicable = 0;
  for (const auto& st : spec.subtasks) {
    replicable += st.replicable ? 1 : 0;
  }
  EXPECT_EQ(replicable, 2u);
  EXPECT_TRUE(spec.subtasks[kFilterStage].replicable);
  EXPECT_TRUE(spec.subtasks[kEvalDecideStage].replicable);
  EXPECT_EQ(spec.subtasks[kFilterStage].name, "Filter");
  EXPECT_EQ(spec.subtasks[kEvalDecideStage].name, "EvalDecide");
}

TEST(AawTaskSpec, GroundTruthFromTable2IdleColumns) {
  const task::TaskSpec spec = makeAawTaskSpec();
  EXPECT_DOUBLE_EQ(spec.subtasks[kFilterStage].cost.alpha_ms, kFilterAlpha);
  EXPECT_DOUBLE_EQ(spec.subtasks[kFilterStage].cost.beta_ms, kFilterBeta);
  EXPECT_DOUBLE_EQ(spec.subtasks[kEvalDecideStage].cost.alpha_ms,
                   kEvalDecideAlpha);
  // Filter's demand at 1000 tracks: 0.118*100 + 0.984*10 ~ 21.65 ms.
  EXPECT_NEAR(
      spec.subtasks[kFilterStage].cost.demand(DataSize::tracks(1000.0)).ms(),
      21.65, 0.1);
}

TEST(AawTaskSpec, ParamsArePlumbed) {
  AawTaskParams p;
  p.period = SimDuration::millis(250.0);
  p.deadline = SimDuration::millis(200.0);
  p.bytes_per_track = 40.0;
  p.noise_sigma = 0.0;
  const task::TaskSpec spec = makeAawTaskSpec(p);
  EXPECT_EQ(spec.period, SimDuration::millis(250.0));
  EXPECT_DOUBLE_EQ(spec.messages[0].bytes_per_track, 40.0);
  EXPECT_DOUBLE_EQ(spec.subtasks[0].noise_sigma, 0.0);
}

TEST(EngagePathSpec, StructureAndRates) {
  const task::TaskSpec spec = makeEngagePathSpec();
  EXPECT_EQ(spec.stageCount(), 6u);
  EXPECT_EQ(spec.period, SimDuration::millis(500.0));
  EXPECT_LT(spec.deadline, spec.period);
  std::size_t replicable = 0;
  for (const auto& st : spec.subtasks) {
    replicable += st.replicable ? 1 : 0;
  }
  EXPECT_EQ(replicable, 3u);
}

TEST(SurveillancePathSpec, StructureAndRates) {
  const task::TaskSpec spec = makeSurveillancePathSpec();
  EXPECT_EQ(spec.stageCount(), 3u);
  EXPECT_EQ(spec.period, SimDuration::seconds(2.0));
  std::size_t replicable = 0;
  for (const auto& st : spec.subtasks) {
    replicable += st.replicable ? 1 : 0;
  }
  EXPECT_EQ(replicable, 1u);
}

TEST(AllPathSpecs, ValidateAndAreFeasibleAtLightLoad) {
  // Sum of stage demands at 500 tracks must fit comfortably within each
  // path's deadline — otherwise the initial placement could never work.
  for (const task::TaskSpec& spec :
       {makeAawTaskSpec(), makeEngagePathSpec(),
        makeSurveillancePathSpec()}) {
    double total = 0.0;
    for (const auto& st : spec.subtasks) {
      total += st.cost.demand(DataSize::tracks(500.0)).ms();
    }
    EXPECT_LT(total, 0.5 * spec.deadline.ms()) << spec.name;
  }
}

TEST(Scenario, WiresTable1Defaults) {
  ScenarioConfig cfg;
  Scenario scenario(cfg);
  EXPECT_EQ(scenario.cluster().size(), 6u);
  EXPECT_TRUE(scenario.cluster().hasBackgroundLoad());
  EXPECT_EQ(scenario.config().ethernet.rate, BitRate::mbps(100.0));
  // Ambient load generators are armed.
  EXPECT_GT(scenario.cluster().backgroundLoad(ProcessorId{0}).target().value(),
            0.0);
}

TEST(Scenario, AmbientLoadRealized) {
  ScenarioConfig cfg;
  cfg.ambient_load = Utilization::fraction(0.3);
  Scenario scenario(cfg);
  scenario.runFor(SimDuration::seconds(60.0));
  const auto& u = scenario.cluster().sampleUtilization();
  for (const auto& v : u) {
    EXPECT_NEAR(v.value(), 0.3, 0.06);
  }
}

TEST(Scenario, NodeSpeedsPlumbThroughToProcessors) {
  ScenarioConfig cfg;
  cfg.node_count = 2;
  cfg.ambient_load = Utilization::zero();
  cfg.node_speeds = {2.0, 0.5};
  Scenario scenario(cfg);
  double fast_done = -1.0;
  double slow_done = -1.0;
  auto& sim = scenario.sim();
  scenario.cluster().processor(ProcessorId{0})
      .submit(node::Job{SimDuration::millis(10.0),
                        [&] { fast_done = sim.now().ms(); }, "f"});
  scenario.cluster().processor(ProcessorId{1})
      .submit(node::Job{SimDuration::millis(10.0),
                        [&] { slow_done = sim.now().ms(); }, "s"});
  sim.runUntil(SimTime::millis(50.0));
  EXPECT_DOUBLE_EQ(fast_done, 5.0);
  EXPECT_DOUBLE_EQ(slow_done, 20.0);
}

TEST(Scenario, ClockSyncOptional) {
  ScenarioConfig cfg;
  cfg.start_clock_sync = false;
  Scenario scenario(cfg);
  scenario.runFor(SimDuration::seconds(30.0));
  EXPECT_EQ(scenario.clocks().preSyncOffsetStats().count(), 0u);
}

}  // namespace
}  // namespace rtdrm::apps
