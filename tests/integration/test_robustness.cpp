// Failure injection and degenerate-configuration robustness: the manager
// must degrade gracefully — bounded misses, sane metrics, no crashes —
// when the environment misbehaves.
#include <gtest/gtest.h>

#include "apps/dynbench.hpp"
#include "experiments/episode.hpp"
#include "experiments/model_store.hpp"

namespace rtdrm::experiments {
namespace {

class Robustness : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = new task::TaskSpec(apps::makeAawTaskSpec());
    ModelFitConfig cfg = defaultModelFitConfig();
    cfg.exec.samples_per_point = 3;
    fitted_ = new FittedModelSet(fitAllModels(*spec_, cfg));
  }
  static void TearDownTestSuite() {
    delete fitted_;
    delete spec_;
  }
  static task::TaskSpec* spec_;
  static FittedModelSet* fitted_;
};

task::TaskSpec* Robustness::spec_ = nullptr;
FittedModelSet* Robustness::fitted_ = nullptr;

// Shared driver: constant 8000-track load for 48 periods with one node
// hogged at ~90% ambient utilization from `hog_at` onward. The five stages
// start on nodes 0-4, so the question is purely whether the allocator
// sends replicas to node 5.
struct HogOutcome {
  core::EpisodeMetrics metrics;
  /// Final replica-set node order of the Filter stage (addition order).
  std::vector<ProcessorId> filter_nodes;
};

HogOutcome runWithHog(const task::TaskSpec& spec,
                      const FittedModelSet& fitted, SimDuration hog_at) {
  const workload::Constant load(DataSize::tracks(8000.0));
  EpisodeConfig cfg;
  cfg.periods = 48;
  Episode episode(cfg, {{&spec, &load, &fitted.models}},
                  AlgorithmKind::kPredictive);
  episode.onStart([&episode, hog_at] {
    episode.scenario().sim().scheduleAt(SimTime::zero() + hog_at, [&episode] {
      episode.scenario().cluster().backgroundLoad(ProcessorId{5})
          .setTarget(Utilization::fraction(0.9));
    });
  });
  episode.run();
  core::ResourceManager& manager = episode.manager();
  return HogOutcome{manager.metrics(),
                    manager.runner().placement().stage(apps::kFilterStage)
                        .nodes()};
}

TEST_F(Robustness, PreExistingHogIsChosenLast) {
  // The hog is active before any replication decision. Fig. 5's step 3
  // takes the least-utilized processor first, so if the Filter escalates to
  // the hogged node at all, it must be the *last* addition — and the
  // system must degrade gracefully rather than collapse. (Note the
  // published algorithm has no way to refuse the hogged node outright: on
  // forecast failure, Fig. 5 ends with PS = all processors.)
  const auto out = runWithHog(*spec_, *fitted_, SimDuration::zero());
  for (std::size_t i = 0; i + 1 < out.filter_nodes.size(); ++i) {
    EXPECT_NE(out.filter_nodes[i], (ProcessorId{5}))
        << "hogged node taken before an idle one (position " << i << ")";
  }
  EXPECT_GT(out.metrics.replicas_per_subtask.mean(), 1.0);
  EXPECT_LT(out.metrics.missedRatio(), 0.7);
}

TEST_F(Robustness, MidEpisodeHogDegradesButSurvives) {
  // The hog appears after replicas may already sit on node 5. The paper's
  // shutdown policy (Fig. 6) only removes the *last added* replica, so a
  // trapped replica on the hogged node cannot be selectively evicted —
  // misses rise, but the system keeps operating and never exceeds the
  // cluster. (A documented limitation of the published algorithm; see
  // DESIGN.md §6.)
  const auto out = runWithHog(*spec_, *fitted_, SimDuration::seconds(10.0));
  EXPECT_GE(out.metrics.missed_deadlines.total(), 45u);  // kept running
  EXPECT_LE(out.metrics.replicas_per_subtask.max(), 6.0);
  EXPECT_LT(out.metrics.missedRatio(), 0.9);  // degraded, not collapsed
}

TEST_F(Robustness, InfeasibleDeadlineDegradesGracefully) {
  task::TaskSpec tight = *spec_;
  tight.deadline = SimDuration::millis(5.0);  // hopeless
  const workload::Constant pat(DataSize::tracks(8000.0));
  EpisodeConfig cfg;
  cfg.periods = 24;
  const EpisodeResult r = runEpisode(tight, pat, fitted_->models,
                                     AlgorithmKind::kPredictive, cfg);
  EXPECT_GT(r.missed_pct, 99.0);
  EXPECT_GT(r.metrics.allocation_failures, 0u);
  EXPECT_LE(r.avg_replicas, 6.0);  // never exceeds the cluster
  EXPECT_GE(r.metrics.missed_deadlines.total(), 22u);  // kept running
}

TEST_F(Robustness, ExtremeOverloadHitsCutoffNotLivelock) {
  const workload::Constant pat(DataSize::tracks(60000.0));
  EpisodeConfig cfg;
  cfg.periods = 12;
  const EpisodeResult r = runEpisode(*spec_, pat, fitted_->models,
                                     AlgorithmKind::kPredictive, cfg);
  // Instances are aborted at the cutoff instead of piling up forever.
  EXPECT_GT(r.missed_pct, 90.0);
  EXPECT_LE(r.net_pct, 100.0);
  EXPECT_GE(r.metrics.missed_deadlines.total(), 10u);
}

TEST_F(Robustness, UnsynchronizedClocksStillOperate) {
  EpisodeConfig cfg;
  cfg.periods = 36;
  cfg.scenario.start_clock_sync = false;  // offsets drift unboundedly
  cfg.scenario.clock_sync.initial_offset_max = SimDuration::millis(20.0);
  cfg.scenario.clock_sync.drift_ppm_max = 200.0;
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(8000.0);
  const workload::Triangular pat(ramp);
  const EpisodeResult measured = runEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, cfg);
  // The monitor sees skewed latencies and may over/under-replicate, but
  // the system keeps producing coherent metrics.
  EXPECT_GE(measured.avg_replicas, 1.0);
  EXPECT_LE(measured.avg_replicas, 6.0);
  EXPECT_GE(measured.metrics.missed_deadlines.total(), 34u);

  // With omniscient latency measurement the clock chaos is irrelevant.
  cfg.manager.monitor.use_measured_latency = false;
  const EpisodeResult truth = runEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, cfg);
  EXPECT_LT(truth.missed_pct, 25.0);
}

TEST_F(Robustness, ZeroWorkloadIsHarmless) {
  const workload::Constant pat(DataSize::zero());
  EpisodeConfig cfg;
  cfg.periods = 16;
  const EpisodeResult r = runEpisode(*spec_, pat, fitted_->models,
                                     AlgorithmKind::kPredictive, cfg);
  EXPECT_DOUBLE_EQ(r.missed_pct, 0.0);
  EXPECT_DOUBLE_EQ(r.avg_replicas, 1.0);
  EXPECT_EQ(r.metrics.replicate_actions, 0u);
}

TEST_F(Robustness, SingleNodeClusterCannotReplicateButRuns) {
  EpisodeConfig cfg;
  cfg.periods = 16;
  cfg.scenario.node_count = 1;
  const workload::Constant pat(DataSize::tracks(6000.0));
  const EpisodeResult r = runEpisode(*spec_, pat, fitted_->models,
                                     AlgorithmKind::kPredictive, cfg);
  EXPECT_DOUBLE_EQ(r.avg_replicas, 1.0);
  EXPECT_GE(r.metrics.missed_deadlines.total(), 14u);
}

TEST_F(Robustness, NonPredictiveSurvivesSameAbuse) {
  task::TaskSpec tight = *spec_;
  tight.deadline = SimDuration::millis(50.0);
  const workload::Constant pat(DataSize::tracks(12000.0));
  EpisodeConfig cfg;
  cfg.periods = 16;
  const EpisodeResult r = runEpisode(tight, pat, fitted_->models,
                                     AlgorithmKind::kNonPredictive, cfg);
  EXPECT_GE(r.metrics.missed_deadlines.total(), 14u);
  EXPECT_LE(r.avg_replicas, 6.0);
}

}  // namespace
}  // namespace rtdrm::experiments
