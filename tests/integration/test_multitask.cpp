#include "experiments/multitask.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "apps/dynbench.hpp"
#include "experiments/model_store.hpp"

namespace rtdrm::experiments {
namespace {

class MultiTaskTest : public ::testing::Test {
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

  static MultiTaskConfig config(std::size_t tasks) {
    MultiTaskConfig cfg;
    cfg.episode.periods = 48;
    cfg.task_count = tasks;
    cfg.phase_shift = 15;
    return cfg;
  }

  static task::TaskSpec* spec_;
  static FittedModelSet* fitted_;
};

task::TaskSpec* MultiTaskTest::spec_ = nullptr;
FittedModelSet* MultiTaskTest::fitted_ = nullptr;

/// Models for the Engage/Surveillance paths, fitted on a light grid.
FittedModelSet fitPath(const task::TaskSpec& spec) {
  ModelFitConfig mc = defaultModelFitConfig();
  mc.exec.data_sizes = {DataSize::tracks(500.0), DataSize::tracks(1500.0),
                        DataSize::tracks(3000.0), DataSize::tracks(4500.0)};
  mc.exec.samples_per_point = 3;
  mc.comm.workload_levels = {DataSize::tracks(1000.0),
                             DataSize::tracks(4000.0),
                             DataSize::tracks(8000.0)};
  mc.comm.periods_per_level = 6;
  return fitAllModels(spec, mc);
}

/// Bit patterns of a task set's outcome: one row per task (the five
/// C-metric inputs, latency and shed means, then the replicate, shutdown,
/// allocation-failure, miss and period counts), then the cross-task means.
std::vector<std::uint64_t> pinBits(const MultiTaskResult& r) {
  std::vector<std::uint64_t> v;
  for (const EpisodeResult& t : r.tasks) {
    for (const double x : {t.combined, t.missed_pct, t.cpu_pct, t.net_pct,
                           t.avg_replicas, t.metrics.end_to_end_ms.mean(),
                           t.metrics.shed_fraction.mean()}) {
      v.push_back(std::bit_cast<std::uint64_t>(x));
    }
    for (const std::uint64_t n :
         {t.metrics.replicate_actions, t.metrics.shutdown_actions,
          t.metrics.allocation_failures, t.metrics.missed_deadlines.hits(),
          t.metrics.missed_deadlines.total()}) {
      v.push_back(n);
    }
  }
  for (const double x :
       {r.combined, r.missed_pct, r.cpu_pct, r.net_pct, r.avg_replicas}) {
    v.push_back(std::bit_cast<std::uint64_t>(x));
  }
  return v;
}

TEST_F(MultiTaskTest, SingleTaskMatchesPlainEpisodeShape) {
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(6000.0);
  const workload::Triangular pat(ramp);
  const MultiTaskResult multi = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, config(1));
  ASSERT_EQ(multi.tasks.size(), 1u);
  EpisodeConfig single_cfg;
  single_cfg.periods = 48;
  const EpisodeResult single = runEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, single_cfg);
  // Same substrate, same episode length; means should be close (the
  // multi-task path differs only in ledger plumbing and placement offsets).
  EXPECT_NEAR(multi.missed_pct, single.missed_pct, 5.0);
  EXPECT_NEAR(multi.avg_replicas, single.avg_replicas, 0.6);
}

TEST_F(MultiTaskTest, TwoTasksProduceTwoMetricSets) {
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(5000.0);
  const workload::Triangular pat(ramp);
  const MultiTaskResult r = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, config(2));
  ASSERT_EQ(r.tasks.size(), 2u);
  for (const auto& t : r.tasks) {
    EXPECT_GE(t.metrics.missed_deadlines.total(), 45u);
    EXPECT_GT(t.cpu_pct, 0.0);
    EXPECT_GE(t.avg_replicas, 1.0);
  }
  // The aggregate is the mean of per-task values.
  EXPECT_NEAR(r.combined,
              (r.tasks[0].combined + r.tasks[1].combined) / 2.0, 1e-9);
}

TEST_F(MultiTaskTest, InterferenceRaisesLoadVsSingleTask) {
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(6000.0);
  const workload::Triangular pat(ramp);
  const MultiTaskResult one = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, config(1));
  const MultiTaskResult two = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, config(2));
  EXPECT_GT(two.cpu_pct, one.cpu_pct * 1.3);
  EXPECT_GT(two.net_pct, one.net_pct * 1.3);
}

TEST_F(MultiTaskTest, DeterministicForSameSeed) {
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(5000.0);
  const workload::Triangular pat(ramp);
  const MultiTaskResult a = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kNonPredictive, config(2));
  const MultiTaskResult b = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kNonPredictive, config(2));
  EXPECT_DOUBLE_EQ(a.combined, b.combined);
  EXPECT_DOUBLE_EQ(a.missed_pct, b.missed_pct);
}

TEST_F(MultiTaskTest, HeterogeneousTaskSetRuns) {
  const task::TaskSpec engage = apps::makeEngagePathSpec();
  const task::TaskSpec surveil = apps::makeSurveillancePathSpec();
  const FittedModelSet f_engage = fitPath(engage);
  const FittedModelSet f_surveil = fitPath(surveil);

  const workload::Constant e_load(DataSize::tracks(1500.0));
  const workload::Constant s_load(DataSize::tracks(2000.0));
  const std::vector<EpisodeTask> members{
      {&engage, &e_load, &f_engage.models, 0},
      {&surveil, &s_load, &f_surveil.models, 0}};
  const MultiTaskResult r = runTaskSetEpisode(
      members, AlgorithmKind::kPredictive, {}, SimDuration::seconds(20.0));
  ASSERT_EQ(r.tasks.size(), 2u);
  // Engage releases at 2 Hz, Surveillance at 0.5 Hz: period counts differ
  // accordingly over the shared horizon.
  EXPECT_GT(r.tasks[0].metrics.missed_deadlines.total(),
            3 * r.tasks[1].metrics.missed_deadlines.total());
  for (const auto& t : r.tasks) {
    EXPECT_LT(t.missed_pct, 30.0);
  }
}

// Bit-for-bit pins of the task-set path: the shared ledger, staggered
// homes, per-task noise streams, pattern phases and the drain all feed
// these numbers.
TEST_F(MultiTaskTest, TwoTaskEpisodeIsPinned) {
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(5000.0);
  const workload::Triangular pat(ramp);
  EXPECT_EQ(pinBits(runMultiTaskEpisode(*spec_, pat, fitted_->models,
                                        AlgorithmKind::kPredictive,
                                        config(2))),
            (std::vector<std::uint64_t>{
                0x3fddc94762fcedfa, 0, 0x40283df81c86a753, 0x402d9a9531b34e96,
                0x3ff2d55555555555, 0x4077b1921e201128, 0, 1, 1, 0, 0, 49,
                0x3fde3b0e7f6eb517, 0, 0x40283df81c86a753, 0x402d9a9531b34e96,
                0x3ff3800000000000, 0x4075e10597d32bf2, 0, 1, 1, 0, 0, 49,
                0x3fde022af135d188, 0, 0x40283df81c86a753, 0x402d9a9531b34e96,
                0x3ff32aaaaaaaaaaa}));
  EXPECT_EQ(pinBits(runMultiTaskEpisode(*spec_, pat, fitted_->models,
                                        AlgorithmKind::kNonPredictive,
                                        config(2))),
            (std::vector<std::uint64_t>{
                0x3fe1cc5858538e2e, 0, 0x4025c77787ad3681, 0x402ec777bccec93b,
                0x3ffc2aaaaaaaaaab, 0x40758fa81e792df1, 0, 1, 5, 0, 0, 49,
                0x3fe3afe691371c66, 0, 0x4025c77787ad3681, 0x402ec777bccec93b,
                0x4000eaaaaaaaaaaa, 0x40736f79ebb1d88f, 0, 1, 5, 0, 0, 49,
                0x3fe2be1f74c5554a, 0, 0x4025c77787ad3681, 0x402ec777bccec93b,
                0x3fff000000000000}));
}

TEST_F(MultiTaskTest, HeterogeneousTaskSetIsPinned) {
  // Engage rides a phase-shifted triangle heavy enough to replicate;
  // Surveillance holds a flat load at a quarter of Engage's rate.
  const task::TaskSpec engage = apps::makeEngagePathSpec();
  const task::TaskSpec surveil = apps::makeSurveillancePathSpec();
  const FittedModelSet f_engage = fitPath(engage);
  const FittedModelSet f_surveil = fitPath(surveil);
  workload::RampParams er;
  er.min_workload = DataSize::tracks(1000.0);
  er.max_workload = DataSize::tracks(6000.0);
  er.ramp_periods = 10;
  const workload::Triangular e_load(er);
  const workload::Constant s_load(DataSize::tracks(4000.0));
  const std::vector<EpisodeTask> members{
      {&engage, &e_load, &f_engage.models, 7},
      {&surveil, &s_load, &f_surveil.models, 0}};
  EXPECT_EQ(pinBits(runTaskSetEpisode(members, AlgorithmKind::kPredictive,
                                      {}, SimDuration::seconds(20.0))),
            (std::vector<std::uint64_t>{
                0x3ff34b5273db0020, 0x4013831f3831f383, 0x4027cee7c3604bce,
                0x4037aaf96b788fc6, 0x40133bbbbbbbbbbd, 0x40705f066cf5d5aa, 0,
                9, 15, 14, 2, 41,
                0x3fe071ccfa7e03d6, 0, 0x40261bf8e5325c73, 0x4037aaf97185f319,
                0x3ff0000000000000, 0x4072294d1032d3b5, 0, 0, 0, 0, 0, 11,
                0x3feb8438f11a020b, 0x4003831f3831f383, 0x4026f57054495420,
                0x4037aaf96e7f4170, 0x40073bbbbbbbbbbd}));
  EXPECT_EQ(pinBits(runTaskSetEpisode(members, AlgorithmKind::kNonPredictive,
                                      {}, SimDuration::seconds(20.0))),
            (std::vector<std::uint64_t>{
                0x3ff31dac368ead07, 0x401d44aed44aed44, 0x4027eecb5874c686,
                0x403786384903f024, 0x4012666666666669, 0x407088cf1cc6dafd, 0,
                11, 16, 2, 3, 41,
                0x3fe07088557f5d13, 0, 0x40265d8e225ff049, 0x403786384f53600e,
                0x3ff0000000000000, 0x4072663a78aaa81b, 0, 0, 0, 0, 0, 11,
                0x3feb55f0614e5b90, 0x400d44aed44aed44, 0x4027262cbd6a5b68,
                0x403786384c2ba819, 0x4006666666666669}));
}

TEST_F(MultiTaskTest, ThreeTasksStillSchedulable) {
  workload::RampParams ramp;
  ramp.max_workload = DataSize::tracks(4000.0);
  const workload::Triangular pat(ramp);
  const MultiTaskResult r = runMultiTaskEpisode(
      *spec_, pat, fitted_->models, AlgorithmKind::kPredictive, config(3));
  ASSERT_EQ(r.tasks.size(), 3u);
  EXPECT_LT(r.missed_pct, 40.0);
}

}  // namespace
}  // namespace rtdrm::experiments
