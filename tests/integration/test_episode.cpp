#include "experiments/episode.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "apps/dynbench.hpp"
#include "experiments/model_store.hpp"

namespace rtdrm::experiments {
namespace {

// Shared fixture state: fit the models once for the whole file.
class EpisodeTest : public ::testing::Test {
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

  static EpisodeConfig shortConfig() {
    EpisodeConfig cfg;
    cfg.periods = 40;
    return cfg;
  }

  static workload::RampParams ramp(double max_tracks) {
    workload::RampParams p;
    p.min_workload = DataSize::tracks(500.0);
    p.max_workload = DataSize::tracks(max_tracks);
    p.ramp_periods = 15;
    return p;
  }

  static task::TaskSpec* spec_;
  static FittedModelSet* fitted_;
};

task::TaskSpec* EpisodeTest::spec_ = nullptr;
FittedModelSet* EpisodeTest::fitted_ = nullptr;

TEST_F(EpisodeTest, MetricsAreWellFormed) {
  const workload::Triangular pat(ramp(6000.0));
  const EpisodeResult r = runEpisode(*spec_, pat, fitted_->models,
                                     AlgorithmKind::kPredictive,
                                     shortConfig());
  EXPECT_GE(r.missed_pct, 0.0);
  EXPECT_LE(r.missed_pct, 100.0);
  EXPECT_GT(r.cpu_pct, 0.0);
  EXPECT_LT(r.cpu_pct, 100.0);
  EXPECT_GE(r.net_pct, 0.0);
  EXPECT_GE(r.avg_replicas, 1.0);
  EXPECT_LE(r.avg_replicas, 6.0);
  EXPECT_GT(r.combined, 0.0);
  EXPECT_GE(r.metrics.missed_deadlines.total(), 38u);
}

TEST_F(EpisodeTest, DeterministicForSameSeed) {
  const workload::Triangular pat(ramp(6000.0));
  const EpisodeResult a = runEpisode(*spec_, pat, fitted_->models,
                                     AlgorithmKind::kPredictive,
                                     shortConfig());
  const EpisodeResult b = runEpisode(*spec_, pat, fitted_->models,
                                     AlgorithmKind::kPredictive,
                                     shortConfig());
  EXPECT_DOUBLE_EQ(a.combined, b.combined);
  EXPECT_DOUBLE_EQ(a.missed_pct, b.missed_pct);
  EXPECT_DOUBLE_EQ(a.avg_replicas, b.avg_replicas);
}

TEST_F(EpisodeTest, SeedChangesOutcomeSlightly) {
  const workload::Triangular pat(ramp(6000.0));
  EpisodeConfig cfg = shortConfig();
  const EpisodeResult a = runEpisode(*spec_, pat, fitted_->models,
                                     AlgorithmKind::kPredictive, cfg);
  cfg.scenario.seed += 1;
  const EpisodeResult b = runEpisode(*spec_, pat, fitted_->models,
                                     AlgorithmKind::kPredictive, cfg);
  EXPECT_NE(a.cpu_pct, b.cpu_pct);
}

TEST_F(EpisodeTest, TinyWorkloadNeedsNoReplication) {
  const workload::Constant pat(DataSize::tracks(300.0));
  for (auto kind :
       {AlgorithmKind::kPredictive, AlgorithmKind::kNonPredictive}) {
    const EpisodeResult r =
        runEpisode(*spec_, pat, fitted_->models, kind, shortConfig());
    EXPECT_DOUBLE_EQ(r.avg_replicas, 1.0) << algorithmName(kind);
    EXPECT_DOUBLE_EQ(r.missed_pct, 0.0) << algorithmName(kind);
  }
}

TEST_F(EpisodeTest, HeavyWorkloadForcesReplication) {
  const workload::Triangular pat(ramp(10000.0));
  const EpisodeResult r = runEpisode(*spec_, pat, fitted_->models,
                                     AlgorithmKind::kPredictive,
                                     shortConfig());
  EXPECT_GT(r.avg_replicas, 1.2);
  EXPECT_GT(r.metrics.replicate_actions, 0u);
}

TEST_F(EpisodeTest, NonPredictiveUsesMoreReplicas) {
  // The paper's headline contrast (Fig. 9c/9d): the threshold heuristic
  // over-replicates relative to the forecast-driven allocator.
  const workload::Triangular pat(ramp(10000.0));
  const EpisodeResult pred = runEpisode(*spec_, pat, fitted_->models,
                                        AlgorithmKind::kPredictive,
                                        shortConfig());
  const EpisodeResult nonp = runEpisode(*spec_, pat, fitted_->models,
                                        AlgorithmKind::kNonPredictive,
                                        shortConfig());
  EXPECT_GE(nonp.avg_replicas, pred.avg_replicas);
}

TEST_F(EpisodeTest, SweepCoversRequestedGridInOrder) {
  SweepConfig cfg;
  cfg.episode = shortConfig();
  cfg.episode.periods = 24;
  cfg.ramp = ramp(0.0);  // max overwritten per point
  cfg.max_workload_units = {2.0, 8.0, 14.0};
  const auto points =
      runWorkloadSweep(*spec_, fitted_->models, "triangular", cfg);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].max_workload_units, 2.0);
  EXPECT_DOUBLE_EQ(points[2].max_workload_units, 14.0);
}

TEST_F(EpisodeTest, SweepParallelMatchesSerial) {
  SweepConfig cfg;
  cfg.episode = shortConfig();
  cfg.episode.periods = 16;
  cfg.ramp = ramp(0.0);
  cfg.max_workload_units = {4.0, 12.0};
  cfg.parallel = true;
  const auto par = runWorkloadSweep(*spec_, fitted_->models, "increasing", cfg);
  cfg.parallel = false;
  const auto ser = runWorkloadSweep(*spec_, fitted_->models, "increasing", cfg);
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_DOUBLE_EQ(par[i].predictive.combined, ser[i].predictive.combined);
    EXPECT_DOUBLE_EQ(par[i].non_predictive.combined,
                     ser[i].non_predictive.combined);
  }
}

TEST_F(EpisodeTest, SweepReplicationAveragesSeeds) {
  SweepConfig cfg;
  cfg.episode = shortConfig();
  cfg.episode.periods = 16;
  cfg.ramp = ramp(0.0);
  cfg.max_workload_units = {10.0};
  cfg.replications = 3;
  const auto avg = runWorkloadSweep(*spec_, fitted_->models, "triangular",
                                    cfg);
  ASSERT_EQ(avg.size(), 1u);
  // The replicated mean must equal the hand-computed mean of the three
  // single-seed runs.
  double expected = 0.0;
  for (std::size_t r = 0; r < 3; ++r) {
    EpisodeConfig ep = cfg.episode;
    ep.scenario.seed = cfg.episode.scenario.seed + r;
    ep.manager.d_init = cfg.ramp.min_workload;
    workload::RampParams rp = cfg.ramp;
    rp.max_workload = DataSize::tracks(5000.0);
    const workload::Triangular pat(rp);
    expected += runEpisode(*spec_, pat, fitted_->models,
                           AlgorithmKind::kPredictive, ep)
                    .combined;
  }
  EXPECT_NEAR(avg[0].predictive.combined, expected / 3.0, 1e-9);
}

TEST_F(EpisodeTest, DecreasingRampInitializesEqfAtMaxWorkload) {
  SweepConfig cfg;
  cfg.episode = shortConfig();
  cfg.episode.periods = 16;
  cfg.ramp = ramp(0.0);
  cfg.max_workload_units = {10.0};
  const auto points =
      runWorkloadSweep(*spec_, fitted_->models, "decreasing", cfg);
  ASSERT_EQ(points.size(), 1u);
  // Sanity only: the episode ran and produced metrics.
  EXPECT_GT(points[0].predictive.cpu_pct, 0.0);
}

TEST(AlgorithmName, Stable) {
  EXPECT_EQ(algorithmName(AlgorithmKind::kPredictive), "predictive");
  EXPECT_EQ(algorithmName(AlgorithmKind::kNonPredictive), "non-predictive");
}


// ---- Frame trains are invisible to whole episodes ------------------------
//
// A pass-through frame-fate hook keeps every bus grant on the per-frame
// path without changing what happens on the wire. The same Table-1 bus
// episode with and without it must deliver bit-identical receipts and
// results. busEpisode() attaches the hook and a delivery observer to the
// episode runEpisode() runs, for the paper, multi and surge mixes; its
// unhooked result is checked against runEpisode's first.

struct BusEpisode {
  EpisodeResult result;
  std::vector<std::uint64_t> receipts;  // bit patterns, delivery order
};

BusEpisode busEpisode(const task::TaskSpec& spec,
                      const workload::Pattern& pattern,
                      const core::PredictiveModels& models,
                      AlgorithmKind algorithm, const EpisodeConfig& config,
                      bool per_frame) {
  Episode episode(config, {{&spec, &pattern, &models}}, algorithm);
  BusEpisode out;
  net::NetworkModel& net = episode.scenario().net();
  net.setDeliveryObserver([&out](const net::MessageReceipt& r) {
    for (const double v : {r.enqueued.ms(), r.first_bit.ms(),
                           r.delivered.ms(), r.payload.count()}) {
      out.receipts.push_back(std::bit_cast<std::uint64_t>(v));
    }
  });
  if (per_frame) {
    net.setFrameFateHook(
        [](const net::FrameHop&) { return net::FrameFate::kDeliver; });
  }
  episode.run();
  net.setFrameFateHook(nullptr);
  net.setDeliveryObserver(nullptr);
  out.result = episode.result();
  return out;
}

std::vector<std::uint64_t> resultBits(const EpisodeResult& r) {
  std::vector<std::uint64_t> v;
  for (const double x : {r.combined, r.missed_pct, r.cpu_pct, r.net_pct,
                         r.avg_replicas, r.metrics.end_to_end_ms.mean(),
                         r.metrics.shed_fraction.mean()}) {
    v.push_back(std::bit_cast<std::uint64_t>(x));
  }
  v.push_back(r.metrics.replicate_actions);
  v.push_back(r.metrics.shutdown_actions);
  v.push_back(r.metrics.allocation_failures);
  v.push_back(r.metrics.missed_deadlines.hits());
  v.push_back(r.metrics.missed_deadlines.total());
  return v;
}

TEST_F(EpisodeTest, FrameTrainsMatchPerFrameBusOnWholeEpisodes) {
  const workload::Triangular pat(ramp(8000.0));
  for (const workload::WorkloadMix mix :
       {workload::WorkloadMix::kPaper, workload::WorkloadMix::kMulti,
        workload::WorkloadMix::kSurge}) {
    for (const AlgorithmKind kind :
         {AlgorithmKind::kPredictive, AlgorithmKind::kNonPredictive}) {
      EpisodeConfig cfg = shortConfig();
      cfg.workload_mix = mix;
      const auto where = [&] {
        return std::string(workload::workloadMixName(mix)) + " / " +
               algorithmName(kind);
      };
      const EpisodeResult real =
          runEpisode(*spec_, pat, fitted_->models, kind, cfg);
      const BusEpisode trains =
          busEpisode(*spec_, pat, fitted_->models, kind, cfg, false);
      const BusEpisode frames =
          busEpisode(*spec_, pat, fitted_->models, kind, cfg, true);
      EXPECT_EQ(resultBits(trains.result), resultBits(real)) << where();
      EXPECT_EQ(resultBits(frames.result), resultBits(trains.result))
          << where();
      EXPECT_EQ(frames.receipts, trains.receipts) << where();
      EXPECT_FALSE(trains.receipts.empty()) << where();
    }
  }
}
}  // namespace
}  // namespace rtdrm::experiments
