// Everything-on demo: a mission whose environment turns hostile mid-run.
//
//   * periods 0-39:   calm triangular workload, correct offline models;
//   * period 40:      environmental drift — the replicable subtasks' cost
//                     doubles (the offline eq.-3 models are now stale);
//   * periods 70-90:  a raid spikes the workload beyond what even full
//                     replication can serve.
//
// The manager runs with the online-refinement and load-shedding extensions
// enabled, so it (a) re-learns the cost surface after the drift and
// (b) degrades stream quality instead of missing during the raid. The
// timeline below shows replicas, shed fraction, and misses per phase.
//
// Run:  ./online_adaptation
#include <iostream>
#include <map>

#include "apps/dynbench.hpp"
#include "common/table.hpp"
#include "experiments/episode.hpp"
#include "experiments/model_store.hpp"
#include "workload/patterns.hpp"

using namespace rtdrm;

int main() {
  const task::TaskSpec spec = apps::makeAawTaskSpec();
  std::cout << "Fitting offline models (pre-drift environment)...\n";
  experiments::ModelFitConfig fit_cfg = experiments::defaultModelFitConfig();
  fit_cfg.exec.samples_per_point = 4;
  const auto fitted = experiments::fitAllModels(spec, fit_cfg);

  // Calm triangle 500..6000; raid pushes to 22000 for 20 periods.
  workload::RampParams ramp;
  ramp.min_workload = DataSize::tracks(500.0);
  ramp.max_workload = DataSize::tracks(6000.0);
  ramp.ramp_periods = 20;
  const workload::Triangular calm(ramp);
  const workload::Constant raid_level(DataSize::tracks(22000.0));
  const workload::Sequence mission(
      {{&calm, 70}, {&raid_level, 20}, {&calm, 0}});

  experiments::EpisodeConfig cfg;
  cfg.periods = 110;
  cfg.manager.d_init = DataSize::tracks(500.0);
  cfg.manager.online_refit = true;
  cfg.manager.refit.forgetting = 0.96;
  cfg.manager.allow_load_shedding = true;
  // Drift at period 40: replicable costs double.
  cfg.drift_at_period = 40;
  cfg.drift_cost_scale = 2.0;
  experiments::Episode episode(cfg, {{&spec, &mission, &fitted.models}},
                               experiments::AlgorithmKind::kPredictive);
  core::ResourceManager& manager = episode.manager();
  sim::Simulator& sim = episode.scenario().sim();
  sim.scheduleAt(SimTime::seconds(40.0), [] {
    std::cout << "[t=40s] environment drift: replicable costs x2\n";
  });

  struct Row {
    double workload = 0.0;
    std::size_t replicas = 0;
    double shed = 0.0;
  };
  std::map<std::uint64_t, Row> timeline;
  sim::PeriodicActivity snapshot(sim, spec.period, [&](std::uint64_t c) {
    Row& row = timeline[c];
    row.workload = mission.at(c).count();
    row.replicas =
        manager.runner().placement().stage(apps::kFilterStage).size();
    row.shed = manager.shedFraction();
  });
  episode.onStart(
      [&] { snapshot.start(sim.now() + SimDuration::millis(1.0)); });
  episode.onStop([&] { snapshot.stop(); });
  episode.run();

  printBanner(std::cout, "Mission timeline (every 5th period)");
  Table t({"period", "offered tracks", "Filter replicas", "shed %"}, 1);
  for (const auto& [c, row] : timeline) {
    if (c % 5 == 0) {
      t.addRow({static_cast<long long>(c),
                static_cast<long long>(row.workload),
                static_cast<long long>(row.replicas), row.shed * 100.0});
    }
  }
  t.print(std::cout);

  const auto& m = manager.metrics();
  printBanner(std::cout, "Mission summary");
  std::cout << "missed deadlines:      " << m.missed_deadlines.hits() << "/"
            << m.missed_deadlines.total() << " ("
            << m.missedRatio() * 100.0 << "%)\n"
            << "peak shed fraction:    " << m.shed_fraction.max() * 100.0
            << "%\n"
            << "refreshed Filter b3:   "
            << manager.models().exec[apps::kFilterStage].b3
            << " (offline seed "
            << fitted.models.exec[apps::kFilterStage].b3
            << "; post-drift ground truth ~2x)\n"
            << "replicate / shutdown:  " << m.replicate_actions << " / "
            << m.shutdown_actions << "\n";

  const bool adapted =
      manager.models().exec[apps::kFilterStage].b3 >
          fitted.models.exec[apps::kFilterStage].b3 * 1.3 &&
      m.shed_fraction.max() > 0.0 && m.missedRatio() < 0.25;
  std::cout << "\nadaptation verdict: "
            << (adapted ? "drift learned, raid absorbed by shedding, "
                          "misses bounded — PASS"
                        : "did not adapt as expected — FAIL")
            << "\n";
  return adapted ? 0 : 1;
}
