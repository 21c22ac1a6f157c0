// AAW engagement scenario: the kind of mission the paper's introduction
// motivates. A surface combatant tracks a quiet surveillance picture that
// is punctuated by bursty raids (sudden track-count spikes). The resource
// manager must replicate the Filter/EvalDecide subtasks during each raid
// and release the processors afterwards.
//
// Prints a per-period timeline — workload, replica counts, end-to-end
// latency vs deadline, manager actions — followed by a raid-by-raid
// summary.
//
// Run:  ./aaw_scenario [--periods N]
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <vector>

#include "apps/dynbench.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "experiments/episode.hpp"
#include "experiments/model_store.hpp"
#include "workload/patterns.hpp"

using namespace rtdrm;

int main(int argc, char** argv) {
  std::int64_t periods_arg = 120;
  ArgParser args("aaw_scenario",
                 "AAW engagement storyline with bursty raids");
  args.addInt("periods", "episode length in periods", &periods_arg);
  if (!args.parse(argc, argv)) {
    return args.helpRequested() ? EXIT_SUCCESS : EXIT_FAILURE;
  }
  const auto periods = static_cast<std::uint64_t>(periods_arg);

  const task::TaskSpec spec = apps::makeAawTaskSpec();
  std::cout << "Fitting regression models (one-time, offline)...\n";
  experiments::ModelFitConfig fit_cfg = experiments::defaultModelFitConfig();
  fit_cfg.exec.samples_per_point = 4;
  const auto fitted = experiments::fitAllModels(spec, fit_cfg);

  // Quiet picture of ~800 tracks; every 40 periods a 12-period raid pushes
  // the picture to 9,000 tracks.
  const workload::Burst raids(DataSize::tracks(800.0),
                              DataSize::tracks(9000.0),
                              /*burst_every=*/40, /*burst_len=*/12);

  // Replica counts per period, sampled right after each release.
  struct Row {
    double workload = 0.0;
    std::size_t filter_replicas = 1;
    std::size_t eval_replicas = 1;
  };
  std::map<std::uint64_t, Row> timeline;

  experiments::EpisodeConfig cfg;
  cfg.periods = periods;
  cfg.manager.d_init = DataSize::tracks(800.0);
  sim::TraceRecorder trace;
  experiments::Episode episode(cfg, {{&spec, &raids, &fitted.models}},
                               experiments::AlgorithmKind::kPredictive);
  core::ResourceManager& manager = episode.manager();
  manager.attachTrace(trace);

  sim::Simulator& sim = episode.scenario().sim();
  sim::PeriodicActivity snapshot(sim, spec.period, [&](std::uint64_t c) {
    Row& row = timeline[c];
    row.workload = raids.at(c).count();
    const task::Placement& p = manager.runner().placement();
    row.filter_replicas = p.stage(apps::kFilterStage).size();
    row.eval_replicas = p.stage(apps::kEvalDecideStage).size();
  });
  episode.onStart(
      [&] { snapshot.start(sim.now() + SimDuration::millis(1.0)); });
  episode.onStop([&] { snapshot.stop(); });
  episode.run();

  printBanner(std::cout, "Engagement timeline (every 4th period)");
  Table t({"period", "tracks", "Filter replicas", "EvalDecide replicas"}, 0);
  for (const auto& [c, row] : timeline) {
    if (c % 4 == 0) {
      t.addRow({static_cast<long long>(c),
                static_cast<long long>(row.workload),
                static_cast<long long>(row.filter_replicas),
                static_cast<long long>(row.eval_replicas)});
    }
  }
  t.print(std::cout);

  const auto& m = manager.metrics();
  printBanner(std::cout, "Engagement summary");
  std::cout << "periods observed:        " << m.missed_deadlines.total()
            << "\n"
            << "missed deadlines:        " << m.missed_deadlines.hits()
            << " (" << m.missedRatio() * 100.0 << "%)\n"
            << "mean end-to-end latency: " << m.end_to_end_ms.mean()
            << " ms (p-max " << m.end_to_end_ms.max() << " ms, deadline "
            << spec.deadline.ms() << " ms)\n"
            << "replication actions:     " << m.replicate_actions << "\n"
            << "shutdown actions:        " << m.shutdown_actions << "\n"
            << "mean CPU utilization:    " << m.cpu_utilization.mean() * 100.0
            << "%\n"
            << "mean net utilization:    " << m.net_utilization.mean() * 100.0
            << "%\n";

  printBanner(std::cout, "Per-subtask attribution");
  Table stages({"subtask", "mean latency (ms)", "max (ms)",
                "replicate actions", "shutdown actions"},
               1);
  for (std::size_t s = 0; s < spec.stageCount(); ++s) {
    const auto& sm = manager.metrics().stages[s];
    stages.addRow({spec.subtasks[s].name, sm.latency_ms.mean(),
                   sm.latency_ms.max(),
                   static_cast<long long>(sm.replicate_actions),
                   static_cast<long long>(sm.shutdown_actions)});
  }
  stages.print(std::cout);

  printBanner(std::cout, "End-to-end latency distribution (ms)");
  std::cout << manager.metrics().end_to_end_hist.render(44)
            << "p50 = " << manager.metrics().end_to_end_hist.quantile(0.5)
            << " ms, p99 = "
            << manager.metrics().end_to_end_hist.quantile(0.99) << " ms\n";

  printBanner(std::cout, "Manager action trace (first 12 events)");
  std::size_t shown = 0;
  for (const auto& e : trace.events()) {
    if (shown++ >= 12) {
      break;
    }
    std::cout << "  t=" << e.at.sec() << "s  "
              << sim::traceCategoryName(e.category) << "  " << e.label
              << "  -> " << e.value << "\n";
  }
  std::filesystem::create_directories("bench_out");
  if (trace.writeCsv("bench_out/aaw_trace.csv")) {
    std::cout << "(full trace written to bench_out/aaw_trace.csv)\n";
  }

  // Raids must have provoked scale-out and the quiet phases scale-in.
  bool scaled_out = false;
  bool scaled_in_after_raid = false;
  for (const auto& [c, row] : timeline) {
    if (row.workload > 5000.0 && row.filter_replicas > 1) {
      scaled_out = true;
    }
    if (scaled_out && row.workload < 1000.0 && row.filter_replicas == 1) {
      scaled_in_after_raid = true;
    }
  }
  std::cout << "\nadaptive behaviour: scale-out during raids "
            << (scaled_out ? "YES" : "NO") << ", scale-in after raids "
            << (scaled_in_after_raid ? "YES" : "NO") << "\n";
  return scaled_out && scaled_in_after_raid ? 0 : 1;
}
