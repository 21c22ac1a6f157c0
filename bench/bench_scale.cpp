// Management-plane scalability: episode wall clock over nodes x tasks.
//
// The paper fixes 6 nodes and one AAW task; this bench grows the episode
// to 256 nodes x 32 tasks and measures what the management plane costs as
// it scales, on the cluster's utilization min-index. A thread axis then
// runs the headline cell on the sharded engine across worker counts and
// cross-checks that every sharded run makes identical decisions.
//
// Emits bench_out/scale.csv and bench_out/scale_threads.csv; the committed
// BENCH_scale.json records the headline 256x32 cell. `--smoke` runs the
// 16-node short-horizon subset used by CI.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "experiments/multitask.hpp"
#include "workload/patterns.hpp"

using namespace rtdrm;

namespace {

struct CellConfig {
  std::size_t nodes = 6;
  std::size_t tasks = 1;
  std::uint64_t periods = 12;
  double max_tracks = 14000.0;
  double min_frac = 0.5;
  std::uint64_t ramp_periods = 6;
  experiments::AlgorithmKind algorithm =
      experiments::AlgorithmKind::kPredictive;
  /// Event-kernel sharding for the episode (1 = legacy single queue).
  std::size_t sim_shards = 1;
  parallel::SimMode sim_mode = parallel::SimMode::kDeterministic;
  parallel::LookaheadPolicy lookahead = parallel::LookaheadPolicy::kAdaptive;
};

struct CellResult {
  double wall_ms = 0.0;
  // Barrier-path profile (zero for single-queue cells).
  std::uint64_t windows = 0;
  std::uint64_t shard_windows = 0;
  std::uint64_t shard_windows_skipped = 0;
  std::uint64_t posts_merged = 0;
  std::uint64_t events = 0;
  // Decision-dependent aggregates, compared bit-for-bit across sharded
  // runs.
  double missed_pct = 0.0;
  double avg_replicas = 0.0;
  std::uint64_t replicate_actions = 0;
  std::uint64_t shutdown_actions = 0;
  std::uint64_t allocation_failures = 0;
};

/// One multi-task episode (runMultiTaskEpisode's, built here so the
/// engine's window statistics are reachable), timed end to end: release
/// through drain, managers included.
CellResult runCell(const task::TaskSpec& spec,
                   const core::PredictiveModels& models,
                   const CellConfig& cfg) {
  experiments::EpisodeConfig ep;
  ep.scenario.node_count = cfg.nodes;
  ep.scenario.sim_shards = cfg.sim_shards;
  ep.scenario.sim_mode = cfg.sim_mode;
  ep.scenario.sim_lookahead = cfg.lookahead;
  ep.periods = cfg.periods;

  // A fast triangular oscillation between min_frac*max and max: replica
  // sets stay large but keep growing and shedding every few periods, which
  // is the regime the management plane actually has to survive at scale —
  // a saturated cluster stops allocating and hides the per-decision cost.
  workload::RampParams ramp;
  ramp.min_workload = DataSize::tracks(cfg.max_tracks * cfg.min_frac);
  ramp.max_workload = DataSize::tracks(cfg.max_tracks);
  ramp.ramp_periods = cfg.ramp_periods;
  const workload::Triangular pattern(ramp);

  // Phase-shifted peaks, five periods apart.
  const std::vector<task::TaskSpec> specs =
      experiments::namedCopies(spec, cfg.tasks);
  std::vector<experiments::EpisodeTask> tasks;
  for (std::size_t t = 0; t < cfg.tasks; ++t) {
    tasks.push_back({&specs[t], &pattern, &models, t * 5});
  }
  experiments::Episode episode(ep, tasks, cfg.algorithm);
  apps::Scenario& scenario = episode.scenario();

  const auto t0 = std::chrono::steady_clock::now();
  episode.run();
  const auto t1 = std::chrono::steady_clock::now();

  CellResult out;
  out.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const sim::ShardedEngine::WindowStats& ws = scenario.engine().windowStats();
  out.windows = ws.rounds;
  out.shard_windows = ws.shard_windows;
  out.shard_windows_skipped = ws.shard_windows_skipped;
  out.posts_merged = ws.posts_merged;
  out.events = scenario.engine().eventsExecuted();
  double missed = 0.0;
  double replicas = 0.0;
  for (std::size_t t = 0; t < cfg.tasks; ++t) {
    const core::EpisodeMetrics& em = episode.manager(t).metrics();
    missed += em.missedRatio() * 100.0;
    replicas += em.replicas_per_subtask.mean();
    out.replicate_actions += em.replicate_actions;
    out.shutdown_actions += em.shutdown_actions;
    out.allocation_failures += em.allocation_failures;
  }
  out.missed_pct = missed / static_cast<double>(cfg.tasks);
  out.avg_replicas = replicas / static_cast<double>(cfg.tasks);
  return out;
}

bool sameDecisions(const CellResult& a, const CellResult& b) {
  return a.missed_pct == b.missed_pct && a.avg_replicas == b.avg_replicas &&
         a.replicate_actions == b.replicate_actions &&
         a.shutdown_actions == b.shutdown_actions &&
         a.allocation_failures == b.allocation_failures;
}

/// The sharded-engine thread axis at one headline cell: the legacy single
/// queue, then det and fast window modes at a fixed shard count across
/// worker-thread counts. Sharded timing semantics differ from the single
/// queue (cross-shard handoffs slip by the lookahead), so the parity
/// cross-check runs *within* the sharded cells: every (mode, threads,
/// lookahead policy) combination at the same shard count must make
/// identical decisions — the engine's window-structure-independence
/// contract. The det rows additionally run under BOTH lookahead policies
/// at threads=1 to measure the window-overhead reduction, with an
/// in-binary gate that adaptive never executes more barrier rounds than
/// static. Returns false on a parity or window-gate violation.
bool runThreadAxis(const task::TaskSpec& spec,
                   const core::PredictiveModels& models, CellConfig cfg,
                   std::size_t shards,
                   const std::vector<unsigned>& thread_grid, Table* t) {
  cfg.sim_shards = 1;
  const CellResult single = runCell(spec, models, cfg);
  t->addRow({static_cast<long long>(cfg.nodes),
             static_cast<long long>(cfg.tasks), "single", "-", 1LL, 1LL,
             single.wall_ms, 1.0, 0LL, single.missed_pct,
             single.avg_replicas});

  bool parity_ok = true;
  bool have_ref = false;
  CellResult ref;
  CellResult by_policy[2];  // indexed by LookaheadPolicy, det threads=1
  cfg.sim_shards = shards;
  for (const parallel::SimMode mode :
       {parallel::SimMode::kDeterministic, parallel::SimMode::kFast}) {
    cfg.sim_mode = mode;
    const bool det = mode == parallel::SimMode::kDeterministic;
    for (const parallel::LookaheadPolicy policy :
         {parallel::LookaheadPolicy::kStatic,
          parallel::LookaheadPolicy::kAdaptive}) {
      // Fast mode only runs the adaptive (default) policy; the det rows
      // measure both so the static baseline stays on the record.
      if (!det && policy == parallel::LookaheadPolicy::kStatic) {
        continue;
      }
      cfg.lookahead = policy;
      for (const unsigned threads : thread_grid) {
        // The static det sweep only needs the threads=1 reference point.
        if (det && policy == parallel::LookaheadPolicy::kStatic &&
            threads != 1) {
          continue;
        }
        parallel::setThreads(threads);
        const CellResult r = runCell(spec, models, cfg);
        if (det && threads == 1) {
          by_policy[static_cast<int>(policy)] = r;
        }
        if (!have_ref) {
          ref = r;
          have_ref = true;
        } else if (!sameDecisions(ref, r)) {
          parity_ok = false;
          std::cout << "SHARDED PARITY MISMATCH at " << cfg.nodes << "x"
                    << cfg.tasks << " shards=" << shards << " mode="
                    << parallel::simModeName(mode) << " lookahead="
                    << parallel::lookaheadPolicyName(policy)
                    << " threads=" << threads << "\n";
        }
        t->addRow({static_cast<long long>(cfg.nodes),
                   static_cast<long long>(cfg.tasks),
                   parallel::simModeName(mode),
                   parallel::lookaheadPolicyName(policy),
                   static_cast<long long>(shards),
                   static_cast<long long>(threads), r.wall_ms,
                   single.wall_ms / r.wall_ms,
                   static_cast<long long>(r.windows), r.missed_pct,
                   r.avg_replicas});
      }
    }
  }
  parallel::setThreads(0);  // restore the env/hardware default

  // Window-overhead section (det, threads=1): the adaptive policy's whole
  // point is fewer, wider barrier rounds for the same executed events.
  const CellResult& st = by_policy[0];
  const CellResult& ad = by_policy[1];
  std::cout << "\nWindow overhead (det, threads=1, shards=" << shards
            << "):\n";
  const auto line = [](const char* name, const CellResult& r) {
    const double epw =
        r.windows == 0 ? 0.0
                       : static_cast<double>(r.events) /
                             static_cast<double>(r.windows);
    std::cout << "  " << name << ": rounds=" << r.windows
              << " shard_windows=" << r.shard_windows << " (skipped "
              << r.shard_windows_skipped << ") posts_merged="
              << r.posts_merged << " events=" << r.events
              << " events/round=" << std::fixed << std::setprecision(1)
              << epw << "\n";
  };
  line("static  ", st);
  line("adaptive", ad);
  if (ad.windows > st.windows) {
    std::cout << "WINDOW GATE FAILED: adaptive executed " << ad.windows
              << " barrier rounds vs " << st.windows << " static.\n";
    return false;
  }
  if (st.windows > 0) {
    std::cout << "  reduction: " << std::fixed << std::setprecision(2)
              << static_cast<double>(st.windows) /
                     static_cast<double>(std::max<std::uint64_t>(1,
                                                                 ad.windows))
              << "x fewer barrier rounds (gate: adaptive <= static) "
                 "PASSED\n";
  }
  return parity_ok;
}

/// Prints the parser's bad-value message and returns false unless
/// `value >= min`.
bool atLeast(const char* flag, std::int64_t value, std::int64_t min) {
  if (value >= min) {
    return true;
  }
  std::cerr << "bench_scale: bad value '" << value << "' for --" << flag
            << " (must be >= " << min << ")\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::int64_t periods = 12;
  std::int64_t repeat = 1;
  double max_tracks = 14000.0;
  double min_frac = 0.5;
  std::int64_t ramp_periods = 6;
  std::int64_t only_nodes = 0;
  std::int64_t only_tasks = 0;
  std::int64_t threads = 0;
  std::int64_t shards = 8;
  std::string sim_mode = "det";
  std::string lookahead = "adaptive";
  bool xl = false;
  bool no_threads_axis = false;
  ArgParser parser("bench_scale",
                   "Management-plane scalability: episode wall-clock over "
                   "nodes x tasks, plus the sharded-engine thread axis at "
                   "the headline cell");
  parser.addFlag("smoke", "CI subset: 16 nodes, {1, 8} tasks, 12 periods",
                 &smoke);
  parser.addInt("threads", "worker threads (0 = RTDRM_THREADS or cores)",
                &threads)
      .addInt("shards", "event-kernel shards for the thread axis", &shards)
      .addString("sim-mode", "det | fast for the nodes x tasks grid",
                 &sim_mode)
      .addString("lookahead",
                 "static | adaptive barrier-window sizing for the "
                 "nodes x tasks grid (the thread axis always measures both)",
                 &lookahead)
      .addFlag("xl", "add the 1024-node / 128-task extremes to the grids",
               &xl)
      .addFlag("no-threads-axis", "skip the sharded-engine thread axis",
               &no_threads_axis);
  parser.addInt("periods", "episode length in task periods", &periods);
  parser.addInt("repeat", "timing repetitions per cell (best-of)", &repeat);
  parser.addDouble("max-tracks", "triangular-ramp peak workload", &max_tracks);
  parser.addDouble("min-frac", "ramp floor as a fraction of the peak",
                   &min_frac);
  parser.addInt("ramp", "triangular ramp length in periods", &ramp_periods);
  parser.addInt("nodes",
                "run a single node count instead of the grid (0 = grid)",
                &only_nodes);
  parser.addInt("tasks",
                "run a single task count instead of the grid (0 = grid)",
                &only_tasks);
  if (!parser.parse(argc, argv)) {
    return parser.helpRequested() ? 0 : 2;
  }
  // Every integer is checked before any model is fitted or cell is run.
  if (!atLeast("periods", periods, 1) || !atLeast("ramp", ramp_periods, 1) ||
      !atLeast("repeat", repeat, 1) || !atLeast("shards", shards, 2) ||
      !atLeast("nodes", only_nodes, 0) || !atLeast("tasks", only_tasks, 0) ||
      !atLeast("threads", threads, 0)) {
    return 2;
  }
  parallel::setThreads(static_cast<unsigned>(threads));
  parallel::SimMode grid_mode{};
  if (!parallel::parseSimMode(sim_mode, &grid_mode)) {
    std::cerr << "unknown sim mode '" << sim_mode << "' (det | fast)\n";
    return 2;
  }
  parallel::setSimMode(grid_mode);
  parallel::LookaheadPolicy grid_lookahead{};
  if (!parallel::parseLookaheadPolicy(lookahead, &grid_lookahead)) {
    std::cerr << "unknown lookahead policy '" << lookahead
              << "' (static | adaptive)\n";
    return 2;
  }
  parallel::setLookaheadPolicy(grid_lookahead);

  const auto& spec = bench::aawSpec();
  const auto& fitted = bench::fittedModels();

  std::vector<std::size_t> node_grid{16, 64, 256};
  std::vector<std::size_t> task_grid{1, 8, 32};
  if (xl) {
    node_grid.push_back(1024);
    task_grid.push_back(128);
  }
  if (smoke) {
    node_grid = {16};
    task_grid = {1, 8};
    periods = 12;
  }
  if (only_nodes > 0) {
    node_grid = {static_cast<std::size_t>(only_nodes)};
  }
  if (only_tasks > 0) {
    task_grid = {static_cast<std::size_t>(only_tasks)};
  }

  printBanner(std::cout,
              "Management-plane scale: episode wall-clock on the "
              "utilization index");
  Table t({"nodes", "tasks", "algorithm", "wall ms", "missed %",
           "avg replicas"},
          2);

  for (const std::size_t nodes : node_grid) {
    for (const std::size_t tasks : task_grid) {
      for (const auto algorithm :
           {experiments::AlgorithmKind::kPredictive,
            experiments::AlgorithmKind::kNonPredictive}) {
        CellConfig cfg;
        cfg.nodes = nodes;
        cfg.tasks = tasks;
        cfg.periods = static_cast<std::uint64_t>(periods);
        cfg.max_tracks = max_tracks;
        cfg.min_frac = min_frac;
        cfg.ramp_periods = static_cast<std::uint64_t>(ramp_periods);
        cfg.algorithm = algorithm;
        cfg.sim_mode = grid_mode;
        cfg.lookahead = grid_lookahead;

        CellResult best;
        for (std::int64_t r = 0; r < repeat; ++r) {
          const CellResult run = runCell(spec, fitted.models, cfg);
          if (r == 0 || run.wall_ms < best.wall_ms) {
            best = run;
          }
        }
        t.addRow({static_cast<long long>(nodes),
                  static_cast<long long>(tasks),
                  experiments::algorithmName(algorithm), best.wall_ms,
                  best.missed_pct, best.avg_replicas});
      }
    }
  }
  t.print(std::cout);

  std::filesystem::create_directories("bench_out");
  if (t.writeCsv("bench_out/scale.csv")) {
    std::cout << "(series written to bench_out/scale.csv)\n";
  }

  bool parity_ok = true;
  if (!no_threads_axis) {
    printBanner(std::cout,
                "Sharded engine thread axis: single queue vs det/fast "
                "windows (" + std::string("cpu_count=") +
                    std::to_string(parallel::config().cpu_count) + ")");
    Table ta({"nodes", "tasks", "mode", "lookahead", "shards", "threads",
              "wall ms", "speedup", "windows", "missed %", "avg replicas"},
             2);
    CellConfig axis;
    axis.nodes = smoke ? 16 : node_grid.back();
    axis.tasks = smoke ? 8 : task_grid.back();
    axis.periods = static_cast<std::uint64_t>(periods);
    axis.max_tracks = max_tracks;
    axis.min_frac = min_frac;
    axis.ramp_periods = static_cast<std::uint64_t>(ramp_periods);
    const std::vector<unsigned> thread_grid =
        smoke ? std::vector<unsigned>{1, 2}
              : std::vector<unsigned>{1, 2, 4, 8};
    parity_ok = runThreadAxis(
        spec, fitted.models, axis,
        static_cast<std::size_t>(shards),
        thread_grid, &ta);
    ta.print(std::cout);
    if (ta.writeCsv("bench_out/scale_threads.csv")) {
      std::cout << "(series written to bench_out/scale_threads.csv)\n";
    }
    if (parity_ok) {
      std::cout << "Sharded parity cross-check PASSED: identical decisions "
                   "across modes and thread counts.\n";
    }
  }

  if (!parity_ok) {
    std::cout << "\nFAILED: sharded runs diverged across threads.\n";
    return 1;
  }
  return 0;
}
