// Deterministic scenario fuzzer (see src/check/fuzz.hpp).
//
// Sweeps seeds through randomized full-stack scenarios, running each under
// both allocators with the InvariantOracle attached and replaying each run
// to prove byte-identical traces. On failure the scenario is shrunk to a
// minimal reproducer and the exact `--replay-seed` command line is printed
// (and optionally written to a file for CI artifact upload).
//
//   fuzz_scenarios --seeds 500            # sweep seeds 0..499
//   fuzz_scenarios --replay-seed 123      # re-run one reproducer
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "check/fuzz.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"

namespace {

using rtdrm::check::kFuzzDims;

/// Prints the parser's bad-value message and returns false unless
/// `value >= min`.
bool atLeast(const char* flag, std::int64_t value, std::int64_t min) {
  if (value >= min) {
    return true;
  }
  std::cerr << "fuzz_scenarios: bad value '" << value << "' for --" << flag
            << " (must be >= " << min << ")\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t seeds = 200;
  std::int64_t start_seed = 0;
  std::int64_t replay_seed = -1;
  std::int64_t max_subtasks = 0;
  std::int64_t max_periods = 0;
  bool flat = false;
  std::array<bool, kFuzzDims.size()> grow{};
  std::array<bool, kFuzzDims.size()> drop{};
  bool no_shrink = false;
  bool verbose = false;
  std::string repro_out;
  std::int64_t threads = 0;
  std::int64_t shards = 1;
  std::string sim_mode = "det";
  std::string lookahead = "adaptive";

  rtdrm::ArgParser parser(
      "fuzz_scenarios",
      "Randomized full-stack scenarios under an invariant oracle, with "
      "seed replay and failure minimization.");
  parser.addInt("seeds", "number of seeds to sweep", &seeds)
      .addInt("start-seed", "first seed of the sweep", &start_seed)
      .addInt("replay-seed", "run exactly this seed and exit (-1 = sweep)",
              &replay_seed)
      .addInt("max-subtasks", "cap the pipeline length (0 = uncapped)",
              &max_subtasks)
      .addInt("max-periods", "cap the horizon in periods (0 = uncapped)",
              &max_periods)
      .addFlag("flat", "flatten the workload table to its mean", &flat);
  for (std::size_t i = 0; i < kFuzzDims.size(); ++i) {
    parser.addFlag(kFuzzDims[i].flag, kFuzzDims[i].help, &grow[i]);
  }
  for (std::size_t i = 0; i < kFuzzDims.size(); ++i) {
    parser.addFlag(std::string("drop-") + kFuzzDims[i].flag,
                   kFuzzDims[i].drop_help, &drop[i]);
  }
  parser.addFlag("no-shrink", "report failures without minimizing", &no_shrink)
      .addFlag("verbose", "print every scenario as it runs", &verbose)
      .addString("repro-out",
                 "write the minimized reproducer command to this file",
                 &repro_out)
      .addInt("threads", "worker threads (0 = RTDRM_THREADS or cores)",
              &threads)
      .addInt("shards", "event-kernel shards per scenario (1 = single queue)",
              &shards)
      .addString("sim-mode", "det | fast (sharded window execution)",
                 &sim_mode)
      .addString("lookahead",
                 "static | adaptive (sharded barrier-window sizing)",
                 &lookahead);
  if (!parser.parse(argc, argv)) {
    return parser.helpRequested() ? 0 : 2;
  }
  if (!atLeast("seeds", seeds, 0) || !atLeast("start-seed", start_seed, 0) ||
      !atLeast("replay-seed", replay_seed, -1) ||
      !atLeast("max-subtasks", max_subtasks, 0) ||
      !atLeast("max-periods", max_periods, 0) ||
      !atLeast("threads", threads, 0) || !atLeast("shards", shards, 1)) {
    return 2;
  }

  rtdrm::parallel::setThreads(static_cast<unsigned>(threads));
  rtdrm::check::FuzzExecConfig exec;
  exec.sim_shards = static_cast<std::size_t>(shards);
  if (!rtdrm::parallel::parseSimMode(sim_mode, &exec.sim_mode)) {
    std::cerr << "unknown sim mode '" << sim_mode << "' (det | fast)\n";
    return 2;
  }
  rtdrm::parallel::setSimMode(exec.sim_mode);
  if (!rtdrm::parallel::parseLookaheadPolicy(lookahead, &exec.lookahead)) {
    std::cerr << "unknown lookahead policy '" << lookahead
              << "' (static | adaptive)\n";
    return 2;
  }
  rtdrm::parallel::setLookaheadPolicy(exec.lookahead);

  rtdrm::check::FuzzDims dims;
  rtdrm::check::ShrinkSpec shrink;
  shrink.max_subtasks = static_cast<std::size_t>(max_subtasks);
  shrink.max_periods = static_cast<std::uint64_t>(max_periods);
  shrink.flatten_workload = flat;
  for (std::size_t i = 0; i < kFuzzDims.size(); ++i) {
    if (grow[i]) {
      dims.add(kFuzzDims[i].dim);
    }
    if (drop[i]) {
      shrink.dropped.add(kFuzzDims[i].dim);
    }
  }

  if (replay_seed >= 0) {
    const auto seed = static_cast<std::uint64_t>(replay_seed);
    std::cout << "replaying "
              << rtdrm::check::makeFuzzScenario(seed, shrink, dims).summary()
              << "\n";
    const rtdrm::check::FuzzOutcome outcome =
        rtdrm::check::runFuzzSeed(seed, shrink, dims, exec);
    if (outcome.failed()) {
      std::cout << "FAIL: " << outcome.detail << "\n";
      return 1;
    }
    std::cout << "OK (" << outcome.checks << " oracle checks, replay "
              << "byte-identical)\n";
    return 0;
  }

  std::uint64_t total_checks = 0;
  const auto first = static_cast<std::uint64_t>(start_seed);
  const auto count = static_cast<std::uint64_t>(seeds);
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    if (verbose) {
      std::cout << rtdrm::check::makeFuzzScenario(seed, shrink, dims).summary()
                << std::endl;
    }
    const rtdrm::check::FuzzOutcome outcome =
        rtdrm::check::runFuzzSeed(seed, shrink, dims, exec);
    total_checks += outcome.checks;
    if (!outcome.failed()) {
      if (!verbose && (seed - first + 1) % 50 == 0) {
        std::cout << (seed - first + 1) << "/" << count << " seeds clean\n";
      }
      continue;
    }

    std::cout << "seed " << seed << " FAILED ("
              << (outcome.invariants_ok ? "nondeterministic replay"
                                        : "invariant violation")
              << ")\n"
              << outcome.detail << "\n";

    rtdrm::check::ShrinkSpec minimal = shrink;
    if (!no_shrink) {
      std::cout << "shrinking...\n";
      minimal = rtdrm::check::minimize(
          seed, shrink,
          [dims, &exec](std::uint64_t s, const rtdrm::check::ShrinkSpec& c) {
            return rtdrm::check::runFuzzSeed(s, c, dims, exec).failed();
          },
          dims);
      std::cout << "minimal scenario: "
                << rtdrm::check::makeFuzzScenario(seed, minimal, dims)
                       .summary()
                << "\n";
    }
    const std::string repro =
        rtdrm::check::reproLine(seed, dims, minimal, exec);
    std::cout << "reproduce with:\n  " << repro << "\n";
    if (!repro_out.empty()) {
      std::ofstream out(repro_out);
      out << repro << "\n";
    }
    return 1;
  }

  std::cout << count << " seeds x 2 allocators x 2 runs: all invariants "
            << "held, all replays byte-identical (" << total_checks
            << " oracle checks)\n";
  return 0;
}
