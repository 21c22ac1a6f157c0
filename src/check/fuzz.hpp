// Deterministic scenario fuzzer over the full simulated stack.
//
// Every scenario is a pure function of (seed, ShrinkSpec, FuzzDims):
// cluster size, task pipeline, workload table (composed ramps / bursts /
// dropouts), background-load schedule, and an optional co-resident
// workload poster are all drawn from a named RNG stream. Each scenario runs
// under both the predictive (Fig. 5) and non-predictive (Fig. 7) allocators
// with the InvariantOracle watching every event, and is run twice per
// allocator to prove same-seed replay produces a byte-identical trace
// digest.
//
// Shrinking works by *capping* the generated scenario after all RNG draws
// (truncate subtasks, truncate the horizon, flatten the workload to its
// mean, drop a dimension) — the draws themselves never change, so a
// failing seed stays the same scenario family while it shrinks to a
// minimal reproducer.
//
// Six opt-in dimensions (FuzzDim) widen the family. Every seed draws all of
// them, strictly after every base-scenario draw and in a fixed order, so
// the base scenario of a seed is byte-identical whichever dimensions apply,
// and dropping one (ShrinkSpec::dropped) is just one more cap:
//   - faults: node crashes (with optional restart), CPU throttle windows,
//     frame loss/duplication windows and clock-sync outages, injected
//     through fault::FaultInjector with a heartbeat FailureDetector driving
//     the manager's failover path;
//   - manager-faults: a decentralized plane of 2-3 manager endpoints and
//     one manager crash (with optional restart), watched by a second,
//     target-mode FailureDetector; the plane invariants (election
//     uniqueness, no deposed decisions, bounded gossip staleness) join the
//     oracle;
//   - sched: one node scheduling policy (RR/FIFO/priority/EDF/RMS/LLF) for
//     the whole cluster;
//   - period-adjust: an elastic period bound plus the manager's adjustment
//     step;
//   - net-topology: bus, or a switched fabric with 2-4 segments, line or
//     star topology and a bounded port buffer; switched runs also check the
//     fabric's frame conservation at the end of the run;
//   - workload-mix: a workload family (pareto / surge / multi) whose
//     parameters ride on the band already drawn for the base table.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "common/parallel.hpp"
#include "core/models.hpp"
#include "experiments/episode.hpp"
#include "fault/detector.hpp"
#include "fault/plan.hpp"
#include "net/fabric.hpp"
#include "node/sched_policy.hpp"
#include "task/spec.hpp"
#include "workload/generators.hpp"
#include "workload/patterns.hpp"

namespace rtdrm::obs {
struct Observability;
}  // namespace rtdrm::obs

namespace rtdrm::check {

/// One opt-in fuzz dimension (see the file comment). `--<flag>` grows it,
/// `--drop-<flag>` is its shrink cap.
enum class FuzzDim : std::uint8_t {
  kFaults,
  kManagerFaults,
  kSched,
  kPeriodAdjust,
  kNetTopology,
  kWorkloadMix,
};

/// A dimension's command-line spelling and help texts.
struct FuzzDimInfo {
  FuzzDim dim;
  const char* flag;       ///< grow flag name, without the leading dashes
  const char* help;       ///< help text of --<flag>
  const char* drop_help;  ///< help text of --drop-<flag>
};

/// Every dimension, in enumerator order: the order the fuzzer registers
/// and prints their flags in.
extern const std::array<FuzzDimInfo, 6> kFuzzDims;

/// The order minimize() tries dropping dimensions, simplest explanation
/// first: the shared bus, the paper workload family, the Round-Robin
/// baseline, no elastic lever, one manager, no faults. The greedy result
/// depends on this order.
inline constexpr std::array<FuzzDim, 6> kFuzzShrinkOrder{
    FuzzDim::kNetTopology,  FuzzDim::kWorkloadMix,   FuzzDim::kSched,
    FuzzDim::kPeriodAdjust, FuzzDim::kManagerFaults, FuzzDim::kFaults};

/// A set of fuzz dimensions.
class FuzzDims {
 public:
  constexpr FuzzDims() = default;
  constexpr FuzzDims(std::initializer_list<FuzzDim> dims) {
    for (const FuzzDim d : dims) {
      add(d);
    }
  }
  constexpr bool has(FuzzDim d) const { return (bits_ & bit(d)) != 0; }
  constexpr FuzzDims& add(FuzzDim d) {
    bits_ = static_cast<std::uint8_t>(bits_ | bit(d));
    return *this;
  }
  constexpr bool empty() const { return bits_ == 0; }
  constexpr bool operator==(const FuzzDims&) const = default;

 private:
  static constexpr std::uint8_t bit(FuzzDim d) {
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(d));
  }
  std::uint8_t bits_ = 0;
};

/// Caps the shrinker applies to a generated scenario (0 / false / empty =
/// uncapped).
struct ShrinkSpec {
  /// Keep at most this many subtasks (floor 2; 0 = uncapped).
  std::size_t max_subtasks = 0;
  /// Run at most this many periods (floor 3; 0 = uncapped).
  std::uint64_t max_periods = 0;
  /// Replace the workload table with a constant at its mean.
  bool flatten_workload = false;
  /// Dimensions stripped back to the base scenario (only meaningful for
  /// dimensions the scenario is generated with).
  FuzzDims dropped;

  bool unshrunk() const {
    return max_subtasks == 0 && max_periods == 0 && !flatten_workload &&
           dropped.empty();
  }
  /// Command-line fragment reproducing these caps (" --max-subtasks=3 ...";
  /// empty when unshrunk).
  std::string cliFlags() const;
};

/// A workload pattern backed by a precomputed per-period table; periods
/// beyond the table hold the last level.
class TablePattern final : public workload::Pattern {
 public:
  explicit TablePattern(std::vector<double> tracks)
      : tracks_(std::move(tracks)) {}
  DataSize at(std::uint64_t period) const override {
    if (tracks_.empty()) {
      return DataSize::zero();
    }
    const std::size_t i =
        period < tracks_.size() ? static_cast<std::size_t>(period)
                                : tracks_.size() - 1;
    return DataSize::tracks(tracks_[i]);
  }
  std::string name() const override { return "fuzz-table"; }

 private:
  std::vector<double> tracks_;
};

/// A step change in one node's background-load target.
struct BackgroundStep {
  std::uint64_t period = 0;
  std::uint32_t node = 0;
  double target = 0.0;
};

/// One fully generated fuzz scenario.
struct FuzzScenario {
  std::uint64_t seed = 0;
  std::size_t node_count = 0;
  std::uint64_t periods = 0;
  task::TaskSpec spec;
  /// Offered workload per period, in tracks (the composed pattern table).
  std::vector<double> workload_tracks;
  /// Initial per-node background-load targets (utilization fractions).
  std::vector<double> background_targets;
  std::vector<BackgroundStep> background_steps;
  /// Per-period workload a co-resident task posts to the shared ledger
  /// (empty = single-task deployment).
  std::vector<double> coresident_tracks;
  core::ManagerConfig manager;
  core::PredictiveModels models;
  /// Fault schedule (empty unless generated with faults enabled — an empty
  /// plan injects nothing and wires no detector, so the run matches the
  /// faultless build byte for byte).
  fault::FaultPlan faults;
  /// Heartbeat detector configuration used when `faults` is non-empty
  /// (also reused, with home node 0, for the manager-endpoint detector).
  fault::DetectorConfig detector;
  /// Manager endpoints; > 1 only when generated with manager faults, and
  /// then `faults.manager_crashes` carries the crash schedule.
  std::size_t managers = 1;
  /// Cluster-wide node scheduling policy; non-RR only when generated with
  /// the scheduler dimension enabled.
  node::SchedPolicy sched = node::SchedPolicy::kRoundRobin;
  /// Network substrate; kSwitched only when generated with the
  /// network-topology dimension enabled (and the seed drew switched).
  net::NetKind net_kind = net::NetKind::kBus;
  /// Fabric shape when net_kind == kSwitched (link parameters are the
  /// scenario defaults, as on the bus path).
  net::SwitchedFabricConfig fabric{};
  /// Workload family; non-paper only when generated with the workload-mix
  /// dimension enabled. kPareto/kSurge rewrite `workload_tracks` from the
  /// corresponding generator (pure per-period draws); kMulti keeps the
  /// table and adds contender flows on the network substrate.
  workload::WorkloadMix workload_mix = workload::WorkloadMix::kPaper;
  workload::ContenderConfig contenders{};

  std::string summary() const;
};

/// Generates the scenario for `seed` under the given caps, widened by
/// `dims`. Caps only truncate/flatten the already-drawn scenario, and every
/// dimension is drawn either way, so every (caps, dims) combination of the
/// same seed shares the same underlying draws.
FuzzScenario makeFuzzScenario(std::uint64_t seed, const ShrinkSpec& shrink = {},
                              FuzzDims dims = {});

/// The allocator a fuzz case runs under (experiments::algorithmName()
/// names it).
using AllocatorKind = experiments::AlgorithmKind;

/// How the event kernel executes a fuzz case. The default (one shard) is
/// the legacy single-queue path every historical digest was produced on.
/// With shards > 1 the testbed runs on the sharded engine; deterministic
/// mode must produce the same digest for any worker-thread count — the
/// determinism suite runs identical (seed, shards) pairs across
/// parallel::setThreads() values and compares digests byte for byte.
struct FuzzExecConfig {
  std::size_t sim_shards = 1;
  parallel::SimMode sim_mode = parallel::SimMode::kDeterministic;
  /// Barrier-window sizing policy (sharded runs only). Digests must be
  /// byte-identical across policies — the adaptive-vs-static parity suite
  /// runs identical (seed, shards) pairs in both and compares.
  parallel::LookaheadPolicy lookahead = parallel::LookaheadPolicy::kAdaptive;
};

/// The `fuzz_scenarios` command line that replays `seed` under these
/// dimensions, caps and execution settings (the engine flags only when
/// sharded).
std::string reproLine(std::uint64_t seed, FuzzDims dims,
                      const ShrinkSpec& shrink, const FuzzExecConfig& exec);

/// Outcome of one scenario run under one allocator.
struct FuzzCaseResult {
  std::uint64_t violations = 0;
  // Oracle samples: the oracle sweeps after every event, so these depend on
  // how many events ran, not only on behaviour, and are kept out of the
  // digest (an optimization that runs fewer events for the same behaviour
  // changes them alone). A replay must still reproduce them exactly.
  std::uint64_t checks = 0;  ///< oracle checks run during this case
  /// Largest gossip-view age the oracle sampled (decentralized plane only).
  double max_staleness_sampled_ms = 0.0;
  std::string report;        ///< oracle report (empty when clean)
  /// Byte-exact behaviour digest of the run (trace events + metrics +
  /// substrate counters, hex-float formatted). Identical seeds must produce
  /// identical digests and identical oracle samples.
  std::string digest;
  /// Observability reconciliation report (only when an obs bundle was
  /// passed): empty when the obs trace/metrics totals agree with
  /// EpisodeMetrics and the oracle's own observation counters, else one
  /// line per disagreement.
  std::string obs_mismatch;

  /// True when `other` sampled exactly what this run did (bit for bit).
  bool sameOracleSamples(const FuzzCaseResult& other) const {
    return checks == other.checks &&
           std::bit_cast<std::uint64_t>(max_staleness_sampled_ms) ==
               std::bit_cast<std::uint64_t>(other.max_staleness_sampled_ms);
  }
};

/// Runs one scenario under one allocator with the oracle attached. When
/// `obs` is non-null the manager records its decision audit into it, every
/// substrate exports its counters at the end, and the three accounting
/// sources (obs, EpisodeMetrics, oracle) are reconciled into
/// `obs_mismatch`. The digest is computed identically either way — the
/// neutrality tests rely on that.
FuzzCaseResult runFuzzCase(const FuzzScenario& scenario, AllocatorKind kind,
                           obs::Observability* obs = nullptr,
                           const FuzzExecConfig& exec = {});

/// Aggregate verdict for one seed: both allocators, each run twice.
struct FuzzOutcome {
  bool invariants_ok = true;
  bool deterministic = true;
  std::uint64_t violations = 0;
  std::uint64_t checks = 0;
  std::string detail;  ///< first failure description (empty when clean)

  bool failed() const { return !invariants_ok || !deterministic; }
};

FuzzOutcome runFuzzSeed(std::uint64_t seed, const ShrinkSpec& shrink = {},
                        FuzzDims dims = {}, const FuzzExecConfig& exec = {});

/// Failure predicate: does `seed` under these caps still fail?
using FailsFn = std::function<bool(std::uint64_t, const ShrinkSpec&)>;

/// Greedy shrink: starting from `initial` (which must fail), repeatedly
/// tries harsher caps — each enabled dimension dropped (in
/// kFuzzShrinkOrder), fewer subtasks, shorter horizon, flat workload —
/// keeping each cap that still fails, until no harsher cap does. Returns
/// the harshest failing ShrinkSpec found.
ShrinkSpec minimize(std::uint64_t seed, const ShrinkSpec& initial,
                    const FailsFn& fails, FuzzDims dims = {});

}  // namespace rtdrm::check
