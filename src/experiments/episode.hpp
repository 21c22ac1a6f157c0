// Whole-system evaluation episodes (paper §5.2).
//
// One episode = one or more periodic tasks driven through the full stack —
// scenario (cluster + network + clocks), one task pipeline and resource
// manager per task with one of the two allocators, and optionally the
// decentralized plane, a fault schedule and heartbeat detectors — for a
// fixed horizon, yielding the metrics of Figs. 9-13. Episode wires all of
// that in one place; runEpisode(), the task-set runners (multitask.hpp),
// the scenario fuzzer, the benches and the examples build on it. Sweeps
// run many episodes across max-workload levels; points are independent
// and execute in parallel.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/scenario.hpp"
#include "core/ledger.hpp"
#include "core/manager.hpp"
#include "core/metrics.hpp"
#include "core/models.hpp"
#include "core/plane.hpp"
#include "fault/detector.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/obs.hpp"
#include "task/spec.hpp"
#include "workload/generators.hpp"
#include "workload/patterns.hpp"

namespace rtdrm::experiments {

enum class AlgorithmKind { kPredictive, kNonPredictive };

std::string algorithmName(AlgorithmKind kind);

/// The contender flows of a kMulti episode are seeded with
/// `contenders.seed ^ (scenario.seed * kContenderSeedMix)`, so paired
/// algorithm runs see identical flows while sweep seeds differ.
inline constexpr std::uint64_t kContenderSeedMix = 0x9e3779b97f4a7c15ULL;

struct EpisodeConfig {
  apps::ScenarioConfig scenario{};
  std::uint64_t periods = 72;
  /// Extra drain time after the last release, in periods (of the slowest
  /// task).
  double drain_periods = 3.0;
  core::ManagerConfig manager{};
  /// UT for the non-predictive allocator (Table 1: 20%).
  Utilization nonpredictive_threshold = Utilization::percent(20.0);
  /// Optional environmental drift: at period `drift_at_period` (> 0) the
  /// ground-truth cost of every replicable subtask is scaled by
  /// `drift_cost_scale` — new instances run at the new cost, while the
  /// offline models keep predicting the old one (pair with
  /// manager.online_refit to study a-posteriori refinement).
  std::uint64_t drift_at_period = 0;
  double drift_cost_scale = 1.0;
  /// Observability bundle (optional; single-task episodes only — sweeps
  /// run episodes in parallel and never set it). When non-null the
  /// manager's decision audit is recorded into its trace ring, and at
  /// episode end every substrate exports its counters into its registry.
  obs::Observability* obs = nullptr;
  /// Decentralized management plane (single-task episodes only).
  /// managers == 1 (the default) builds no plane at all — the episode is
  /// bit-for-bit identical to the legacy centralized path.
  core::PlaneConfig plane{};
  /// Fault schedule (optional; must outlive the episode), injected through
  /// fault::FaultInjector. Null or empty builds no injector. Manager
  /// crashes need a plane (managers > 1).
  const fault::FaultPlan* faults = nullptr;
  /// Builds a heartbeat detector over the nodes: a node it declares dead —
  /// and that really is down — goes to the managers' failover path,
  /// through the plane when there is one.
  bool node_detector = false;
  /// Heartbeat configuration of the node detector and of the manager
  /// detector (built whenever there is a plane; drives elections).
  fault::DetectorConfig detector{};
  /// Workload family. kPaper (the default) offers exactly the pattern the
  /// caller passed — byte-identical to every run before the generators
  /// existed. kPareto/kSurge replace it with the corresponding generator
  /// (seeded from the scenario seed); kMulti keeps the caller's pattern
  /// and adds co-hosted contender flows on the network substrate.
  workload::WorkloadMix workload_mix = workload::WorkloadMix::kPaper;
  workload::ParetoParams pareto{};
  workload::SurgeParams surge{};
  /// Sensor count for kSurge (the pipeline fuses all sensors' tracks).
  std::size_t surge_sensors = 4;
  workload::ContenderConfig contenders{};
};

struct EpisodeResult {
  core::EpisodeMetrics metrics;
  double combined = 0.0;       ///< the paper's C metric
  double missed_pct = 0.0;     ///< missed-deadline ratio, percent
  double cpu_pct = 0.0;        ///< mean CPU utilization, percent
  double net_pct = 0.0;        ///< mean network utilization, percent
  double avg_replicas = 0.0;   ///< mean replicas per replicable subtask
  // Decentralized-plane outcomes (all zero with managers == 1).
  double decision_gap_ms = 0.0;        ///< crash -> election gap total
  std::uint64_t elections = 0;
  std::uint64_t gossip_rounds = 0;
  std::uint64_t suppressed_periods = 0;  ///< period ticks gated out
};

/// One task of an episode: its structure, offered workload, fitted models,
/// and pattern phase (release c offers pattern->at(c + phase)). The
/// pointers must outlive the episode.
struct EpisodeTask {
  const task::TaskSpec* spec = nullptr;
  const workload::Pattern* pattern = nullptr;
  const core::PredictiveModels* models = nullptr;
  std::uint64_t phase = 0;
};

/// The allocator `kind` names: Fig. 5 on `models`, or Fig. 7 at
/// `threshold`.
std::unique_ptr<core::Allocator> makeAllocator(
    AlgorithmKind kind, const core::PredictiveModels& models,
    Utilization threshold);

/// Builds one task's allocator; lets a caller supply its own or wrap
/// makeAllocator()'s.
using AllocatorFactory =
    std::function<std::unique_ptr<core::Allocator>(const EpisodeTask&)>;

/// One episode: build, attach, run, read (docs/architecture.md, "Episode
/// builder"). Construction builds the scenario, the workload generators,
/// one manager per task (task t starts on nodes (s + 2t) mod N and draws
/// noise from stream ("exec-noise", t); only task 0 samples the cluster;
/// a task set shares one ledger), the plane, the fault injector and the
/// detectors, but runs and arms nothing: a caller first attaches what it
/// needs to scenario(), manager(), plane() and injector(), or schedules
/// its own events on the simulator.
class Episode {
 public:
  Episode(const EpisodeConfig& config, const std::vector<EpisodeTask>& tasks,
          AlgorithmKind algorithm);
  Episode(const EpisodeConfig& config, const std::vector<EpisodeTask>& tasks,
          const AllocatorFactory& allocators);
  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  apps::Scenario& scenario() { return scenario_; }
  core::ResourceManager& manager(std::size_t task = 0) {
    return *managers_[task];
  }
  /// Null unless config.plane.managers > 1.
  core::ManagementPlane* plane() { return plane_.get(); }
  /// Null unless config.faults holds a non-empty plan.
  fault::FaultInjector* injector() { return injector_.get(); }
  /// Null unless config.node_detector.
  fault::FailureDetector* nodeDetector() { return node_detector_.get(); }
  /// Null unless there is a plane.
  fault::FailureDetector* managerDetector() {
    return manager_detector_.get();
  }
  /// Null unless the workload mix is kMulti.
  const workload::ContenderTraffic* contenders() const {
    return contenders_.get();
  }

  /// `fn` runs in run() right after the plane starts (before the
  /// detectors), in the order the hooks were added.
  void onStart(std::function<void()> fn);
  /// `fn` runs in run() right after the detectors stop (before the drain).
  void onStop(std::function<void()> fn);

  /// Runs config.periods periods of the first task.
  void run();
  /// Runs for `horizon`: arms the fault plan; starts the contender flows,
  /// the managers, the plane, the onStart() hooks, the node detector and
  /// the manager detector; then stops the managers, the detectors and the
  /// onStop() hooks, drains, and stops the plane last. Equal-time events
  /// run in scheduling order, so this order is part of every result. An
  /// episode runs once.
  void run(SimDuration horizon);

  /// Task `task`'s outcome (after run()).
  EpisodeResult result(std::size_t task = 0) const;

 private:
  EpisodeConfig config_;
  apps::Scenario scenario_;
  std::unique_ptr<workload::CorrelatedSurge> surge_;
  std::unique_ptr<workload::Pattern> generated_;
  std::unique_ptr<workload::ContenderTraffic> contenders_;
  /// The managers read their spec at job submission, so drift mutates
  /// these copies mid-run.
  std::vector<task::TaskSpec> specs_;
  std::unique_ptr<core::WorkloadLedger> ledger_;
  std::vector<std::unique_ptr<core::ResourceManager>> managers_;
  std::unique_ptr<core::ManagementPlane> plane_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::FailureDetector> node_detector_;
  std::unique_ptr<fault::FailureDetector> manager_detector_;
  std::vector<std::function<void()>> start_hooks_;
  std::vector<std::function<void()>> stop_hooks_;
  bool ran_ = false;
};

/// Runs one single-task episode. The same (spec, pattern, seed) with
/// different algorithms sees identical workloads and noise streams —
/// paired comparison, as in the paper's per-point experiments.
EpisodeResult runEpisode(const task::TaskSpec& spec,
                         const workload::Pattern& pattern,
                         const core::PredictiveModels& models,
                         AlgorithmKind algorithm, const EpisodeConfig& config);

/// One x-axis point of Figs. 9-13: both algorithms at one max workload.
struct SweepPoint {
  double max_workload_units = 0.0;  ///< in scale units of 500 tracks
  EpisodeResult predictive;
  EpisodeResult non_predictive;
};

struct SweepConfig {
  EpisodeConfig episode{};
  workload::RampParams ramp{};  ///< min workload & ramp length; max is swept
  /// Max-workload grid in scale units of 500 tracks (paper: 2..34).
  std::vector<double> max_workload_units{2,  4,  6,  8,  10, 12, 14, 16, 18,
                                         20, 22, 24, 26, 28, 30, 32, 34};
  /// Episodes per point per algorithm; > 1 averages across seeds
  /// (base seed + r), smoothing the curves the paper draws from single
  /// runs.
  std::size_t replications = 1;
  bool parallel = true;
};

/// Runs both algorithms at every max-workload level of the given Fig. 8
/// pattern ("increasing" | "decreasing" | "triangular").
std::vector<SweepPoint> runWorkloadSweep(const task::TaskSpec& spec,
                                         const core::PredictiveModels& models,
                                         const std::string& pattern,
                                         const SweepConfig& config);

}  // namespace rtdrm::experiments
