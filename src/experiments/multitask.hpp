// Multi-task evaluation episodes.
//
// The paper's model is a task *set* T = {T1, T2, ...} but its baseline
// evaluates one task (Table 1). This extension runs several periodic tasks
// on one shared cluster/segment, each under its own resource manager, all
// posting to a shared WorkloadLedger so eq. (5)'s sum over tasks is live
// (the wiring is experiments::Episode's). Task i's workload pattern is
// phase-shifted so peaks collide only partially — the interesting
// interference regime.
#pragma once

#include <vector>

#include "experiments/episode.hpp"

namespace rtdrm::experiments {

struct MultiTaskConfig {
  EpisodeConfig episode{};
  std::size_t task_count = 2;
  /// Pattern phase shift between consecutive tasks, in periods.
  std::uint64_t phase_shift = 15;
};

struct MultiTaskResult {
  /// Per-task metrics, index = task.
  std::vector<EpisodeResult> tasks;
  /// Means across tasks.
  double missed_pct = 0.0;
  double cpu_pct = 0.0;
  double net_pct = 0.0;
  double avg_replicas = 0.0;
  double combined = 0.0;
};

/// `count` copies of `spec` named "<name>#1".."<name>#<count>", so each
/// task of a set has its own ledger and trace name.
std::vector<task::TaskSpec> namedCopies(const task::TaskSpec& spec,
                                        std::size_t count);

/// Runs `task_count` copies of `spec` (independent noise streams, shifted
/// patterns, staggered initial placements) under the given allocator kind.
MultiTaskResult runMultiTaskEpisode(const task::TaskSpec& spec,
                                    const workload::Pattern& pattern,
                                    const core::PredictiveModels& models,
                                    AlgorithmKind algorithm,
                                    const MultiTaskConfig& config);

/// Runs a heterogeneous task set for `horizon` of simulated time on one
/// shared cluster, then drains config.drain_periods of the slowest
/// member's period. Tasks may have different periods; the *first*
/// member's manager drives the cluster's utilization sampling window, so
/// list the fastest task first for the freshest observations.
MultiTaskResult runTaskSetEpisode(const std::vector<EpisodeTask>& members,
                                  AlgorithmKind algorithm,
                                  const EpisodeConfig& config,
                                  SimDuration horizon);

}  // namespace rtdrm::experiments
