#include "experiments/multitask.hpp"

#include <string>

#include "common/assert.hpp"

namespace rtdrm::experiments {

std::vector<task::TaskSpec> namedCopies(const task::TaskSpec& spec,
                                        std::size_t count) {
  std::vector<task::TaskSpec> specs(count, spec);
  for (std::size_t t = 0; t < count; ++t) {
    specs[t].name = spec.name + "#" + std::to_string(t + 1);
  }
  return specs;
}

MultiTaskResult runMultiTaskEpisode(const task::TaskSpec& spec,
                                    const workload::Pattern& pattern,
                                    const core::PredictiveModels& models,
                                    AlgorithmKind algorithm,
                                    const MultiTaskConfig& config) {
  RTDRM_ASSERT(config.task_count >= 1);
  const std::vector<task::TaskSpec> specs =
      namedCopies(spec, config.task_count);
  std::vector<EpisodeTask> members;
  for (std::size_t t = 0; t < config.task_count; ++t) {
    members.push_back({&specs[t], &pattern, &models, t * config.phase_shift});
  }
  return runTaskSetEpisode(
      members, algorithm, config.episode,
      spec.period * static_cast<double>(config.episode.periods));
}

MultiTaskResult runTaskSetEpisode(const std::vector<EpisodeTask>& members,
                                  AlgorithmKind algorithm,
                                  const EpisodeConfig& config,
                                  SimDuration horizon) {
  Episode episode(config, members, algorithm);
  episode.run(horizon);

  MultiTaskResult out;
  out.tasks.reserve(members.size());
  for (std::size_t t = 0; t < members.size(); ++t) {
    EpisodeResult r = episode.result(t);
    out.missed_pct += r.missed_pct;
    out.cpu_pct += r.cpu_pct;
    out.net_pct += r.net_pct;
    out.avg_replicas += r.avg_replicas;
    out.combined += r.combined;
    out.tasks.push_back(std::move(r));
  }
  const auto n = static_cast<double>(members.size());
  out.missed_pct /= n;
  out.cpu_pct /= n;
  out.net_pct /= n;
  out.avg_replicas /= n;
  out.combined /= n;
  return out;
}

}  // namespace rtdrm::experiments
