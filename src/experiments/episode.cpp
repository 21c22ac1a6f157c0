#include "experiments/episode.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/parallel.hpp"

namespace rtdrm::experiments {

std::string algorithmName(AlgorithmKind kind) {
  return kind == AlgorithmKind::kPredictive ? "predictive" : "non-predictive";
}

std::unique_ptr<core::Allocator> makeAllocator(
    AlgorithmKind kind, const core::PredictiveModels& models,
    Utilization threshold) {
  if (kind == AlgorithmKind::kPredictive) {
    return std::make_unique<core::PredictiveAllocator>(models);
  }
  return std::make_unique<core::NonPredictiveAllocator>(threshold);
}

Episode::Episode(const EpisodeConfig& config,
                 const std::vector<EpisodeTask>& tasks, AlgorithmKind algorithm)
    : Episode(config, tasks,
              [algorithm, threshold = config.nonpredictive_threshold](
                  const EpisodeTask& task) {
                return makeAllocator(algorithm, *task.models, threshold);
              }) {}

Episode::Episode(const EpisodeConfig& config,
                 const std::vector<EpisodeTask>& tasks,
                 const AllocatorFactory& allocators)
    : config_(config), scenario_(config.scenario) {
  RTDRM_ASSERT(!tasks.empty());
  RTDRM_ASSERT_MSG(tasks.size() == 1 ||
                       (config.plane.managers <= 1 && config.obs == nullptr),
                   "the plane and obs bundles serve single-task episodes");
  const std::size_t nodes = config.scenario.node_count;

  // Workload mix: kPaper offers each task's pattern verbatim; the
  // generator mixes swap it (seeded from the scenario seed so paired
  // algorithm runs see identical arrivals); kMulti keeps the patterns and
  // adds contender flows.
  switch (config.workload_mix) {
    case workload::WorkloadMix::kPaper:
    case workload::WorkloadMix::kMulti:
      break;
    case workload::WorkloadMix::kPareto:
      generated_ = std::make_unique<workload::ParetoArrivals>(
          config.pareto, config.scenario.seed);
      break;
    case workload::WorkloadMix::kSurge:
      surge_ = std::make_unique<workload::CorrelatedSurge>(
          config.surge, config.surge_sensors, config.scenario.seed);
      generated_ = surge_->fusedPattern();
      break;
  }
  if (config.workload_mix == workload::WorkloadMix::kMulti) {
    workload::ContenderConfig cc = config.contenders;
    cc.seed ^= config.scenario.seed * kContenderSeedMix;
    contenders_ = std::make_unique<workload::ContenderTraffic>(
        scenario_.sim(), scenario_.net(), nodes, cc);
  }

  specs_.reserve(tasks.size());
  for (const EpisodeTask& task : tasks) {
    RTDRM_ASSERT(task.spec != nullptr && task.pattern != nullptr &&
                 task.models != nullptr);
    specs_.push_back(*task.spec);
  }
  if (config.drift_at_period > 0) {
    scenario_.sim().scheduleAt(
        SimTime::zero() + specs_.front().period *
                              static_cast<double>(config.drift_at_period),
        [this] {
          for (task::TaskSpec& spec : specs_) {
            for (auto& st : spec.subtasks) {
              if (st.replicable) {
                st.cost.alpha_ms *= config_.drift_cost_scale;
                st.cost.beta_ms *= config_.drift_cost_scale;
              }
            }
          }
        });
  }

  // A task set posts into one shared ledger, so eq. (5) sums every task's
  // workload; a single task has none unless the caller attaches one.
  if (tasks.size() > 1) {
    ledger_ = std::make_unique<core::WorkloadLedger>();
  }
  managers_.reserve(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    // Initial placement: each chain spread round-robin over the nodes,
    // staggered per task so primaries don't pile onto node 0; one replica
    // per subtask (replication is the run-time system's job).
    std::vector<ProcessorId> homes;
    homes.reserve(specs_[t].stageCount());
    for (std::size_t s = 0; s < specs_[t].stageCount(); ++s) {
      homes.push_back(
          ProcessorId{static_cast<std::uint32_t>((s + 2 * t) % nodes)});
    }
    core::ManagerConfig mgr_cfg = config.manager;
    // Exactly one manager owns the cluster's utilization sampling window.
    if (t > 0) {
      mgr_cfg.sample_cluster = false;
    }
    const workload::Pattern* pattern =
        generated_ != nullptr ? generated_.get() : tasks[t].pattern;
    const std::uint64_t phase = tasks[t].phase;
    managers_.push_back(std::make_unique<core::ResourceManager>(
        scenario_.runtime(), specs_[t], task::Placement(homes),
        [pattern, phase](std::uint64_t c) { return pattern->at(c + phase); },
        allocators(tasks[t]), *tasks[t].models, mgr_cfg,
        scenario_.streams().get("exec-noise", t)));
    if (ledger_ != nullptr) {
      managers_.back()->attachLedger(*ledger_);
    }
    if (config.obs != nullptr) {
      managers_.back()->attachObs(*config.obs);
    }
  }

  // Decentralized plane (managers > 1 only — the default builds none of
  // this, keeping the legacy path bit-for-bit): gossiping endpoints whose
  // elections the manager detector below drives.
  if (config.plane.managers > 1) {
    plane_ = std::make_unique<core::ManagementPlane>(
        scenario_.sim(), scenario_.net(), scenario_.cluster(), config.plane);
    plane_->adopt(*managers_.front());
    if (config.obs != nullptr) {
      plane_->attachObs(*config.obs);
    }
  }
  if (config.faults != nullptr && !config.faults->empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        scenario_.sim(), scenario_.cluster(), &scenario_.net(),
        &scenario_.clocks(), *config.faults);
    if (plane_ != nullptr) {
      injector_->setManagerFaultTarget(
          config.plane.managers,
          [p = plane_.get()](std::uint32_t m, bool up) {
            p->setManagerUp(m, up);
          });
    }
  }
  if (config.node_detector) {
    // Heavy frame loss can delay acks past the timeout and declare a live
    // node dead; failover only makes sense for real crashes. With a plane
    // the news routes through it: only a live active repairs placements,
    // anything else is queued for the next election.
    node_detector_ = std::make_unique<fault::FailureDetector>(
        scenario_.sim(), scenario_.cluster(), scenario_.net(),
        config.detector,
        [this](ProcessorId pid) {
          if (scenario_.cluster().isUp(pid)) {
            return;
          }
          if (plane_ != nullptr) {
            plane_->handleNodeFailure(pid);
          } else {
            for (auto& m : managers_) {
              m->handleNodeFailure(pid);
            }
          }
        },
        [this](ProcessorId pid) {
          if (!scenario_.cluster().isUp(pid)) {
            return;
          }
          if (plane_ != nullptr) {
            plane_->handleNodeRestart(pid);
          } else {
            for (auto& m : managers_) {
              m->handleNodeRestart(pid);
            }
          }
        });
  }
  if (plane_ != nullptr) {
    std::vector<fault::DetectorTarget> targets;
    targets.reserve(config.plane.managers);
    for (std::uint32_t mi = 0;
         mi < static_cast<std::uint32_t>(config.plane.managers); ++mi) {
      targets.push_back(fault::DetectorTarget{
          mi, plane_->hostOf(mi),
          [p = plane_.get(), mi] { return p->endpointReachable(mi); }});
    }
    manager_detector_ = std::make_unique<fault::FailureDetector>(
        scenario_.sim(), scenario_.net(), config.detector,
        std::move(targets),
        [p = plane_.get()](std::uint32_t m) { p->onManagerSuspected(m); },
        [p = plane_.get()](std::uint32_t m) { p->onManagerRecovered(m); });
  }
}

void Episode::onStart(std::function<void()> fn) {
  start_hooks_.push_back(std::move(fn));
}

void Episode::onStop(std::function<void()> fn) {
  stop_hooks_.push_back(std::move(fn));
}

void Episode::run() {
  run(specs_.front().period * static_cast<double>(config_.periods));
}

void Episode::run(SimDuration horizon) {
  RTDRM_ASSERT_MSG(!ran_, "an episode runs once");
  ran_ = true;
  if (injector_ != nullptr) {
    injector_->arm();
  }
  const SimTime now = scenario_.sim().now();
  if (contenders_ != nullptr) {
    contenders_->start();
  }
  for (auto& m : managers_) {
    m->start(now);
  }
  if (plane_ != nullptr) {
    plane_->start(now);
  }
  for (const auto& hook : start_hooks_) {
    hook();
  }
  if (node_detector_ != nullptr) {
    node_detector_->start(now);
  }
  if (manager_detector_ != nullptr) {
    manager_detector_->start(now);
  }
  scenario_.runFor(horizon);

  for (auto& m : managers_) {
    m->stop();
  }
  if (node_detector_ != nullptr) {
    node_detector_->stop();
  }
  if (manager_detector_ != nullptr) {
    manager_detector_->stop();
  }
  for (const auto& hook : stop_hooks_) {
    hook();
  }
  SimDuration slowest = specs_.front().period;
  for (const task::TaskSpec& spec : specs_) {
    slowest = std::max(slowest, spec.period);
  }
  scenario_.runFor(slowest * config_.drain_periods);
  if (plane_ != nullptr) {
    plane_->stop();
  }

  if (config_.obs != nullptr) {
    obs::MetricsRegistry& reg = config_.obs->metrics;
    scenario_.sim().exportMetrics(reg);
    scenario_.net().exportMetrics(reg);
    scenario_.cluster().exportMetrics(reg);
    managers_.front()->exportMetrics(reg);
    if (plane_ != nullptr) {
      plane_->exportMetrics(reg);
      manager_detector_->exportMetrics(reg);
    }
    if (node_detector_ != nullptr) {
      node_detector_->exportMetrics(reg);
    }
  }
}

EpisodeResult Episode::result(std::size_t task) const {
  RTDRM_ASSERT_MSG(ran_, "result() before run()");
  EpisodeResult out;
  out.metrics = managers_[task]->metrics();
  out.combined = out.metrics.combined(config_.scenario.node_count);
  out.missed_pct = out.metrics.missedRatio() * 100.0;
  out.cpu_pct = out.metrics.cpu_utilization.mean() * 100.0;
  out.net_pct = out.metrics.net_utilization.mean() * 100.0;
  out.avg_replicas = out.metrics.replicas_per_subtask.mean();
  if (plane_ != nullptr) {
    out.decision_gap_ms = plane_->decisionGapMs();
    out.elections = plane_->elections();
    out.gossip_rounds = plane_->gossipRounds();
    out.suppressed_periods = out.metrics.suppressed_decision_periods;
  }
  return out;
}

EpisodeResult runEpisode(const task::TaskSpec& spec,
                         const workload::Pattern& pattern,
                         const core::PredictiveModels& models,
                         AlgorithmKind algorithm,
                         const EpisodeConfig& config) {
  Episode episode(config, {EpisodeTask{&spec, &pattern, &models}}, algorithm);
  episode.run();
  return episode.result();
}

std::vector<SweepPoint> runWorkloadSweep(const task::TaskSpec& spec,
                                         const core::PredictiveModels& models,
                                         const std::string& pattern,
                                         const SweepConfig& config) {
  RTDRM_ASSERT(!config.max_workload_units.empty());
  std::vector<SweepPoint> points(config.max_workload_units.size());

  parallelFor(
      points.size(),
      [&](std::size_t i) {
        const double units = config.max_workload_units[i];
        workload::RampParams ramp = config.ramp;
        ramp.max_workload = DataSize::tracks(units * 500.0);

        EpisodeConfig ep = config.episode;
        // EQF initial conditions track the pattern's starting workload.
        ep.manager.d_init = pattern == "decreasing" ? ramp.max_workload
                                                    : ramp.min_workload;

        const auto pat = workload::makeFig8Pattern(pattern, ramp);
        SweepPoint& pt = points[i];
        pt.max_workload_units = units;

        auto averaged = [&](AlgorithmKind kind) {
          if (config.replications <= 1) {
            return runEpisode(spec, *pat, models, kind, ep);
          }
          EpisodeResult mean;
          for (std::size_t r = 0; r < config.replications; ++r) {
            EpisodeConfig rep = ep;
            rep.scenario.seed = ep.scenario.seed + r;
            const EpisodeResult one = runEpisode(spec, *pat, models, kind,
                                                 rep);
            mean.missed_pct += one.missed_pct;
            mean.cpu_pct += one.cpu_pct;
            mean.net_pct += one.net_pct;
            mean.avg_replicas += one.avg_replicas;
            mean.combined += one.combined;
            if (r == 0) {
              mean.metrics = one.metrics;  // representative first replicate
            }
          }
          const auto n = static_cast<double>(config.replications);
          mean.missed_pct /= n;
          mean.cpu_pct /= n;
          mean.net_pct /= n;
          mean.avg_replicas /= n;
          mean.combined /= n;
          return mean;
        };
        pt.predictive = averaged(AlgorithmKind::kPredictive);
        pt.non_predictive = averaged(AlgorithmKind::kNonPredictive);
      },
      config.parallel ? 0 : 1);
  return points;
}

}  // namespace rtdrm::experiments
