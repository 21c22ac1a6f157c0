#include "core/manager.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/obs.hpp"

namespace rtdrm::core {

namespace {

/// True when making `decided` effective would put a replica on a node that
/// is down and that `live` does not already name: the node crashed while
/// the decision was in flight, and failure handling may have scrubbed it.
bool addsReplicaOnDownNode(const task::Placement& decided,
                           const task::Placement& live,
                           const node::Cluster& cluster) {
  for (std::size_t i = 0; i < decided.stageCount(); ++i) {
    for (const ProcessorId p : decided.stage(i).nodes()) {
      if (!cluster.isUp(p) && !live.stage(i).contains(p)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

ResourceManager::ResourceManager(task::Runtime rt, const task::TaskSpec& spec,
                                 task::Placement initial,
                                 task::TaskRunner::WorkloadFn workload,
                                 std::unique_ptr<Allocator> allocator,
                                 PredictiveModels models, ManagerConfig config,
                                 Xoshiro256 noise_rng)
    : rt_(rt),
      spec_(spec),
      allocator_(std::move(allocator)),
      models_(std::move(models)),
      config_(config),
      monitor_(spec_, config.monitor),
      net_probe_(rt.sim, rt.net) {
  RTDRM_ASSERT(allocator_ != nullptr);
  RTDRM_ASSERT_MSG(models_.exec.size() == spec_.stageCount(),
                   "need one execution model per subtask for EQF");

  // Wrap the workload source so each release is also posted to the shared
  // ledger (when attached) — eq. 5 needs every task's current workload.
  task::TaskRunner::WorkloadFn wrapped =
      [this, fn = std::move(workload)](std::uint64_t c) {
        // Load shedding (when engaged) drops a fraction of the offered
        // stream before it enters the pipeline.
        const DataSize d = fn(c) * (1.0 - shed_fraction_);
        if (ledger_ != nullptr) {
          ledger_->post(ledger_id_, d);
        }
        return d;
      };
  runner_ = std::make_unique<task::TaskRunner>(
      rt_, spec_, std::move(initial), std::move(wrapped), noise_rng,
      config_.pipeline,
      [this](const task::PeriodRecord& rec) { onRecord(rec); });

  metrics_.stages.resize(spec_.stageCount());

  if (config_.online_refit) {
    if (config_.refit.per_node) {
      config_.refit.node_count = rt_.cluster.size();
      models_.exec_overrides.assign(
          spec_.stageCount(),
          std::vector<std::optional<regress::ExecLatencyModel>>(
              rt_.cluster.size()));
    }
    refresher_ =
        std::make_unique<ModelRefresher>(spec_, models_, config_.refit);
  }

  // Initial EQF assignment from the assumed initial operating conditions.
  reassignBudgets(config_.d_init);

  sampler_ = std::make_unique<sim::PeriodicActivity>(
      rt_.sim, spec_.period, [this](std::uint64_t t) { onPeriodTick(t); });
}

void ResourceManager::start(SimTime first_release) {
  // Sample just before each release so allocation decisions in period c see
  // utilizations measured over period c-1.
  runner_->start(first_release);
  sampler_->start(first_release + spec_.period - SimDuration::micros(1.0));
}

void ResourceManager::stop() {
  runner_->stop();
  sampler_->stop();
}

void ResourceManager::attachObserver(ManagerObserver& observer) {
  RTDRM_ASSERT_MSG(observer_ == nullptr, "observer already attached");
  observer_ = &observer;
  observer_->onBudgetsAssigned(*this, budgets_);
}

void ResourceManager::attachObs(obs::Observability& o) {
  RTDRM_ASSERT_MSG(obs_ == nullptr, "observability already attached");
  obs_ = &o;
  obs_->trace.setClock([this] { return rt_.sim.now().ms(); });
}

void ResourceManager::obsRecord(obs::RecordKind kind, std::uint8_t flags,
                                std::uint16_t stage, std::uint32_t node,
                                double a, double b, double c) {
  if (obs_ != nullptr) {
    obs_->trace.record(kind, flags, stage, node, a, b, c);
  }
}

void ResourceManager::exportMetrics(obs::MetricsRegistry& reg) const {
  reg.counter("core.periods_observed").set(metrics_.missed_deadlines.total());
  reg.counter("core.missed_deadlines").set(metrics_.missed_deadlines.hits());
  reg.counter("core.replicate_actions").set(metrics_.replicate_actions);
  reg.counter("core.shutdown_actions").set(metrics_.shutdown_actions);
  reg.counter("core.allocation_failures").set(metrics_.allocation_failures);
  reg.counter("core.node_failures_handled")
      .set(metrics_.node_failures_handled);
  reg.counter("core.failover_replacements")
      .set(metrics_.failover_replacements);
  reg.counter("core.recovery_allocation_failures")
      .set(metrics_.recovery_allocation_failures);
  reg.counter("core.suppressed_decision_periods")
      .set(metrics_.suppressed_decision_periods);
  reg.gauge("core.shed_fraction").set(shed_fraction_);
  if (config_.allow_period_adjust) {
    // Gated: the export set (and any digest over it) is unchanged unless
    // the period-adjustment extension is switched on.
    reg.counter("core.period_dilations").set(metrics_.period_dilations);
    reg.counter("core.period_contractions").set(metrics_.period_contractions);
    reg.gauge("core.period_scale")
        .set(runner_->currentPeriod() / spec_.period);
  }
  reg.gauge("core.mean_cpu_utilization").set(metrics_.cpu_utilization.mean());
  reg.gauge("core.mean_net_utilization").set(metrics_.net_utilization.mean());
  reg.gauge("core.mean_replicas_per_subtask")
      .set(metrics_.replicas_per_subtask.mean());
}

void ResourceManager::attachLedger(WorkloadLedger& ledger) {
  RTDRM_ASSERT_MSG(ledger_ == nullptr, "ledger already attached");
  ledger_ = &ledger;
  ledger_id_ = ledger.registerTask(spec_.name);
}

DataSize ResourceManager::totalWorkload(DataSize own) const {
  if (ledger_ == nullptr) {
    return own;
  }
  // The ledger carries this task's own posting too; use whichever is
  // fresher for our component.
  DataSize total = DataSize::zero();
  for (std::size_t t = 0; t < ledger_->taskCount(); ++t) {
    total += t == ledger_id_.value
                 ? own
                 : ledger_->posted(WorkloadLedger::TaskId{t});
  }
  return total;
}

void ResourceManager::trace(sim::TraceCategory cat, const std::string& label,
                            double value) {
  if (trace_ != nullptr) {
    trace_->record(rt_.sim.now(), cat, spec_.name + "/" + label, value);
  }
}

void ResourceManager::onPeriodTick(std::uint64_t) {
  if (config_.sample_cluster && !external_sampling_) {
    rt_.cluster.sampleUtilization();
  }
  metrics_.cpu_utilization.add(rt_.cluster.meanUtilization().value());
  metrics_.net_utilization.add(net_probe_.sample().value());

  metrics_.shed_fraction.add(shed_fraction_);
  metrics_.period_scale.add(runner_->currentPeriod() / spec_.period);

  // Mean replica count across the replicable stages.
  double replicas = 0.0;
  double replicable = 0.0;
  const task::Placement& placement = runner_->placement();
  for (std::size_t i = 0; i < spec_.stageCount(); ++i) {
    if (spec_.subtasks[i].replicable) {
      replicas += static_cast<double>(placement.stage(i).size());
      replicable += 1.0;
    }
  }
  if (replicable > 0.0) {
    metrics_.replicas_per_subtask.add(replicas / replicable);
  }
}

void ResourceManager::onRecord(const task::PeriodRecord& record) {
  if (observer_ != nullptr) {
    observer_->onPeriodRecord(*this, record);
  }
  const bool missed = record.missed(spec_.deadline);
  metrics_.missed_deadlines.add(missed);
  if (missed) {
    trace(sim::TraceCategory::kMiss,
          "period " + std::to_string(record.period_index),
          record.endToEnd().ms());
    obsRecord(obs::RecordKind::kMiss, 0, 0, obs::kRecordNoNode,
              record.endToEnd().ms(),
              static_cast<double>(record.period_index));
  }
  if (record.completed) {
    metrics_.end_to_end_ms.add(record.endToEnd().ms());
    metrics_.end_to_end_hist.add(record.endToEnd().ms());
    if (obs_ != nullptr) {
      obs_->metrics.histogram("core.end_to_end_ms")
          .observe(record.endToEnd().ms());
    }
    for (std::size_t i = 0; i < record.stages.size(); ++i) {
      if (record.stages[i].completed) {
        metrics_.stages[i].latency_ms.add(
            record.stages[i].measured_latency.ms());
      }
    }
  }

  // Decentralized-plane gate: with no live decision owner, this period's
  // adaptive half never happens — a dead manager neither refits models nor
  // evaluates the monitor. Accounting above still ran: the workload keeps
  // flowing (and missing) through the gap; only decisions stop.
  if (gate_ != nullptr && !gate_()) {
    ++metrics_.suppressed_decision_periods;
    return;
  }

  if (refresher_ != nullptr) {
    // A-posteriori model refinement: every completed stage is one
    // (share, utilization, latency) observation of eq. 3.
    bool any_refreshed = false;
    for (std::size_t i = 0; i < record.stages.size(); ++i) {
      const task::StageRecord& st = record.stages[i];
      if (!st.completed || st.replicas == 0) {
        continue;
      }
      const double share =
          record.workload.hundreds() / static_cast<double>(st.replicas);
      const double u =
          rt_.cluster.lastUtilization(st.worst_exec_node).value();
      if (refresher_->observe(i, st.worst_exec_node, share, u,
                              st.worst_exec.ms())) {
        models_.exec[i] = refresher_->current(i);
        any_refreshed = true;
      }
      if (config_.refit.per_node) {
        auto node_model = refresher_->currentForNode(i, st.worst_exec_node);
        if (node_model.has_value()) {
          models_.exec_overrides[i][st.worst_exec_node.value] =
              std::move(node_model);
          any_refreshed = true;
        }
      }
    }
    if (any_refreshed) {
      allocator_->onModelsRefreshed(models_);
    }
  }

  task::Placement placement = runner_->placement();
  const std::vector<Action> actions =
      monitor_.evaluate(record, budgets_, placement);
  if (observer_ != nullptr) {
    observer_->onMonitorActions(*this, actions);
  }
  if (actions.empty()) {
    return;
  }
  if (decision_owner_ != nullptr) {
    decision_owner_();
  }

  const DataSize workload = runner_->currentWorkload();
  bool changed = false;
  for (const Action& a : actions) {
    task::ReplicaSet& rs = placement.stage(a.stage);
    obsRecord(obs::RecordKind::kMonitorAction,
              a.kind == ActionKind::kReplicate ? obs::kFlagAccept
                                               : std::uint8_t{0},
              static_cast<std::uint16_t>(a.stage));
    if (a.kind == ActionKind::kReplicate) {
      if (rs.size() >= rt_.cluster.size()) {
        ++metrics_.allocation_failures;  // already at max concurrency
        obsRecord(obs::RecordKind::kAllocFailure, 0,
                  static_cast<std::uint16_t>(a.stage));
        // Replication is off the table; slow the release rate within the
        // task's elastic bounds before degrading quality by shedding.
        if (dilatePeriod(a.stage)) {
          changed = true;
        } else if (config_.allow_load_shedding &&
                   shed_fraction_ < config_.max_shed) {
          shed_fraction_ = std::min(config_.max_shed,
                                    shed_fraction_ + config_.shed_step);
          trace(sim::TraceCategory::kCustom, "shed", shed_fraction_);
          obsRecord(obs::RecordKind::kShed, 0,
                    static_cast<std::uint16_t>(a.stage), obs::kRecordNoNode,
                    shed_fraction_);
          changed = true;
        }
        continue;
      }
      const AllocationContext ctx = makeContext(workload);
      const AllocStatus status = allocator_->replicate(ctx, a.stage, rs);
      if (observer_ != nullptr) {
        observer_->onAllocation(*this, a.stage, status, ctx, rs);
      }
      if (status == AllocStatus::kFailure) {
        ++metrics_.allocation_failures;
        obsRecord(obs::RecordKind::kAllocFailure, 0,
                  static_cast<std::uint16_t>(a.stage));
        // The eq.-5/eq.-6 forecast rejected replication: dilate the period
        // toward max_period first — trading rate costs nothing dropped —
        // and only shed once the elastic bound is exhausted.
        if (dilatePeriod(a.stage)) {
          changed = true;
        } else if (config_.allow_load_shedding &&
                   shed_fraction_ < config_.max_shed) {
          // Even full replication cannot hold the budget: degrade quality
          // instead of missing outright (imprecise computation).
          shed_fraction_ = std::min(config_.max_shed,
                                    shed_fraction_ + config_.shed_step);
          trace(sim::TraceCategory::kCustom, "shed", shed_fraction_);
          obsRecord(obs::RecordKind::kShed, 0,
                    static_cast<std::uint16_t>(a.stage), obs::kRecordNoNode,
                    shed_fraction_);
          changed = true;
        }
      }
      if (status != AllocStatus::kNoChange) {
        ++metrics_.replicate_actions;
        ++metrics_.stages[a.stage].replicate_actions;
        changed = true;
        trace(sim::TraceCategory::kReplicate,
              spec_.subtasks[a.stage].name,
              static_cast<double>(rs.size()));
        obsRecord(obs::RecordKind::kReplicate, 0,
                  static_cast<std::uint16_t>(a.stage), obs::kRecordNoNode,
                  static_cast<double>(rs.size()));
      }
      RTDRM_LOG(kDebug) << allocator_->name() << ": stage " << a.stage
                        << " -> " << rs.size() << " replicas";
    } else if (config_.allow_load_shedding && shed_fraction_ > 0.0) {
      // Quality comes back before resources go: high slack first unwinds
      // the shed fraction, and only then releases replicas.
      shed_fraction_ = std::max(0.0, shed_fraction_ - config_.shed_step);
      trace(sim::TraceCategory::kCustom, "shed", shed_fraction_);
      obsRecord(obs::RecordKind::kShed, 0,
                static_cast<std::uint16_t>(a.stage), obs::kRecordNoNode,
                shed_fraction_);
      changed = true;
    } else if (contractPeriod(a.stage)) {
      // Levers unwind in reverse engagement order: shedding was the last
      // resort, so it clears first; then the rate recovers toward the
      // spec period; only then are replicas released.
      changed = true;
    } else {
      // Fig. 6 (or the selective-eviction extension): drop one replica.
      if (rs.size() > 1) {
        const ProcessorId victim = selectShutdownVictim(
            rs, rt_.cluster, config_.shutdown_selection);
        rs.remove(victim);
        ++metrics_.shutdown_actions;
        ++metrics_.stages[a.stage].shutdown_actions;
        changed = true;
        trace(sim::TraceCategory::kShutdown, spec_.subtasks[a.stage].name,
              static_cast<double>(rs.size()));
        obsRecord(obs::RecordKind::kShutdown, 0,
                  static_cast<std::uint16_t>(a.stage), victim.value,
                  static_cast<double>(rs.size()));
        RTDRM_LOG(kDebug) << "shutdown: stage " << a.stage << " -> "
                          << rs.size() << " replicas";
      }
    }
  }

  if (changed) {
    if (config_.action_latency > SimDuration::zero()) {
      // Decisions propagate and replicas spawn; the new placement only
      // becomes effective after the control-plane latency.
      rt_.sim.scheduleAfter(
          config_.action_latency, [this, placement, workload] {
            // Deposed while the decision was in flight: the new owner
            // decides from its own view, so this one never lands.
            if (gate_ != nullptr && !gate_()) {
              return;
            }
            // A node the decision names crashed in flight: landing it would
            // bring the node back into the placement after failure
            // handling took it out. The next period decides afresh.
            if (addsReplicaOnDownNode(placement, runner_->placement(),
                                      rt_.cluster)) {
              return;
            }
            runner_->setPlacement(placement);
            obsRecord(obs::RecordKind::kPlacementChanged);
            if (observer_ != nullptr) {
              observer_->onPlacementChanged(*this, runner_->placement());
            }
            reassignBudgets(workload);
          });
      return;
    }
    runner_->setPlacement(placement);
    obsRecord(obs::RecordKind::kPlacementChanged);
    if (observer_ != nullptr) {
      observer_->onPlacementChanged(*this, runner_->placement());
    }
    // §4.1: subtask deadlines are re-assigned after every resource
    // management action, now at the *current* operating conditions.
    reassignBudgets(workload);
  }
}

void ResourceManager::handleNodeFailure(ProcessorId dead) {
  RTDRM_ASSERT(dead.value < rt_.cluster.size());
  RTDRM_ASSERT_MSG(!rt_.cluster.isUp(dead),
                   "failure handling requires the node already masked");
  obsRecord(obs::RecordKind::kNodeDown, 0, 0, dead.value);
  task::Placement placement = runner_->placement();
  const DataSize workload = runner_->currentWorkload();
  bool touched = false;

  for (std::size_t i = 0; i < spec_.stageCount(); ++i) {
    task::ReplicaSet& rs = placement.stage(i);
    if (!rs.contains(dead)) {
      continue;
    }
    touched = true;
    ++metrics_.failover_replacements;
    obsRecord(obs::RecordKind::kFailoverScrub, 0,
              static_cast<std::uint16_t>(i), dead.value,
              static_cast<double>(rs.size()));
    if (rs.size() == 1) {
      // Sole replica died: re-home to the least-utilized survivor before
      // dropping the dead node (the set may never go empty). The survivor
      // becomes the new primary.
      const auto substitute = rt_.cluster.leastUtilized(rs.nodes());
      if (!substitute) {
        // No surviving capacity at all; leave the stage stranded — every
        // period aborts at cutoff until a node restarts.
        ++metrics_.allocation_failures;
        ++metrics_.recovery_allocation_failures;
        obsRecord(obs::RecordKind::kAllocFailure, 0,
                  static_cast<std::uint16_t>(i));
        continue;
      }
      rs.add(*substitute);
    }
    rs.remove(dead);  // promotes the next-oldest replica if dead led

    if (!spec_.subtasks[i].replicable) {
      continue;
    }
    // Re-run the growth loop so the surviving set again meets the
    // forecast. The dead node is masked out of the utilization index, so
    // the allocator only ever sees survivors.
    if (rs.size() >= rt_.cluster.upCount()) {
      ++metrics_.allocation_failures;  // already on every survivor
      ++metrics_.recovery_allocation_failures;
      obsRecord(obs::RecordKind::kAllocFailure, 0,
                static_cast<std::uint16_t>(i));
      // Survivor capacity is exhausted: slow the release rate before
      // dropping data (same lever order as the steady-state loop).
      if (!dilatePeriod(i) && config_.allow_load_shedding &&
          shed_fraction_ < config_.max_shed) {
        shed_fraction_ =
            std::min(config_.max_shed, shed_fraction_ + config_.shed_step);
        trace(sim::TraceCategory::kCustom, "shed", shed_fraction_);
        obsRecord(obs::RecordKind::kShed, 0, static_cast<std::uint16_t>(i),
                  obs::kRecordNoNode, shed_fraction_);
      }
      continue;
    }
    const AllocationContext ctx = makeContext(workload);
    const AllocStatus status = allocator_->replicate(ctx, i, rs);
    if (observer_ != nullptr) {
      observer_->onAllocation(*this, i, status, ctx, rs);
    }
    if (status == AllocStatus::kFailure) {
      ++metrics_.allocation_failures;
      ++metrics_.recovery_allocation_failures;
      obsRecord(obs::RecordKind::kAllocFailure, 0,
                static_cast<std::uint16_t>(i));
      if (!dilatePeriod(i) && config_.allow_load_shedding &&
          shed_fraction_ < config_.max_shed) {
        // Survivors cannot absorb the lost capacity: degrade quality
        // instead of missing outright (graceful degradation).
        shed_fraction_ =
            std::min(config_.max_shed, shed_fraction_ + config_.shed_step);
        trace(sim::TraceCategory::kCustom, "shed", shed_fraction_);
        obsRecord(obs::RecordKind::kShed, 0, static_cast<std::uint16_t>(i),
                  obs::kRecordNoNode, shed_fraction_);
      }
    }
    if (status != AllocStatus::kNoChange) {
      ++metrics_.replicate_actions;
      ++metrics_.stages[i].replicate_actions;
      trace(sim::TraceCategory::kReplicate, spec_.subtasks[i].name,
            static_cast<double>(rs.size()));
      obsRecord(obs::RecordKind::kReplicate, 0,
                static_cast<std::uint16_t>(i), obs::kRecordNoNode,
                static_cast<double>(rs.size()));
    }
  }

  if (!touched) {
    return;
  }
  if (decision_owner_ != nullptr) {
    decision_owner_();
  }
  ++metrics_.node_failures_handled;
  trace(sim::TraceCategory::kCustom, "failover",
        static_cast<double>(dead.value));
  runner_->setPlacement(placement);
  obsRecord(obs::RecordKind::kPlacementChanged, 0, 0, dead.value);
  if (observer_ != nullptr) {
    observer_->onPlacementChanged(*this, runner_->placement());
  }
  // Slack history predates the failure; stale streaks must not trigger a
  // shutdown right after capacity was lost.
  monitor_.resetStreaks();
  reassignBudgets(workload);
}

void ResourceManager::resumeControl() {
  // Slack history predates the gap; stale streaks must not fire a
  // shutdown/replicate on the new owner's first period. Budgets are
  // re-derived from the view the standby just rebuilt from gossip.
  monitor_.resetStreaks();
  reassignBudgets(runner_->currentWorkload());
}

void ResourceManager::handleNodeRestart(ProcessorId node) {
  trace(sim::TraceCategory::kCustom, "restart",
        static_cast<double>(node.value));
  obsRecord(obs::RecordKind::kNodeRestart, 0, 0, node.value);
}

bool ResourceManager::canDilatePeriod() const {
  return config_.allow_period_adjust &&
         runner_->currentPeriod() < spec_.effectiveMaxPeriod();
}

bool ResourceManager::dilatePeriod(std::size_t stage) {
  if (!canDilatePeriod()) {
    return false;
  }
  const SimDuration step = spec_.period * config_.period_adjust_step;
  const SimDuration next =
      std::min(spec_.effectiveMaxPeriod(), runner_->currentPeriod() + step);
  if (next <= runner_->currentPeriod()) {
    return false;
  }
  applyPeriod(next, stage, /*dilated=*/true);
  return true;
}

bool ResourceManager::contractPeriod(std::size_t stage) {
  if (!config_.allow_period_adjust ||
      runner_->currentPeriod() <= spec_.period) {
    return false;
  }
  const SimDuration step = spec_.period * config_.period_adjust_step;
  const SimDuration next =
      std::max(spec_.period, runner_->currentPeriod() - step);
  applyPeriod(next, stage, /*dilated=*/false);
  return true;
}

void ResourceManager::applyPeriod(SimDuration new_period, std::size_t stage,
                                  bool dilated) {
  const SimDuration old_period = runner_->currentPeriod();
  RTDRM_ASSERT(new_period != old_period);
  runner_->setPeriod(new_period);
  // Keep the measurement cadence phase-locked to the release cadence: one
  // utilization sample just before each release, whatever the live period.
  sampler_->setPeriod(new_period);
  if (dilated) {
    ++metrics_.period_dilations;
  } else {
    ++metrics_.period_contractions;
  }
  trace(sim::TraceCategory::kCustom, "period", new_period.ms());
  obsRecord(obs::RecordKind::kPeriodAdjust,
            dilated ? obs::kFlagAccept : std::uint8_t{0},
            static_cast<std::uint16_t>(stage), obs::kRecordNoNode,
            new_period.ms(), old_period.ms());
  RTDRM_LOG(kDebug) << "period " << (dilated ? "dilated" : "contracted")
                    << ": " << old_period.ms() << " -> " << new_period.ms()
                    << " ms";
  if (observer_ != nullptr) {
    observer_->onPeriodAdjust(*this, old_period, new_period, dilated);
  }
}

AllocationContext ResourceManager::makeContext(DataSize workload) const {
  AllocationContext ctx{spec_,    rt_.cluster,
                        workload, budgets_,
                        config_.monitor.slack_fraction,
                        totalWorkload(workload)};
  ctx.audit = obs_ != nullptr ? &obs_->trace : nullptr;
  return ctx;
}

void ResourceManager::reassignBudgets(DataSize d) {
  const task::Placement& placement = runner_->placement();
  EqfInput in;
  in.deadline_ms = spec_.deadline.ms();
  in.eex_ms.resize(spec_.stageCount());
  in.ecd_ms.resize(spec_.stageCount() - 1);

  for (std::size_t i = 0; i < spec_.stageCount(); ++i) {
    const task::ReplicaSet& rs = placement.stage(i);
    const DataSize share = d / static_cast<double>(rs.size());
    // Estimate at the primary's observed utilization; before the first
    // sample this falls back to the configured u_init.
    Utilization u = rt_.cluster.lastUtilization(rs.primary());
    if (u.value() <= 0.0) {
      u = config_.u_init;
    }
    in.eex_ms[i] = models_.execLatency(i, share, u).ms();
    if (i + 1 < spec_.stageCount()) {
      const std::size_t succ_replicas = placement.stage(i + 1).size();
      const DataSize succ_share = d / static_cast<double>(succ_replicas);
      in.ecd_ms[i] = models_
                         .commDelay(succ_share,
                                    spec_.messages[i].bytes_per_track,
                                    totalWorkload(d))
                         .ms();
    }
  }
  budgets_ = assignBudgets(in, config_.deadline_strategy);
  obsRecord(obs::RecordKind::kBudgetsAssigned, 0, 0, obs::kRecordNoNode,
            d.count());
  if (observer_ != nullptr) {
    observer_->onBudgetsAssigned(*this, budgets_);
  }
}

}  // namespace rtdrm::core
