#include "node/processor.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/assert.hpp"

namespace rtdrm::node {

void ProcessorConfig::validate() const {
  RTDRM_ASSERT_MSG(quantum > SimDuration::zero(),
                   "quantum must be positive");
  RTDRM_ASSERT_MSG(context_switch >= SimDuration::zero(),
                   "context switch must be non-negative");
  RTDRM_ASSERT_MSG(speed > 0.0, "speed must be positive");
}

Processor::Processor(sim::Simulator& simulator, ProcessorId id,
                     ProcessorConfig config)
    : sim_(simulator), id_(id), config_(config) {
  config_.validate();
  policy_ = makeSchedulerPolicy(config_.policy);
  timeline_ = sim_.addTimeline(this);
}

Processor::~Processor() {
  // Both point at this processor.
  if (stretch_real_) {
    sim_.cancel(stretch_event_);
  }
  sim_.removeTimeline(timeline_);
}

SchedContext Processor::schedContext() const {
  SchedContext ctx;
  ctx.now = sim_.now();
  ctx.quantum = config_.quantum;
  ctx.context_switch = config_.context_switch;
  if (running_) {
    ctx.stretch_len = stretch_len_;
    ctx.stretch_elapsed = sim_.now() - stretch_start_;
  }
  return ctx;
}

JobId Processor::submit(Job job) {
  RTDRM_ASSERT(job.demand >= SimDuration::zero());
  if (!up_) {
    ++jobs_rejected_;
    return kNoJob;
  }
  const JobId id{next_job_++};
  admit(id, std::move(job));
  publish();
  return id;
}

void Processor::submitReserved(JobId id, Job job) {
  RTDRM_ASSERT(job.demand >= SimDuration::zero());
  RTDRM_ASSERT_MSG((id.value & kReservedBit) != 0,
                   "submitReserved needs an id from reserveJobId()");
  if (!up_) {
    ++jobs_rejected_;  // dropped like submit(): on_complete never fires
    return;
  }
  admit(id, std::move(job));
  publish();
}

void Processor::admit(JobId id, Job job) {
  if (job.on_complete) {
    callbacks_.emplace_back(id, std::move(job.on_complete));
    job.on_complete = nullptr;
  }
  // Demand is reference-speed CPU time; this node serves it at its own
  // (possibly throttled) speed, so the resident's remaining counter is
  // wall service time.
  const SimDuration wall = job.demand / (config_.speed * speed_factor_);
  Resident incoming{id, wall, std::move(job)};
  const SchedContext ctx = schedContext();
  // The running job owns the front slot (settle/abort rely on it), so an
  // arrival during a stretch may enter the waiting tail at the earliest.
  const std::size_t floor = running_ ? 1 : 0;
  std::size_t pos = policy_->insertPos(queue_, incoming, floor, ctx);
  RTDRM_ASSERT_MSG(pos >= floor && pos <= queue_.size(),
                   "insertPos out of range");
  const Resident& placed = *queue_.insert(
      queue_.begin() + static_cast<std::ptrdiff_t>(pos), std::move(incoming));
  if (!running_) {
    dispatch();
  } else if (policy_->preemptOnAdmit(queue_, placed, ctx)) {
    // The arrival outranks (or, for RR, breaks up) the running stretch:
    // settle the consumed span and decide afresh.
    settleRunningStretch();
    dispatch();
  }
}

bool Processor::abort(JobId id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id != id) {
      continue;
    }
    const bool is_running = running_ && it == queue_.begin();
    if (is_running) {
      settleRunningStretch();
    }
    queue_.erase(it);
    ++jobs_aborted_;
    std::erase_if(callbacks_, [id](const auto& c) { return c.first == id; });
    if (is_running) {
      dispatch();
    }
    publish();
    return true;
  }
  return false;
}

void Processor::setUp(bool up) {
  if (up == up_) {
    return;
  }
  if (!up) {
    // Crash: whatever was resident is lost with the node's private memory.
    // No on_complete fires — submitters see their work vanish, exactly the
    // failure mode the manager's detector has to recover from.
    if (running_) {
      settleRunningStretch();
    }
    jobs_aborted_ += queue_.size();
    queue_.clear();
    callbacks_.clear();
    publish();
  }
  up_ = up;
}

void Processor::setSpeedFactor(double factor) {
  RTDRM_ASSERT(factor > 0.0);
  if (factor == speed_factor_) {
    return;
  }
  if (running_) {
    settleRunningStretch();
  }
  // Outstanding wall time was priced at the old effective speed; re-price
  // it so the remaining demand is served at the new rate from now on. Only
  // the service component scales: the context-switch residue banked by the
  // settle is fixed wall time (ProcessorConfig::context_switch semantics)
  // and carries over unchanged.
  const double scale = speed_factor_ / factor;
  for (Resident& r : queue_) {
    r.remaining = r.remaining * scale;
  }
  speed_factor_ = factor;
  dispatch();
  publish();
}

SimDuration Processor::busyTime() const {
  if (!running_) {
    return busy_accum_;
  }
  // The in-flight span is not in busy_accum_ yet (the accumulator only
  // advances when a stretch terminates), so adding it here cannot double
  // count — see the invariant note in the header.
  return busy_accum_ + (sim_.now() - stretch_start_);
}

bool Processor::hasCallback(JobId id) const {
  for (const auto& c : callbacks_) {
    if (c.first == id) {
      return true;
    }
  }
  return false;
}

void Processor::dispatch() {
  if (running_ || queue_.empty()) {
    return;
  }
  const std::size_t pick = policy_->pickNext(queue_, schedContext());
  RTDRM_ASSERT_MSG(pick < queue_.size(), "pickNext out of range");
  if (pick != 0) {
    auto it = queue_.begin() + static_cast<std::ptrdiff_t>(pick);
    Resident r = std::move(*it);
    queue_.erase(it);
    queue_.push_front(std::move(r));
  }
  Resident& head = queue_.front();
  const SimDuration service =
      policy_->slice(head, queue_.size(), schedContext());
  // A job resuming the stretch it was settled out of only owes the
  // unconsumed residue of that stretch's context-switch charge; any other
  // pick is a fresh dispatch boundary and pays the full charge. The credit
  // is single-shot: whatever this dispatch decides voids it.
  stretch_cs_ =
      head.id == resume_id_ ? resume_cs_ : config_.context_switch;
  resume_id_ = kNoJob;
  resume_cs_ = SimDuration::zero();
  stretch_len_ = service + stretch_cs_;
  stretch_start_ = sim_.now();
  stretch_end_ = stretch_start_ + stretch_len_;
  running_ = true;
  // A stretch that completes a job with a callback, by endStretch()'s own
  // test and arithmetic, ends in a real event: the callback is what the
  // world outside the node sees of it. Any other end is an instant, keyed
  // where its event would have been scheduled.
  stretch_real_ =
      hasCallback(head.id) &&
      (head.remaining - (stretch_len_ - stretch_cs_)).ms() <= kResidualEpsMs;
  if (stretch_real_) {
    stretch_event_ =
        sim_.scheduleAt(stretch_end_, [this] { onCompletion(); });
  } else {
    stretch_key_ = sim_.takeOrderKey();
  }
}

SimDuration Processor::chargeFullStretch() {
  busy_accum_ += stretch_len_;
  const SimDuration service = stretch_len_ - stretch_cs_;
  served_accum_ += service;
  overhead_accum_ += stretch_cs_;
  running_ = false;
  return service;
}

void Processor::endStretch() {
  RTDRM_ASSERT(running_ && !stretch_real_ && !queue_.empty());
  Resident& head = queue_.front();
  head.remaining -= chargeFullStretch();
  if (head.remaining.ms() <= kResidualEpsMs) {
    queue_.pop_front();  // callback-free: a callback makes the end real
    ++jobs_completed_;
  } else if (policy_->rotateExpired() && queue_.size() > 1) {
    // Round-robin rotation: expired quantum goes to the tail.
    Resident r = std::move(queue_.front());
    queue_.pop_front();
    queue_.push_back(std::move(r));
  }
  dispatch();
}

void Processor::onCompletion() {
  RTDRM_ASSERT(running_ && stretch_real_ && !queue_.empty());
  stretch_real_ = false;
  Resident& head = queue_.front();
  head.remaining -= chargeFullStretch();
  RTDRM_ASSERT(head.remaining.ms() <= kResidualEpsMs);
  const JobId done = head.id;
  queue_.pop_front();
  ++jobs_completed_;
  std::function<void()> on_complete;
  for (auto it = callbacks_.begin(); it != callbacks_.end(); ++it) {
    if (it->first == done) {
      on_complete = std::move(it->second);
      callbacks_.erase(it);
      break;
    }
  }
  on_complete();
  dispatch();
  publish();
}

void Processor::settleRunningStretch() {
  RTDRM_ASSERT(running_ && !queue_.empty());
  const SimDuration elapsed = sim_.now() - stretch_start_;
  busy_accum_ += elapsed;
  // The context-switch charge is consumed first (it models the overhead of
  // *entering* the stretch); only time past it is service.
  const SimDuration cs_consumed = std::min(elapsed, stretch_cs_);
  const SimDuration consumed = elapsed - cs_consumed;
  served_accum_ += consumed;
  overhead_accum_ += cs_consumed;
  queue_.front().remaining -= consumed;
  // Residual dust from floating-point subtraction: clamp within the
  // explicit tolerance so the job completes on its next stretch. Anything
  // larger than kResidualEpsMs negative would mean the stretch served more
  // than the job had — a scheduling bug, not dust.
  if (queue_.front().remaining < SimDuration::zero()) {
    RTDRM_ASSERT_MSG(queue_.front().remaining.ms() >= -Processor::kResidualEpsMs,
                     "stretch served more than the job's remaining demand");
    queue_.front().remaining = SimDuration::zero();
  }
  // Bank the unconsumed context-switch residue for the settled job: if the
  // next dispatch resumes it, continuing is not a new dispatch boundary.
  resume_id_ = queue_.front().id;
  resume_cs_ = stretch_cs_ - cs_consumed;
  if (stretch_real_) {
    sim_.cancel(stretch_event_);
    stretch_real_ = false;
  }
  running_ = false;
}

// ---- background load ------------------------------------------------------

void Processor::attachLoad(Xoshiro256 rng, SimDuration mean_service,
                           bool exponential_service, int priority) {
  RTDRM_ASSERT_MSG(!has_load_, "background load already attached");
  has_load_ = true;
  rng_ = rng;
  load_mean_ms_ = mean_service.ms();
  load_exponential_ = exponential_service;
  load_priority_ = priority;
}

void Processor::detachLoad() {
  has_load_ = false;
  load_target_ = Utilization::zero();
  if (armed_) {
    armed_ = false;
    publish();
  }
}

void Processor::setLoadTarget(Utilization target) {
  RTDRM_ASSERT(has_load_);
  load_target_ = target;
  if (load_target_.value() <= 0.0) {
    if (armed_) {
      armed_ = false;
      publish();
    }
    return;
  }
  if (!armed_) {
    arm();
    publish();
  }
}

void Processor::arm() {
  const double mean_interarrival_ms = load_mean_ms_ / load_target_.value();
  const SimDuration gap =
      SimDuration::millis(rng_.exponentialMean(mean_interarrival_ms));
  armed_ = true;
  arrival_ = sim_.now() + gap;
  arrival_key_ = sim_.takeOrderKey();
}

void Processor::arrive() {
  armed_ = false;
  const double mean = load_mean_ms_;
  const double demand_ms = load_exponential_
                               ? rng_.exponentialMean(mean)
                               : rng_.uniform(0.5 * mean, 1.5 * mean);
  // submit() for a callback-free background job.
  if (!up_) {
    ++jobs_rejected_;
  } else {
    const JobId id{next_job_++};
    admit(id, Job{SimDuration::millis(demand_ms), nullptr, "bg",
                  load_priority_});
  }
  ++injected_;
  if (load_target_.value() > 0.0) {
    arm();
  }
}

// ---- the timeline -------------------------------------------------------------

bool Processor::arrivalFirst() const {
  if (!armed_) {
    return false;
  }
  if (!running_ || stretch_real_) {
    return true;
  }
  return arrival_ < stretch_end_ ||
         (arrival_ == stretch_end_ && arrival_key_ < stretch_key_);
}

void Processor::publish() {
  if (arrivalFirst()) {
    sim_.setTimelineNext(timeline_, arrival_, arrival_key_);
  } else if (running_ && !stretch_real_) {
    sim_.setTimelineNext(timeline_, stretch_end_, stretch_key_);
  } else {
    sim_.clearTimelineNext(timeline_);
  }
}

void Processor::applyInstant() {
  if (arrivalFirst()) {
    arrive();
  } else {
    endStretch();
  }
  publish();
}

// ---- probe ------------------------------------------------------------------

Utilization UtilizationProbe::peek() const {
  const SimDuration window = sim_.now() - last_t_;
  if (window <= SimDuration::zero()) {
    return Utilization::zero();
  }
  const SimDuration busy = cpu_.busyTime() - last_busy_;
  return Utilization::fraction(busy / window);
}

Utilization UtilizationProbe::sample() {
  const Utilization u = peek();
  last_t_ = sim_.now();
  last_busy_ = cpu_.busyTime();
  return u;
}

}  // namespace rtdrm::node
