// A simulated processor node with a pluggable CPU scheduler.
//
// Models item 12 of the paper's system model: homogeneous processors with
// private memory, each running a Round-Robin scheduler with a 1 ms time
// slice (Table 1). The scheduling discipline itself is a strategy object
// (node/sched_policy.hpp): FIFO and static priority are provided for
// ablation studies, and the real-time disciplines EDF, RMS and LLF plug in
// for the scheduler x adaptation studies (ROADMAP item 3).
//
// Event efficiency: while only one job is resident the processor runs it in
// a single stretch instead of slicing; an arrival during a stretch truncates
// it and falls back to quantum-granular scheduling, so observable behaviour
// is identical to naive per-quantum simulation.
//
// Node trains: the processor holds its own timeline. Its background
// arrivals (node/background_load.hpp), quantum ends and the completions of
// callback-free jobs are instants of that timeline, not events: the
// processor keeps the next one as local state, keyed where the evented
// model would have scheduled it (Simulator::takeOrderKey), and every run
// loop of the kernel applies it in its turn among the calendar's events
// (Simulator::Timeline). A node between two touches therefore runs as one
// train of instants, with no closure, heap entry or cancel per instant,
// bit for bit as when each instant was an event. Only the completion of a
// job with an on_complete, the one node instant anything outside the node
// observes, is a real event, scheduled when its stretch is dispatched.
// See docs/architecture.md, "Node trains".
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "node/job.hpp"
#include "node/sched_policy.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::node {

struct ProcessorConfig {
  SchedPolicy policy = SchedPolicy::kRoundRobin;
  /// Time slice of the quantum-granular policies (RR always; LLF under
  /// contention); Table 1 baseline is 1 ms.
  SimDuration quantum = SimDuration::millis(1.0);
  /// Fixed context-switch overhead charged at each dispatch boundary.
  /// Wall time, NOT scaled by `speed` or the throttle factor (bus
  /// arbitration and cache refill do not speed up with the core clock).
  SimDuration context_switch = SimDuration::zero();
  /// Relative speed: a job of demand d occupies d / speed of wall time.
  /// 1.0 everywhere = the paper's homogeneous-processor assumption
  /// (model item 12); other values are an extension for heterogeneity
  /// studies.
  double speed = 1.0;

  /// Aborts (RTDRM_ASSERT style, mirroring fault::FaultPlan::validate)
  /// on a non-positive quantum, negative context switch, or non-positive
  /// speed. Called by the Processor constructor and by scenario/CLI
  /// builders before wiring a cluster.
  void validate() const;
};

class Processor final : private sim::Simulator::Timeline {
 public:
  /// Residual tolerance: a job whose remaining service is within this of
  /// zero is complete. Bounds the floating-point dust of repeated quantum
  /// subtraction; equivalently, at most this much of a job's submitted
  /// demand may go unserved (the property tests pin that budget down).
  static constexpr double kResidualEpsMs = 1e-9;

  Processor(sim::Simulator& simulator, ProcessorId id,
            ProcessorConfig config = {});
  ~Processor();
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  ProcessorId id() const { return id_; }
  const ProcessorConfig& config() const { return config_; }

  /// Submit a job for execution. Returns its id immediately; the job's
  /// on_complete fires when its full demand has been served. A down node
  /// drops the job (counted in jobsRejected()) and returns kNoJob — its
  /// on_complete never fires, exactly like a crash between submit and
  /// completion.
  JobId submit(Job job);

  /// Reserves a job id for a submit that will be *posted* to this
  /// processor's shard (sharded engine: the submitter needs the id for its
  /// abort bookkeeping before the submit event executes). Thread-safe; the
  /// returned ids live in a separate high-bit id space so they can never
  /// collide with locally issued ones.
  JobId reserveJobId() {
    return JobId{kReservedBit |
                 reserved_ids_.fetch_add(1, std::memory_order_relaxed)};
  }
  /// Submits under a previously reserved id. Must execute on the owning
  /// shard (it is the body of the posted submit event). A down node drops
  /// the job exactly like submit().
  void submitReserved(JobId id, Job job);

  /// Abort a queued or running job (its on_complete never fires).
  /// Returns false if the job is unknown or already finished.
  bool abort(JobId id);

  /// Crash (`up = false`) or restart (`up = true`) the node. A crash
  /// silently aborts every resident job — in-flight completions are lost,
  /// no on_complete callbacks fire — and freezes busyTime(). A restart
  /// brings the node back empty; state held in its private memory is gone.
  void setUp(bool up);
  bool isUp() const { return up_; }

  /// Transient CPU throttling: effective speed is config().speed * factor.
  /// Rescales the remaining wall time of resident jobs (their outstanding
  /// demand is served at the new rate from now on); the fixed
  /// context-switch component of an in-flight stretch is NOT rescaled —
  /// its unconsumed part carries over to the resumed stretch unchanged.
  /// Factor must be > 0.
  void setSpeedFactor(double factor);
  double speedFactor() const { return speed_factor_; }

  /// Number of jobs resident (queued + running).
  std::size_t residentJobs() const { return queue_.size(); }
  bool busy() const { return running_; }

  /// Cumulative CPU busy time since construction (monotone). Utilization
  /// over a window is the caller's delta(busy) / delta(now) — see
  /// UtilizationProbe.
  ///
  /// Accounting invariant (audited, no double-count): busy_accum_ advances
  /// ONLY when a stretch terminates — chargeFullStretch adds the full
  /// stretch length at its end, settleRunningStretch adds the elapsed
  /// span — and every termination path clears running_.
  /// While a stretch is in flight this adds the elapsed span exactly once
  /// on top of an accumulator that does not yet include any of it. At all
  /// times
  ///   busyTime() == demandServed() + schedOverhead() + in-flight span,
  /// the conservation law the check/ oracle sweeps (policy-agnostic: no
  /// scheduling discipline can create or destroy CPU time).
  SimDuration busyTime() const;

  /// Cumulative pure service time charged to jobs (updated at stretch
  /// boundaries; excludes context-switch overhead and any in-flight span).
  SimDuration demandServed() const { return served_accum_; }
  /// Cumulative context-switch overhead charged (same update points).
  SimDuration schedOverhead() const { return overhead_accum_; }

  std::uint64_t jobsCompleted() const { return jobs_completed_; }
  std::uint64_t jobsAborted() const { return jobs_aborted_; }
  /// Jobs dropped because they were submitted while the node was down
  /// (background arrivals included).
  std::uint64_t jobsRejected() const { return jobs_rejected_; }

 private:
  friend class BackgroundLoad;

  static constexpr std::uint64_t kReservedBit = std::uint64_t{1} << 63;

  /// Queues an admitted job under `id` (common tail of submit,
  /// submitReserved and background arrivals; pre: node is up).
  void admit(JobId id, Job job);
  /// Starts serving the policy's pick if idle and work is pending.
  void dispatch();
  /// Accounts CPU time consumed by the in-flight stretch up to now. The
  /// unconsumed part of the stretch's context-switch charge is banked as a
  /// resume credit: if the very same job is dispatched next it only owes
  /// the residue (continuing is not a new dispatch boundary); any other
  /// pick pays the full charge.
  void settleRunningStretch();
  /// End of a stretch whose end is an instant (quantum or completion of a
  /// callback-free job).
  void endStretch();
  /// A background arrival: its job, then the next arrival.
  void arrive();
  /// Draws the gap to the next background arrival.
  void arm();
  /// Charges the whole current stretch (it ran to its end) and returns the
  /// service it gave the head.
  SimDuration chargeFullStretch();
  SchedContext schedContext() const;
  bool hasCallback(JobId id) const;
  /// The pending arrival comes before the stretch end, if that is an
  /// instant, in (time, key) order.
  bool arrivalFirst() const;
  /// Publishes the next instant (the arrival or the stretch end) to the
  /// kernel, or clears it.
  void publish();

  // sim::Simulator::Timeline
  void applyInstant() override;
  /// The real end event of a stretch that completes a job with an
  /// on_complete.
  void onCompletion();

  // ---- background load (BackgroundLoad is a view onto these) -------------
  void attachLoad(Xoshiro256 rng, SimDuration mean_service,
                  bool exponential_service, int priority);
  void detachLoad();
  void setLoadTarget(Utilization target);
  Utilization loadTarget() const { return load_target_; }
  std::uint64_t loadInjected() const { return injected_; }

  sim::Simulator& sim_;
  ProcessorId id_;
  ProcessorConfig config_;
  std::unique_ptr<SchedulerPolicy> policy_;
  bool up_ = true;
  double speed_factor_ = 1.0;

  std::deque<Resident> queue_;
  bool running_ = false;
  SimTime stretch_start_ = SimTime::zero();
  SimDuration stretch_len_ = SimDuration::zero();
  /// Context-switch charge included in stretch_len_ (may be less than
  /// config_.context_switch when resuming a settled stretch).
  SimDuration stretch_cs_ = SimDuration::zero();
  /// stretch_start_ + stretch_len_: where the stretch ends.
  SimTime stretch_end_ = SimTime::zero();
  /// The stretch completes a job with an on_complete: its end is the real
  /// event stretch_event_; otherwise it is an instant keyed stretch_key_.
  bool stretch_real_ = false;
  std::uint64_t stretch_key_ = 0;
  sim::EventId stretch_event_{};
  /// Resume credit from the last settle: the job it belongs to and the
  /// context-switch residue it still owes.
  JobId resume_id_ = kNoJob;
  SimDuration resume_cs_ = SimDuration::zero();
  /// Callbacks of resident jobs, by job id.
  std::vector<std::pair<JobId, std::function<void()>>> callbacks_;
  sim::Simulator::TimelineId timeline_;

  SimDuration busy_accum_ = SimDuration::zero();
  SimDuration served_accum_ = SimDuration::zero();
  SimDuration overhead_accum_ = SimDuration::zero();
  std::uint64_t next_job_ = 1;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_aborted_ = 0;
  std::uint64_t jobs_rejected_ = 0;

  /// Background load: the next arrival (an instant keyed arrival_key_),
  /// its generator and its parameters.
  bool has_load_ = false;
  bool armed_ = false;
  SimTime arrival_ = SimTime::zero();
  std::uint64_t arrival_key_ = 0;
  Xoshiro256 rng_{0};
  std::uint64_t injected_ = 0;
  Utilization load_target_ = Utilization::zero();
  double load_mean_ms_ = 0.0;
  bool load_exponential_ = true;
  int load_priority_ = 0;

  std::atomic<std::uint64_t> reserved_ids_{1};
};

/// Measures a processor's utilization over successive sampling intervals.
class UtilizationProbe {
 public:
  UtilizationProbe(const sim::Simulator& simulator, const Processor& cpu)
      : sim_(simulator),
        cpu_(cpu),
        last_t_(simulator.now()),
        last_busy_(cpu.busyTime()) {}

  /// Utilization since the previous sample() (or construction), then resets
  /// the window. Returns zero for an empty window.
  Utilization sample();

  /// Utilization since the previous sample() without resetting.
  Utilization peek() const;

 private:
  const sim::Simulator& sim_;
  const Processor& cpu_;
  SimTime last_t_;
  SimDuration last_busy_;
};

}  // namespace rtdrm::node
