// Open-loop background CPU load generator.
//
// The paper profiles subtask latency "at a set of internal resource
// utilizations" — on the real testbed other programs provide that load; in
// the simulator this generator injects Poisson job arrivals whose offered
// load equals a target utilization. Under round-robin sharing the measured
// subtask then experiences realistic latency inflation (≈ 1/(1-u) in the
// processor-sharing limit), which is what regression eq. (3) fits.
//
// The arrivals are instants of the processor's own timeline, not events
// (node/processor.hpp, "Node trains"): the processor holds the next
// arrival and this generator's Xoshiro256, and draws gap, demand, gap, ...
// in the order the evented generator did (at an arrival: its demand, the
// admit, then the next gap). Only setTarget() changes the next gap's mean.
// This class is the load's handle on the processor it feeds.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "node/processor.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::node {

struct BackgroundLoadConfig {
  /// Mean service demand of one background job.
  SimDuration mean_service = SimDuration::millis(4.0);
  /// Job demand distribution: exponential when true, else uniform in
  /// [0.5, 1.5] x mean.
  bool exponential_service = true;
  /// Scheduling priority of background jobs (kPriority nodes only; higher
  /// value = runs after more important work).
  int priority = 0;
};

class BackgroundLoad {
 public:
  /// Attaches the load to `cpu` (at most one per processor; it must
  /// outlive this handle). `simulator` is the processor's.
  BackgroundLoad(sim::Simulator& simulator, Processor& cpu, Xoshiro256 rng,
                 BackgroundLoadConfig config = {});
  ~BackgroundLoad();
  BackgroundLoad(const BackgroundLoad&) = delete;
  BackgroundLoad& operator=(const BackgroundLoad&) = delete;

  /// Sets the offered load. Zero (the default) stops arrivals. Takes effect
  /// from the next inter-arrival draw. Values are clamped to [0, 0.95] —
  /// open-loop load at >= 1 would grow the queue without bound.
  void setTarget(Utilization target);
  Utilization target() const { return cpu_.loadTarget(); }

  std::uint64_t jobsInjected() const { return cpu_.loadInjected(); }

 private:
  Processor& cpu_;
};

}  // namespace rtdrm::node
