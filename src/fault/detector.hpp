// Heartbeat-based failure detection over the shared network substrate.
//
// A management ("home") node probes every monitored endpoint each interval
// with a small heartbeat message; an endpoint that is alive when the probe
// arrives replies with an ack. The detector's belief about an endpoint
// goes stale when no ack has arrived within `timeout`; it then re-probes
// up to `max_retries` times with linear backoff before declaring the
// endpoint dead and firing the down callback. Probing continues after the
// declaration, so a restarted endpoint is noticed by its next ack and the
// up callback fires.
//
// Endpoints are generalized targets, not just nodes: a target is an
// opaque id plus the processor its heartbeat traffic terminates on and a
// liveness predicate evaluated at probe-delivery time. The classic
// node-monitoring constructor (home probes every other cluster node,
// liveness = Cluster::isUp) builds its targets from the cluster and keeps
// the exact legacy message schedule; the target-list constructor lets the
// same timeout/retry/backoff machinery monitor manager endpoints hosted
// on nodes without duplicating any of it.
//
// Everything is message-driven and draw-free: detection latency emerges
// from real heartbeat traffic on the shared wire (and is itself perturbed
// by frame loss), and a run with no faults produces the same heartbeat
// schedule every time. Worst-case detection latency with a quiet wire is
// about timeout + max_retries * backoff + one interval.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network_model.hpp"
#include "node/cluster.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::fault {

struct DetectorConfig {
  /// The node issuing heartbeats (the management node; never itself a
  /// probe target in node mode).
  ProcessorId home{0};
  /// Probe cadence.
  SimDuration interval = SimDuration::millis(100.0);
  /// Ack staleness after which a target becomes suspect.
  SimDuration timeout = SimDuration::millis(250.0);
  /// Extra probes sent to a suspect before declaring it dead.
  std::size_t max_retries = 2;
  /// Backoff between retry probes: retry k waits k * retry_backoff.
  SimDuration retry_backoff = SimDuration::millis(25.0);
  /// Heartbeat/ack payload (real traffic on the shared wire).
  Bytes heartbeat_bytes = Bytes::of(64.0);
};

/// A monitorable endpoint: `id` is the caller's identity (node index,
/// manager index, ...), `host` is where its heartbeat traffic terminates
/// on the wire, and `alive` is ground truth sampled when a probe arrives.
struct DetectorTarget {
  std::uint32_t id = 0;
  ProcessorId host{0};
  std::function<bool()> alive;
};

class FailureDetector {
 public:
  using DownFn = std::function<void(ProcessorId)>;
  using UpFn = std::function<void(ProcessorId)>;
  /// Target-mode callbacks receive the caller-assigned target id.
  using TargetDownFn = std::function<void(std::uint32_t)>;
  using TargetUpFn = std::function<void(std::uint32_t)>;

  /// Node mode: probe every cluster node except `config.home`, liveness
  /// from Cluster::isUp. Byte-identical to the pre-generalization wire
  /// schedule.
  FailureDetector(sim::Simulator& simulator, node::Cluster& cluster,
                  net::NetworkModel& network, DetectorConfig config,
                  DownFn on_down, UpFn on_up = {});

  /// Target mode: probe an explicit endpoint list with the same
  /// timeout/retry/backoff machinery.
  FailureDetector(sim::Simulator& simulator, net::NetworkModel& network,
                  DetectorConfig config, std::vector<DetectorTarget> targets,
                  TargetDownFn on_down, TargetUpFn on_up = {});

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// First probe round at `at`, then every interval.
  void start(SimTime at);
  void stop();

  /// The detector's current belief about the node-mode target hosted on
  /// `node` (not ground truth: it lags a real crash by the detection
  /// latency). Node mode only.
  bool believesUp(ProcessorId node) const;

  /// Belief about target `id` (target mode; also works in node mode where
  /// ids are node indices).
  bool believesTargetUp(std::uint32_t id) const;

  std::size_t targetCount() const { return targets_.size(); }
  const DetectorConfig& config() const { return config_; }
  std::uint64_t heartbeatsSent() const { return heartbeats_sent_; }
  std::uint64_t acksReceived() const { return acks_received_; }
  std::uint64_t retriesSent() const { return retries_sent_; }
  std::uint64_t declaredDead() const { return declared_dead_; }
  std::uint64_t declaredRecovered() const { return declared_recovered_; }

  /// Prefix of the exported counter names: "fault." in node mode,
  /// "fault.target." in target mode, so a run with both detectors keeps
  /// both sets.
  const char* metricsPrefix() const {
    return node_mode_ ? "fault." : "fault.target.";
  }
  /// Publishes detector counters into `reg` under metricsPrefix() names.
  void exportMetrics(obs::MetricsRegistry& reg) const;

 private:
  struct Target {
    std::uint32_t id = 0;
    ProcessorId host{0};
    std::function<bool()> alive;
    /// Node mode keeps the home node in the list (so believesUp stays an
    /// index lookup) but never probes it.
    bool probe = true;
    SimTime last_ack = SimTime::zero();
    std::size_t retries = 0;
    bool believed_up = true;
  };

  void tick();
  void probe(std::size_t slot);
  void onAck(std::size_t slot);
  std::size_t slotOf(std::uint32_t id) const;

  sim::Simulator& sim_;
  net::NetworkModel& net_;
  DetectorConfig config_;
  TargetDownFn on_down_;
  TargetUpFn on_up_;
  std::vector<Target> targets_;
  bool node_mode_ = false;
  sim::PeriodicActivity ticker_;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t retries_sent_ = 0;
  std::uint64_t declared_dead_ = 0;
  std::uint64_t declared_recovered_ = 0;
};

}  // namespace rtdrm::fault
