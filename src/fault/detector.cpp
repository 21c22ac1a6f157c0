#include "fault/detector.hpp"

#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace rtdrm::fault {

namespace {

/// Node mode: one target per cluster node, id == node index, liveness is
/// the cluster's up mask. The home node stays in the list (belief lookups
/// by node index) but is never probed.
std::vector<DetectorTarget> nodeTargets(node::Cluster& cluster) {
  std::vector<DetectorTarget> targets;
  targets.reserve(cluster.size());
  for (std::uint32_t i = 0; i < cluster.size(); ++i) {
    DetectorTarget t;
    t.id = i;
    t.host = ProcessorId{i};
    t.alive = [&cluster, i] { return cluster.isUp(ProcessorId{i}); };
    targets.push_back(std::move(t));
  }
  return targets;
}

}  // namespace

FailureDetector::FailureDetector(sim::Simulator& simulator,
                                 node::Cluster& cluster,
                                 net::NetworkModel& network,
                                 DetectorConfig config, DownFn on_down,
                                 UpFn on_up)
    : FailureDetector(
          simulator, network, config, nodeTargets(cluster),
          [down = std::move(on_down)](std::uint32_t id) {
            down(ProcessorId{id});
          },
          on_up == nullptr
              ? TargetUpFn{}
              : TargetUpFn([up = std::move(on_up)](std::uint32_t id) {
                  up(ProcessorId{id});
                })) {
  RTDRM_ASSERT(config_.home.value < cluster.size());
  node_mode_ = true;
  targets_[config_.home.value].probe = false;
}

FailureDetector::FailureDetector(sim::Simulator& simulator,
                                 net::NetworkModel& network,
                                 DetectorConfig config,
                                 std::vector<DetectorTarget> targets,
                                 TargetDownFn on_down, TargetUpFn on_up)
    : sim_(simulator),
      net_(network),
      config_(config),
      on_down_(std::move(on_down)),
      on_up_(std::move(on_up)),
      ticker_(simulator, config.interval, [this](std::uint64_t) { tick(); }) {
  RTDRM_ASSERT(config_.interval > SimDuration::zero());
  RTDRM_ASSERT(config_.timeout > SimDuration::zero());
  RTDRM_ASSERT(on_down_ != nullptr);
  targets_.reserve(targets.size());
  for (DetectorTarget& t : targets) {
    RTDRM_ASSERT_MSG(t.alive != nullptr,
                     "detector target needs a liveness predicate");
    Target internal;
    internal.id = t.id;
    internal.host = t.host;
    internal.alive = std::move(t.alive);
    targets_.push_back(std::move(internal));
  }
}

void FailureDetector::start(SimTime at) {
  // Every target starts with a fresh grace window; the first staleness
  // check can only trip a full timeout after `at`.
  for (Target& t : targets_) {
    t.last_ack = at;
  }
  ticker_.start(at);
}

void FailureDetector::stop() { ticker_.stop(); }

bool FailureDetector::believesUp(ProcessorId node) const {
  RTDRM_ASSERT_MSG(node_mode_, "believesUp(node) is node-mode only");
  RTDRM_ASSERT(node.value < targets_.size());
  return targets_[node.value].believed_up;
}

std::size_t FailureDetector::slotOf(std::uint32_t id) const {
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i].id == id) {
      return i;
    }
  }
  RTDRM_ASSERT_MSG(false, "unknown detector target id");
  return 0;
}

bool FailureDetector::believesTargetUp(std::uint32_t id) const {
  return targets_[slotOf(id)].believed_up;
}

void FailureDetector::tick() {
  const SimTime now = sim_.now();
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    Target& st = targets_[i];
    if (!st.probe) {
      continue;
    }
    if (st.believed_up && now - st.last_ack > config_.timeout) {
      if (st.retries >= config_.max_retries) {
        st.believed_up = false;
        ++declared_dead_;
        RTDRM_LOG(kDebug) << "detector: target " << st.id
                          << " declared dead (" << st.retries << " retries)";
        on_down_(st.id);
      } else {
        // Suspect: one extra probe, linearly backed off, beyond the
        // regular cadence below.
        ++st.retries;
        ++retries_sent_;
        const SimDuration delay =
            config_.retry_backoff * static_cast<double>(st.retries);
        sim_.scheduleAfter(delay, [this, i] { probe(i); });
      }
    }
    probe(i);
  }
}

void FailureDetector::probe(std::size_t slot) {
  ++heartbeats_sent_;
  const Target& target = targets_[slot];
  net::Message hb;
  hb.src = config_.home;
  hb.dst = target.host;
  hb.payload = config_.heartbeat_bytes;
  hb.tag = "hb";
  // The probe arrives at the target; only a live endpoint acks. Liveness
  // is evaluated at *delivery* time — an endpoint that died while the
  // probe was in flight stays silent, exactly like real hardware.
  hb.on_delivered = [this, slot](const net::MessageReceipt&) {
    const Target& t = targets_[slot];
    if (!t.alive()) {
      return;
    }
    net::Message ack;
    ack.src = t.host;
    ack.dst = config_.home;
    ack.payload = config_.heartbeat_bytes;
    ack.tag = "hb-ack";
    ack.on_delivered = [this, slot](const net::MessageReceipt&) {
      onAck(slot);
    };
    net_.send(std::move(ack));
  };
  net_.send(std::move(hb));
}

void FailureDetector::onAck(std::size_t slot) {
  ++acks_received_;
  Target& st = targets_[slot];
  st.last_ack = sim_.now();
  st.retries = 0;
  if (!st.believed_up) {
    st.believed_up = true;
    ++declared_recovered_;
    RTDRM_LOG(kDebug) << "detector: target " << st.id << " recovered";
    if (on_up_ != nullptr) {
      on_up_(st.id);
    }
  }
}

void FailureDetector::exportMetrics(obs::MetricsRegistry& reg) const {
  const std::string prefix = metricsPrefix();
  reg.counter(prefix + "heartbeats_sent").set(heartbeats_sent_);
  reg.counter(prefix + "acks_received").set(acks_received_);
  reg.counter(prefix + "retries_sent").set(retries_sent_);
  reg.counter(prefix + "declared_dead").set(declared_dead_);
  reg.counter(prefix + "declared_recovered").set(declared_recovered_);
}

}  // namespace rtdrm::fault
