#include "workload/generators.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"

namespace rtdrm::workload {

namespace {

constexpr std::uint64_t kGold = 0x9e3779b97f4a7c15ULL;

/// Keyed generator: a pure function of (seed, a, b, salt). Every consumer
/// uses a distinct salt so streams never collide across generator kinds.
Xoshiro256 keyedRng(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                    std::uint64_t salt) {
  SplitMix64 sm(seed ^ (a * kGold + salt));
  return Xoshiro256(sm.next() ^ (b * kGold));
}

}  // namespace

const char* workloadMixName(WorkloadMix mix) {
  switch (mix) {
    case WorkloadMix::kPaper:
      return "paper";
    case WorkloadMix::kPareto:
      return "pareto";
    case WorkloadMix::kSurge:
      return "surge";
    case WorkloadMix::kMulti:
      return "multi";
  }
  return "?";
}

bool parseWorkloadMix(const std::string& s, WorkloadMix* out) {
  if (s == "paper") {
    *out = WorkloadMix::kPaper;
    return true;
  }
  if (s == "pareto") {
    *out = WorkloadMix::kPareto;
    return true;
  }
  if (s == "surge") {
    *out = WorkloadMix::kSurge;
    return true;
  }
  if (s == "multi") {
    *out = WorkloadMix::kMulti;
    return true;
  }
  return false;
}

DataSize ParetoArrivals::at(std::uint64_t period) const {
  RTDRM_ASSERT(p_.tail_index > 0.0);
  Xoshiro256 rng = keyedRng(seed_, period, 0, 2);
  // Inverse-transform Lomax: U in (0, 1], excess = scale * (U^(-1/a) - 1).
  const double u = 1.0 - rng.uniform01();
  const double excess =
      p_.scale.count() * (std::pow(u, -1.0 / p_.tail_index) - 1.0);
  return DataSize::tracks(
      std::min(p_.cap.count(), p_.floor.count() + excess));
}

CorrelatedSurge::CorrelatedSurge(SurgeParams p, std::size_t sensor_count,
                                 std::uint64_t seed)
    : p_(p), sensors_(sensor_count), seed_(seed) {
  RTDRM_ASSERT(sensors_ > 0);
  RTDRM_ASSERT(p_.start_probability >= 0.0 && p_.start_probability <= 1.0);
  RTDRM_ASSERT(p_.join_probability >= 0.0 && p_.join_probability <= 1.0);
  RTDRM_ASSERT(p_.decay > 0.0 && p_.decay <= 1.0);
  RTDRM_ASSERT(p_.window >= 1);
}

bool CorrelatedSurge::surgeStarts(std::uint64_t period) const {
  Xoshiro256 rng = keyedRng(seed_, period, 0, 11);
  return rng.uniform01() < p_.start_probability;
}

bool CorrelatedSurge::sensorJoins(std::size_t sensor,
                                  std::uint64_t start) const {
  Xoshiro256 rng = keyedRng(seed_, start, sensor, 13);
  return rng.uniform01() < p_.join_probability;
}

DataSize CorrelatedSurge::sensorAt(std::size_t sensor,
                                   std::uint64_t period) const {
  RTDRM_ASSERT(sensor < sensors_);
  double level = p_.baseline.count();
  double weight = 1.0;  // decay^(period - start)
  for (std::uint64_t back = 0; back < p_.window && back <= period; ++back) {
    const std::uint64_t start = period - back;
    if (surgeStarts(start) && sensorJoins(sensor, start)) {
      level += p_.amplitude.count() * weight;
    }
    weight *= p_.decay;
  }
  return DataSize::tracks(level);
}

namespace {
class SensorView final : public Pattern {
 public:
  SensorView(const CorrelatedSurge& gen, std::size_t sensor)
      : gen_(gen), sensor_(sensor) {}
  DataSize at(std::uint64_t period) const override {
    return gen_.sensorAt(sensor_, period);
  }
  std::string name() const override {
    return "surge#" + std::to_string(sensor_);
  }

 private:
  const CorrelatedSurge& gen_;
  std::size_t sensor_;
};

class FusedView final : public Pattern {
 public:
  explicit FusedView(const CorrelatedSurge& gen) : gen_(gen) {}
  DataSize at(std::uint64_t period) const override {
    double total = 0.0;
    for (std::size_t j = 0; j < gen_.sensorCount(); ++j) {
      total += gen_.sensorAt(j, period).count();
    }
    return DataSize::tracks(total);
  }
  std::string name() const override { return "surge-fused"; }

 private:
  const CorrelatedSurge& gen_;
};
}  // namespace

std::unique_ptr<Pattern> CorrelatedSurge::sensorPattern(
    std::size_t sensor) const {
  RTDRM_ASSERT(sensor < sensors_);
  return std::make_unique<SensorView>(*this, sensor);
}

std::unique_ptr<Pattern> CorrelatedSurge::fusedPattern() const {
  return std::make_unique<FusedView>(*this);
}

ContenderTraffic::ContenderTraffic(sim::Simulator& simulator,
                                   net::NetworkModel& net,
                                   std::size_t node_count,
                                   ContenderConfig config)
    : sim_(simulator),
      net_(net),
      node_count_(node_count),
      config_(std::move(config)) {
  RTDRM_ASSERT(node_count_ > 0);
  RTDRM_ASSERT(config_.period > SimDuration::zero());
  RTDRM_ASSERT(config_.payload >= Bytes::zero());
}

void ContenderTraffic::start() {
  RTDRM_ASSERT_MSG(!started_, "contender traffic already started");
  started_ = true;
  for (std::size_t f = 0; f < config_.flows; ++f) {
    // Stagger flow phases across one period so the contenders don't all
    // slam the fabric at the same instant.
    const SimDuration phase = SimDuration::millis(
        config_.period.ms() *
        (1.0 + static_cast<double>(f) /
                   static_cast<double>(std::max<std::size_t>(
                       config_.flows, 1))));
    sim_.scheduleAfter(phase, [this, f] { post(f, 0); });
  }
}

void ContenderTraffic::post(std::size_t flow, std::uint64_t tick) {
  // Fixed per-flow endpoints; per-post payload jitter keyed on the tick.
  Xoshiro256 ep = keyedRng(config_.seed, flow, 0, 17);
  const std::size_t src =
      static_cast<std::size_t>(ep.uniformInt(
          0, static_cast<std::int64_t>(node_count_) - 1));
  const std::size_t dst =
      node_count_ > 1
          ? (src + 1 +
             static_cast<std::size_t>(ep.uniformInt(
                 0, static_cast<std::int64_t>(node_count_) - 2))) %
                node_count_
          : src;
  Xoshiro256 jitter = keyedRng(config_.seed, flow, tick, 19);
  const double factor = config_.jitter_sigma > 0.0
                            ? jitter.lognormalUnitMean(config_.jitter_sigma)
                            : 1.0;
  net::Message m;
  m.src = ProcessorId{static_cast<std::uint32_t>(src)};
  m.dst = ProcessorId{static_cast<std::uint32_t>(dst)};
  m.payload = Bytes::of(std::max(0.0, config_.payload.count() * factor));
  m.tag = "contender";
  net_.send(std::move(m));
  ++posted_;
  sim_.scheduleAfter(config_.period,
                     [this, flow, tick] { post(flow, tick + 1); });
}

}  // namespace rtdrm::workload
