#include "node/background_load.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace rtdrm::node {

BackgroundLoad::BackgroundLoad(sim::Simulator& simulator, Processor& cpu,
                               Xoshiro256 rng, BackgroundLoadConfig config)
    : cpu_(cpu) {
  RTDRM_ASSERT(config.mean_service > SimDuration::zero());
  RTDRM_ASSERT(&simulator == &cpu.sim_);
  cpu_.attachLoad(rng, config.mean_service, config.exponential_service,
                  config.priority);
}

BackgroundLoad::~BackgroundLoad() { cpu_.detachLoad(); }

void BackgroundLoad::setTarget(Utilization target) {
  cpu_.setLoadTarget(Utilization::fraction(std::min(target.value(), 0.95)));
}

}  // namespace rtdrm::node
