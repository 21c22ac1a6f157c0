#include "node/cluster.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace rtdrm::node {

Cluster::Cluster(sim::Simulator& simulator, std::size_t node_count,
                 ProcessorConfig cpu_config,
                 const std::vector<double>& speeds)
    : sim_(simulator) {
  buildNodes(node_count, cpu_config, speeds);
}

Cluster::Cluster(sim::ShardedEngine& engine, std::size_t node_count,
                 ProcessorConfig cpu_config,
                 const std::vector<double>& speeds)
    : sim_(engine.control()) {
  const std::size_t shards = engine.shardCount();
  if (shards > 1) {
    engine_ = &engine;
    shard_of_.resize(node_count);
    // Contiguous blocks over the data shards 1..K-1; shard 0 keeps the
    // control plane (Ethernet, clocks, managers). Blocks, not striding,
    // so a shard's processors share cache locality.
    const std::size_t data_shards = shards - 1;
    for (std::size_t i = 0; i < node_count; ++i) {
      shard_of_[i] =
          static_cast<std::uint32_t>(1 + (i * data_shards) / node_count);
    }
    up_state_.assign(node_count, 1);
    busy_snapshot_.assign(node_count, SimDuration::zero());
    sampled_busy_.assign(node_count, SimDuration::zero());
    part_sample_t_.assign(node_count, SimTime::zero());
    engine.addBarrierHook([this] { refreshBusySnapshot(); });
  }
  buildNodes(node_count, cpu_config, speeds);
}

void Cluster::buildNodes(std::size_t node_count,
                         const ProcessorConfig& cpu_config,
                         const std::vector<double>& speeds) {
  RTDRM_ASSERT(node_count > 0);
  RTDRM_ASSERT_MSG(speeds.empty() || speeds.size() == node_count,
                   "speeds must be empty or one per node");
  cpus_.reserve(node_count);
  probes_.reserve(node_count);
  ids_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    ProcessorConfig cfg = cpu_config;
    if (!speeds.empty()) {
      cfg.speed = speeds[i];
    }
    cpus_.push_back(std::make_unique<Processor>(
        simOf(i), ProcessorId{static_cast<std::uint32_t>(i)}, cfg));
    probes_.emplace_back(simOf(i), *cpus_.back());
    ids_.push_back(ProcessorId{static_cast<std::uint32_t>(i)});
  }
  last_sample_.assign(node_count, Utilization::zero());
  exclude_bits_.assign((node_count + 63) / 64, 0);
}

Processor& Cluster::processor(ProcessorId id) {
  RTDRM_ASSERT(id.value < cpus_.size());
  return *cpus_[id.value];
}

const Processor& Cluster::processor(ProcessorId id) const {
  RTDRM_ASSERT(id.value < cpus_.size());
  return *cpus_[id.value];
}

void Cluster::attachBackgroundLoad(const RngStreams& streams,
                                   BackgroundLoadConfig config) {
  RTDRM_ASSERT_MSG(bg_.empty(), "background load already attached");
  bg_.reserve(cpus_.size());
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    bg_.push_back(std::make_unique<BackgroundLoad>(
        simOf(i), *cpus_[i], streams.get("bg-load", i), config));
  }
}

BackgroundLoad& Cluster::backgroundLoad(ProcessorId id) {
  RTDRM_ASSERT(hasBackgroundLoad() && id.value < bg_.size());
  return *bg_[id.value];
}

void Cluster::setNodeUp(ProcessorId id, bool up) {
  RTDRM_ASSERT(id.value < cpus_.size());
  if (nodeUp(id.value) == up) {
    return;
  }
  if (engine_) {
    // Record the membership change here (the control plane's view flips
    // immediately and deterministically), and post the processor-side
    // transition — crash aborts of resident jobs, busy-time freeze — to
    // the owning shard; it lands within one barrier window.
    up_state_[id.value] = up ? 1 : 0;
    Processor* cpu = cpus_[id.value].get();
    engine_->post(0, shard_of_[id.value], engine_->postHorizon(0),
                  [cpu, up] { cpu->setUp(up); });
  } else {
    cpus_[id.value]->setUp(up);
  }
  // The membership of the index changed mid-sample: invalidate it (and any
  // outstanding cursors, via their generation guard).
  ++sample_generation_;
}

void Cluster::applySpeedFactor(ProcessorId id, double factor) {
  RTDRM_ASSERT(id.value < cpus_.size());
  if (engine_) {
    Processor* cpu = cpus_[id.value].get();
    engine_->post(0, shard_of_[id.value], engine_->postHorizon(0),
                  [cpu, factor] { cpu->setSpeedFactor(factor); });
    return;
  }
  cpus_[id.value]->setSpeedFactor(factor);
}

void Cluster::setBackgroundTarget(ProcessorId id, Utilization target) {
  RTDRM_ASSERT(hasBackgroundLoad() && id.value < bg_.size());
  if (engine_) {
    BackgroundLoad* bg = bg_[id.value].get();
    engine_->post(0, shard_of_[id.value], engine_->postHorizon(0),
                  [bg, target] { bg->setTarget(target); });
    return;
  }
  bg_[id.value]->setTarget(target);
}

std::size_t Cluster::upCount() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    n += nodeUp(i) ? 1 : 0;
  }
  return n;
}

void Cluster::refreshBusySnapshot() {
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    busy_snapshot_[i] = cpus_[i]->busyTime();
  }
}

const std::vector<Utilization>& Cluster::sampleUtilization() {
  if (engine_) {
    // Probe against the barrier-coherent snapshot instead of live
    // cross-shard busyTime() reads: every value is from the same barrier
    // (< lookahead stale), identical for every worker-thread count.
    const SimTime now = sim_.now();
    const SimDuration window = now - last_sample_t_;
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      last_sample_[i] =
          window > SimDuration::zero()
              ? Utilization::fraction((busy_snapshot_[i] - sampled_busy_[i]) /
                                      window)
              : Utilization::zero();
      sampled_busy_[i] = busy_snapshot_[i];
    }
    last_sample_t_ = now;
  } else {
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      last_sample_[i] = probes_[i].sample();
    }
  }
  // Invalidate, don't rebuild: periods with no management action never pay
  // for the index, and one rebuild serves every query until the next
  // sample.
  ++sample_generation_;
  ++samples_taken_;
  return last_sample_;
}

void Cluster::samplePartitionInto(std::size_t lo, std::size_t hi,
                                  std::vector<Utilization>& out) {
  RTDRM_ASSERT(lo < hi && hi <= cpus_.size());
  out.resize(hi - lo);
  if (engine_) {
    // Per-node windows (not the global last_sample_t_): partitions sample
    // on their own cadence and must not shear each other's windows.
    const SimTime now = sim_.now();
    for (std::size_t i = lo; i < hi; ++i) {
      const SimDuration window = now - part_sample_t_[i];
      out[i - lo] =
          window > SimDuration::zero()
              ? Utilization::fraction((busy_snapshot_[i] - sampled_busy_[i]) /
                                      window)
              : Utilization::zero();
      sampled_busy_[i] = busy_snapshot_[i];
      part_sample_t_[i] = now;
    }
  } else {
    for (std::size_t i = lo; i < hi; ++i) {
      out[i - lo] = probes_[i].sample();
    }
  }
  ++samples_taken_;
}

void Cluster::applyGossipSample(ProcessorId id, Utilization u) {
  RTDRM_ASSERT(id.value < last_sample_.size());
  last_sample_[id.value] = u;
  ++sample_generation_;
}

Utilization Cluster::lastUtilization(ProcessorId id) const {
  RTDRM_ASSERT(id.value < last_sample_.size());
  return last_sample_[id.value];
}

Utilization Cluster::meanUtilization() const {
  // Down nodes are out of the capacity pool; the mean is over survivors.
  double sum = 0.0;
  std::size_t up = 0;
  for (std::size_t i = 0; i < last_sample_.size(); ++i) {
    if (!nodeUp(i)) {
      continue;
    }
    sum += last_sample_[i].value();
    ++up;
  }
  if (up == 0) {
    return Utilization::zero();
  }
  return Utilization::fraction(sum / static_cast<double>(up));
}

void Cluster::rebuildIndex() const {
  // Down nodes are masked out entirely: the heap only ever holds
  // placeable capacity, so every query path inherits the masking.
  util_heap_.clear();
  for (std::size_t i = 0; i < last_sample_.size(); ++i) {
    if (!nodeUp(i)) {
      continue;
    }
    util_heap_.push_back(
        {last_sample_[i].value(), static_cast<std::uint32_t>(i)});
  }
  const std::size_t n = util_heap_.size();
  // Bottom-up 4-ary heapify: sift down every internal node.
  if (n > 1) {
    for (std::size_t root = (n - 2) / 4 + 1; root-- > 0;) {
      std::size_t hole = root;
      const UtilEntry moved = util_heap_[hole];
      while (true) {
        const std::size_t first_child = 4 * hole + 1;
        if (first_child >= n) {
          break;
        }
        std::size_t best = first_child;
        const std::size_t last_child = std::min(first_child + 4, n);
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
          if (keyLess(util_heap_[c], util_heap_[best])) {
            best = c;
          }
        }
        if (!keyLess(util_heap_[best], moved)) {
          break;
        }
        util_heap_[hole] = util_heap_[best];
        hole = best;
      }
      util_heap_[hole] = moved;
    }
  }
  index_generation_ = sample_generation_;
  ++index_rebuilds_;
}

std::optional<ProcessorId> Cluster::leastUtilized(
    const std::vector<ProcessorId>& exclude) const {
  if (index_generation_ != sample_generation_) {
    rebuildIndex();
  }
  std::fill(exclude_bits_.begin(), exclude_bits_.end(), 0);
  for (const ProcessorId p : exclude) {
    if (p.value < cpus_.size()) {  // out-of-range ids can never match
      exclude_bits_[p.value >> 6] |= std::uint64_t{1} << (p.value & 63);
    }
  }

  // Best-first descent: the frontier holds roots of unexplored subtrees,
  // ordered by key. Every unexplored entry lies below some frontier root
  // and so has a key >= its root's; hence the first non-excluded entry
  // popped is the global minimum over all non-excluded nodes. Each
  // excluded pop expands at most 4 children, so the work is proportional
  // to the excluded entries actually in the way, not to the cluster size.
  const auto greater = [this](std::uint32_t a, std::uint32_t b) {
    return keyLess(util_heap_[b], util_heap_[a]);
  };
  frontier_.clear();
  const std::size_t n = util_heap_.size();
  if (n == 0) {  // every node down: nothing placeable
    return std::nullopt;
  }
  frontier_.push_back(0);
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), greater);
    const std::uint32_t i = frontier_.back();
    frontier_.pop_back();
    const UtilEntry& e = util_heap_[i];
    if ((exclude_bits_[e.id >> 6] >> (e.id & 63) & 1u) == 0) {
      return ProcessorId{e.id};
    }
    const std::size_t first_child = 4 * static_cast<std::size_t>(i) + 1;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child; c < last_child; ++c) {
      frontier_.push_back(static_cast<std::uint32_t>(c));
      std::push_heap(frontier_.begin(), frontier_.end(), greater);
    }
  }
  return std::nullopt;
}

Cluster::UtilizationCursor::UtilizationCursor(
    const Cluster& cluster, const std::vector<ProcessorId>& exclude)
    : cluster_(&cluster) {
  if (cluster.index_generation_ != cluster.sample_generation_) {
    cluster.rebuildIndex();
  }
  generation_ = cluster.sample_generation_;
  exclude_bits_.assign(cluster.exclude_bits_.size(), 0);
  for (const ProcessorId p : exclude) {
    if (p.value < cluster.cpus_.size()) {  // out-of-range ids never match
      exclude_bits_[p.value >> 6] |= std::uint64_t{1} << (p.value & 63);
    }
  }
  if (!cluster.util_heap_.empty()) {
    frontier_.push_back(0);
  }
}

std::optional<ProcessorId> Cluster::UtilizationCursor::next() {
  ++cluster_->cursor_advances_;
  RTDRM_ASSERT_MSG(generation_ == cluster_->sample_generation_,
                   "utilization cursor outlived its sample");
  // Best-first over the 4-ary heap, children pushed on every pop: keys
  // come out in globally sorted (u, id) order, each heap node is expanded
  // exactly once, and excluded or already-yielded entries are simply
  // skipped — so yield k+1 is the minimum over nodes outside
  // (exclude ∪ yields 1..k), which is precisely what a fresh
  // leastUtilized() with that grown exclusion set would return.
  const auto& heap = cluster_->util_heap_;
  const auto greater = [&heap](std::uint32_t a, std::uint32_t b) {
    return keyLess(heap[b], heap[a]);
  };
  const std::size_t n = heap.size();
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), greater);
    const std::uint32_t i = frontier_.back();
    frontier_.pop_back();
    const std::size_t first_child = 4 * static_cast<std::size_t>(i) + 1;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child; c < last_child; ++c) {
      frontier_.push_back(static_cast<std::uint32_t>(c));
      std::push_heap(frontier_.begin(), frontier_.end(), greater);
    }
    const UtilEntry& e = heap[i];
    if ((exclude_bits_[e.id >> 6] >> (e.id & 63) & 1u) == 0) {
      return ProcessorId{e.id};
    }
  }
  return std::nullopt;
}

const std::vector<ProcessorId>& Cluster::belowUtilization(
    Utilization limit) const {
  below_scratch_.clear();
  const double lim = limit.value();
  if (index_generation_ != sample_generation_) {
    rebuildIndex();
  }
  // Pruned DFS: a subtree whose root is already at or above the limit
  // cannot contain a below-limit node. Matches are then put in ascending
  // id order — the order Fig. 7 adds them in, and the order a linear scan
  // produces — so downstream decisions are unchanged.
  frontier_.clear();
  const std::size_t n = util_heap_.size();
  if (n > 0 && util_heap_[0].u < lim) {
    frontier_.push_back(0);
  }
  while (!frontier_.empty()) {
    const std::uint32_t i = frontier_.back();
    frontier_.pop_back();
    below_scratch_.push_back(ProcessorId{util_heap_[i].id});
    const std::size_t first_child = 4 * static_cast<std::size_t>(i) + 1;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child; c < last_child; ++c) {
      if (util_heap_[c].u < lim) {
        frontier_.push_back(static_cast<std::uint32_t>(c));
      }
    }
  }
  std::sort(below_scratch_.begin(), below_scratch_.end());
  return below_scratch_;
}

void Cluster::exportMetrics(obs::MetricsRegistry& reg) const {
  reg.counter("node.index_rebuilds").set(index_rebuilds_);
  reg.counter("node.cursor_advances").set(cursor_advances_);
  reg.counter("node.samples_taken").set(samples_taken_);
  reg.gauge("node.up_count").set(static_cast<double>(upCount()));
  reg.gauge("node.mean_utilization").set(meanUtilization().value());
}

}  // namespace rtdrm::node
