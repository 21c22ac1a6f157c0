// Scenario: the fully wired simulated testbed (Table 1 baseline).
//
// Owns the simulator and every substrate — cluster, network (shared bus or
// switched fabric), synchronized clocks, RNG streams — in construction
// order so teardown is safe. Examples, tests, the profiler, and the
// experiment runner all build on this instead of hand-wiring substrates.
#pragma once

#include <cstdint>
#include <memory>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "net/clock_sync.hpp"
#include "net/ethernet.hpp"
#include "net/fabric.hpp"
#include "node/cluster.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "task/runtime.hpp"

namespace rtdrm::apps {

struct ScenarioConfig {
  std::size_t node_count = 6;                       // Table 1
  node::ProcessorConfig cpu{};                      // RR, 1 ms slice
  /// Per-node relative speeds (extension); empty = homogeneous (paper).
  std::vector<double> node_speeds{};
  net::EthernetConfig ethernet{};                   // 100 Mbps
  /// Which network substrate to build. kBus (the default, and the paper's
  /// Table 1 setup) is byte-identical to every run before the switched
  /// fabric existed; kSwitched builds a SwitchedFabric from `fabric`,
  /// whose per-link parameters are taken from `ethernet` so the two are
  /// comparable point for point.
  net::NetKind net_kind = net::NetKind::kBus;
  /// Fabric shape when net_kind == kSwitched (`fabric.link` is overwritten
  /// with `ethernet` at construction).
  net::SwitchedFabricConfig fabric{};
  net::ClockSyncConfig clock_sync{};
  node::BackgroundLoadConfig background{};
  /// Ambient CPU load on every node at scenario start (other system
  /// activity); profiling and ablations override per node.
  Utilization ambient_load = Utilization::fraction(0.05);
  std::uint64_t seed = 42;
  /// Start the clock synchronization service on construction.
  bool start_clock_sync = true;
  /// Event-kernel shards (1 = the legacy single queue, byte-identical to
  /// every run before sharding existed; K > 1 = shard 0 keeps the control
  /// plane and shards 1..K-1 split the nodes). The barrier lookahead is
  /// sized from `ethernet` (minCrossShardLatency()).
  std::size_t sim_shards = 1;
  /// Window mode for sharded execution (ignored when sim_shards == 1).
  parallel::SimMode sim_mode = parallel::SimMode::kDeterministic;
  /// Barrier-window sizing policy for sharded execution. Adaptive and
  /// static runs are digest-identical; adaptive executes far fewer
  /// barrier rounds (ignored when sim_shards == 1).
  parallel::LookaheadPolicy sim_lookahead = parallel::LookaheadPolicy::kAdaptive;
  /// Sync-point cadence for barrier hooks (busy-snapshot refresh) in
  /// sharded execution; bounds cross-shard snapshot staleness.
  SimDuration sim_sync_interval = SimDuration::millis(1.0);
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& config);
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  const ScenarioConfig& config() const { return config_; }
  /// The control-plane simulator (the only one when sim_shards == 1).
  sim::Simulator& sim() { return engine_.control(); }
  /// The event engine. Always present; a 1-shard engine is the legacy
  /// single-queue path.
  sim::ShardedEngine& engine() { return engine_; }
  bool sharded() const { return engine_.shardCount() > 1; }
  node::Cluster& cluster() { return cluster_; }
  /// The network substrate, whichever kind the config selected.
  net::NetworkModel& net() { return *net_; }
  /// The switched fabric — only valid when net_kind == kSwitched.
  net::SwitchedFabric& fabric();
  net::ClockFabric& clocks() { return clocks_; }
  RngStreams& streams() { return streams_; }
  net::NetworkProbe& netProbe() { return net_probe_; }

  /// Advance the whole testbed — all shards, barrier-synchronized when
  /// sharded. Drivers must use this (or engine()) rather than
  /// sim().runFor(), which would advance only the control shard.
  void runFor(SimDuration d) { engine_.runFor(d); }
  void runUntil(SimTime t) { engine_.runUntil(t); }

  task::Runtime runtime() {
    return task::Runtime{engine_.control(), cluster_, *net_, clocks_,
                         sharded() ? &engine_ : nullptr};
  }

 private:
  static sim::ShardedConfig engineConfig(const ScenarioConfig& config) {
    sim::ShardedConfig ec;
    ec.shards = config.sim_shards == 0 ? 1 : config.sim_shards;
    ec.mode = config.sim_mode;
    ec.policy = config.sim_lookahead;
    // Conservative barrier lookahead from the selected substrate: the
    // fabric-wide minimum cross-node path when switched, the single-hop
    // bound on the bus (the fabric's strictly dominates the bus's).
    ec.lookahead = config.net_kind == net::NetKind::kSwitched
                       ? fabricConfig(config).minCrossShardLatency()
                       : config.ethernet.minCrossShardLatency();
    ec.sync_interval = config.sim_sync_interval;
    return ec;
  }
  static net::SwitchedFabricConfig fabricConfig(const ScenarioConfig& config) {
    net::SwitchedFabricConfig fc = config.fabric;
    fc.link = config.ethernet;
    return fc;
  }
  static std::unique_ptr<net::NetworkModel> makeNet(
      sim::Simulator& simulator, const ScenarioConfig& config);

  ScenarioConfig config_;
  RngStreams streams_;
  sim::ShardedEngine engine_;
  node::Cluster cluster_;
  std::unique_ptr<net::NetworkModel> net_;
  net::ClockFabric clocks_;
  net::NetworkProbe net_probe_;
};

}  // namespace rtdrm::apps
