#include "node/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::node {
namespace {

// Brute-force references for the utilization index, built only on the
// cluster's raw per-node state: linear scans over every up node, strictly
// lower utilization wins, ties to the lower id.
std::optional<ProcessorId> scanLeastUtilized(
    const Cluster& cluster, const std::vector<ProcessorId>& exclude) {
  std::optional<ProcessorId> best;
  for (const ProcessorId id : cluster.ids()) {
    if (!cluster.isUp(id) ||
        std::find(exclude.begin(), exclude.end(), id) != exclude.end()) {
      continue;
    }
    if (!best || cluster.lastUtilization(id).value() <
                     cluster.lastUtilization(*best).value()) {
      best = id;
    }
  }
  return best;
}

std::vector<ProcessorId> scanBelowUtilization(const Cluster& cluster,
                                              Utilization limit) {
  std::vector<ProcessorId> out;
  for (const ProcessorId id : cluster.ids()) {
    if (cluster.isUp(id) &&
        cluster.lastUtilization(id).value() < limit.value()) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(Cluster, ConstructsRequestedNodes) {
  sim::Simulator sim;
  Cluster cluster(sim, 6);
  EXPECT_EQ(cluster.size(), 6u);
  EXPECT_EQ(cluster.ids().size(), 6u);
  EXPECT_EQ(cluster.processor(ProcessorId{3}).id(), (ProcessorId{3}));
}

TEST(Cluster, SampleUtilizationPerNode) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  cluster.processor(ProcessorId{1}).submit(
      Job{SimDuration::millis(5.0), nullptr, "x"});
  sim.runUntil(SimTime::millis(10.0));
  const auto& u = cluster.sampleUtilization();
  EXPECT_NEAR(u[0].value(), 0.0, 1e-9);
  EXPECT_NEAR(u[1].value(), 0.5, 1e-9);
  EXPECT_NEAR(u[2].value(), 0.0, 1e-9);
  EXPECT_NEAR(cluster.meanUtilization().value(), 0.5 / 3.0, 1e-9);
  EXPECT_NEAR(cluster.lastUtilization(ProcessorId{1}).value(), 0.5, 1e-9);
}

TEST(Cluster, LeastUtilizedPicksIdleNode) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  cluster.processor(ProcessorId{0}).submit(
      Job{SimDuration::millis(8.0), nullptr, "x"});
  cluster.processor(ProcessorId{2}).submit(
      Job{SimDuration::millis(4.0), nullptr, "y"});
  sim.runUntil(SimTime::millis(10.0));
  cluster.sampleUtilization();
  const auto least = cluster.leastUtilized({});
  ASSERT_TRUE(least.has_value());
  EXPECT_EQ(*least, (ProcessorId{1}));
}

TEST(Cluster, LeastUtilizedHonorsExclusions) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  cluster.processor(ProcessorId{0}).submit(
      Job{SimDuration::millis(8.0), nullptr, "x"});
  sim.runUntil(SimTime::millis(10.0));
  cluster.sampleUtilization();
  const auto least = cluster.leastUtilized({ProcessorId{1}, ProcessorId{2}});
  ASSERT_TRUE(least.has_value());
  EXPECT_EQ(*least, (ProcessorId{0}));  // only candidate left
}

TEST(Cluster, LeastUtilizedAllExcludedIsEmpty) {
  sim::Simulator sim;
  Cluster cluster(sim, 2);
  EXPECT_FALSE(
      cluster.leastUtilized({ProcessorId{0}, ProcessorId{1}}).has_value());
}

TEST(Cluster, LeastUtilizedTieBreaksToLowerId) {
  sim::Simulator sim;
  Cluster cluster(sim, 4);
  sim.runUntil(SimTime::millis(10.0));
  cluster.sampleUtilization();  // all zero
  const auto least = cluster.leastUtilized({ProcessorId{0}});
  ASSERT_TRUE(least.has_value());
  EXPECT_EQ(*least, (ProcessorId{1}));
}

TEST(Cluster, LeastUtilizedAllZeroStartupPicksLowestId) {
  // The Fig.-5 determinism contract: at startup every sampled utilization
  // is zero, so pmin must be the lowest id — through the index and through
  // the reference scan alike.
  sim::Simulator sim;
  Cluster cluster(sim, 64);
  cluster.sampleUtilization();
  ASSERT_TRUE(cluster.leastUtilized({}).has_value());
  EXPECT_EQ(*cluster.leastUtilized({}), (ProcessorId{0}));
  EXPECT_EQ(scanLeastUtilized(cluster, {}), (ProcessorId{0}));
}

TEST(Cluster, IdsAreCachedAndStable) {
  sim::Simulator sim;
  Cluster cluster(sim, 5);
  const auto& a = cluster.ids();
  const auto& b = cluster.ids();
  EXPECT_EQ(&a, &b);  // same backing storage, no per-call allocation
  ASSERT_EQ(a.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a[i], (ProcessorId{i}));
  }
}

// Load a cluster with a deterministic spread of utilizations (node i busy
// for i ms of a 100 ms window, with deliberate duplicates) and compare the
// indexed queries against the reference scan across many exclusion sets
// and fresh samples.
TEST(Cluster, IndexMatchesReferenceScanUnderChurn) {
  sim::Simulator sim;
  constexpr std::uint32_t kNodes = 37;
  Cluster cluster(sim, kNodes);
  Xoshiro256 rng(4242);
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      // Duplicate utilization classes (i % 9) force tie-breaks.
      const double busy_ms = static_cast<double>(i % 9) * 7.0;
      if (busy_ms > 0.0) {
        cluster.processor(ProcessorId{i}).submit(
            Job{SimDuration::millis(busy_ms), nullptr, "load"});
      }
    }
    sim.runFor(SimDuration::millis(100.0));
    cluster.sampleUtilization();

    for (int trial = 0; trial < 50; ++trial) {
      std::vector<ProcessorId> exclude;
      const auto count = rng.uniformInt(0, kNodes);
      for (std::int64_t k = 0; k < count; ++k) {
        exclude.push_back(ProcessorId{
            static_cast<std::uint32_t>(rng.uniformInt(0, kNodes - 1))});
      }
      const auto indexed = cluster.leastUtilized(exclude);
      const auto scanned = scanLeastUtilized(cluster, exclude);
      ASSERT_EQ(indexed, scanned)
          << "round " << round << " trial " << trial;
    }
  }
}

TEST(Cluster, BelowUtilizationMatchesScanAndIsAscending) {
  sim::Simulator sim;
  constexpr std::uint32_t kNodes = 23;
  Cluster cluster(sim, kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const double busy_ms = static_cast<double>((i * 13) % 50);
    if (busy_ms > 0.0) {
      cluster.processor(ProcessorId{i}).submit(
          Job{SimDuration::millis(busy_ms), nullptr, "load"});
    }
  }
  sim.runFor(SimDuration::millis(100.0));
  cluster.sampleUtilization();

  for (const double pct : {0.0, 10.0, 20.0, 35.0, 100.0}) {
    const Utilization limit = Utilization::percent(pct);
    const std::vector<ProcessorId> scanned =
        scanBelowUtilization(cluster, limit);
    const std::vector<ProcessorId>& indexed = cluster.belowUtilization(limit);
    ASSERT_EQ(indexed, scanned) << "limit " << pct << "%";
    for (std::size_t i = 1; i < indexed.size(); ++i) {
      EXPECT_LT(indexed[i - 1].value, indexed[i].value);
    }
  }
}

// The cursor must yield exactly the sequence that the Fig.-5 growth loop
// historically produced with one leastUtilized(exclude) query per added
// replica — and that the reference scan produces.
TEST(Cluster, CursorMatchesRepeatedLeastUtilizedQueries) {
  sim::Simulator sim;
  constexpr std::uint32_t kNodes = 29;
  Cluster cluster(sim, kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    // Duplicate utilization classes force tie-breaks mid-sequence.
    const double busy_ms = static_cast<double>((i * 5) % 11) * 6.0;
    if (busy_ms > 0.0) {
      cluster.processor(ProcessorId{i}).submit(
          Job{SimDuration::millis(busy_ms), nullptr, "load"});
    }
  }
  sim.runFor(SimDuration::millis(100.0));
  cluster.sampleUtilization();

  const std::vector<ProcessorId> initial{ProcessorId{3}, ProcessorId{17}};
  auto cursor = cluster.utilizationCursor(initial);
  std::vector<ProcessorId> exclude = initial;
  std::size_t yields = 0;
  while (const auto got = cursor.next()) {
    const auto ref_indexed = cluster.leastUtilized(exclude);
    const auto ref_scan = scanLeastUtilized(cluster, exclude);
    ASSERT_TRUE(ref_indexed.has_value());
    ASSERT_EQ(*got, *ref_indexed) << "yield " << yields;
    ASSERT_EQ(ref_scan, got) << "yield " << yields;
    exclude.push_back(*got);
    ++yields;
  }
  EXPECT_EQ(yields, kNodes - initial.size());
  EXPECT_FALSE(scanLeastUtilized(cluster, exclude).has_value());
}

TEST(Cluster, IndexRefreshesAfterEachSample) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  cluster.processor(ProcessorId{0}).submit(
      Job{SimDuration::millis(8.0), nullptr, "x"});
  sim.runFor(SimDuration::millis(10.0));
  cluster.sampleUtilization();
  EXPECT_EQ(*cluster.leastUtilized({ProcessorId{1}}), (ProcessorId{2}));
  // New window: now node 2 is the busy one; the next query must see the
  // fresh sample, not the stale heap.
  cluster.processor(ProcessorId{2}).submit(
      Job{SimDuration::millis(8.0), nullptr, "y"});
  sim.runFor(SimDuration::millis(10.0));
  cluster.sampleUtilization();
  EXPECT_EQ(*cluster.leastUtilized({ProcessorId{1}}), (ProcessorId{0}));
}

TEST(Cluster, BackgroundLoadAttachesPerNode) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  EXPECT_FALSE(cluster.hasBackgroundLoad());
  const RngStreams streams(9);
  cluster.attachBackgroundLoad(streams);
  EXPECT_TRUE(cluster.hasBackgroundLoad());
  cluster.backgroundLoad(ProcessorId{0}).setTarget(Utilization::fraction(0.6));
  cluster.backgroundLoad(ProcessorId{2}).setTarget(Utilization::fraction(0.2));
  sim.runUntil(SimTime::millis(60000.0));
  const auto& u = cluster.sampleUtilization();
  EXPECT_NEAR(u[0].value(), 0.6, 0.06);
  EXPECT_NEAR(u[1].value(), 0.0, 1e-9);
  EXPECT_NEAR(u[2].value(), 0.2, 0.05);
}

TEST(Cluster, PerNodeSpeedsApplied) {
  sim::Simulator sim;
  Cluster cluster(sim, 2, {}, {2.0, 0.5});
  double fast_done = -1.0;
  double slow_done = -1.0;
  cluster.processor(ProcessorId{0})
      .submit(Job{SimDuration::millis(10.0),
                  [&fast_done, &sim] { fast_done = sim.now().ms(); }, "f"});
  cluster.processor(ProcessorId{1})
      .submit(Job{SimDuration::millis(10.0),
                  [&slow_done, &sim] { slow_done = sim.now().ms(); }, "s"});
  sim.runAll();
  EXPECT_DOUBLE_EQ(fast_done, 5.0);
  EXPECT_DOUBLE_EQ(slow_done, 20.0);
}

TEST(Cluster, DownNodeInvisibleToSelection) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  cluster.processor(ProcessorId{0}).submit(
      Job{SimDuration::millis(5.0), nullptr, "x"});
  sim.runUntil(SimTime::millis(10.0));
  cluster.setNodeUp(ProcessorId{1}, false);  // the idle node goes dark
  cluster.sampleUtilization();
  EXPECT_EQ(cluster.upCount(), 2u);

  const auto least = cluster.leastUtilized({});
  ASSERT_TRUE(least.has_value());
  EXPECT_EQ(*least, (ProcessorId{2}));  // idle AND up
  // Mean is over surviving nodes: (0.5 + 0.0) / 2.
  EXPECT_NEAR(cluster.meanUtilization().value(), 0.25, 1e-9);
  const auto& below = cluster.belowUtilization(Utilization::fraction(0.4));
  ASSERT_EQ(below.size(), 1u);
  EXPECT_EQ(below[0], (ProcessorId{2}));

  auto cursor = cluster.utilizationCursor({});
  std::size_t yielded = 0;
  while (cursor.next().has_value()) {
    ++yielded;
  }
  EXPECT_EQ(yielded, 2u);
}

TEST(Cluster, MaskingAgreesWithReferenceScan) {
  sim::Simulator sim;
  Cluster cluster(sim, 4);
  cluster.processor(ProcessorId{0}).submit(
      Job{SimDuration::millis(8.0), nullptr, "a"});
  cluster.processor(ProcessorId{2}).submit(
      Job{SimDuration::millis(4.0), nullptr, "b"});
  sim.runUntil(SimTime::millis(10.0));
  cluster.setNodeUp(ProcessorId{1}, false);
  cluster.setNodeUp(ProcessorId{3}, false);
  cluster.sampleUtilization();
  const auto indexed = cluster.leastUtilized({});
  const auto scanned = scanLeastUtilized(cluster, {});
  ASSERT_TRUE(indexed.has_value());
  ASSERT_TRUE(scanned.has_value());
  EXPECT_EQ(*indexed, *scanned);
  EXPECT_EQ(*indexed, (ProcessorId{2}));  // busiest survivors: 0.8 vs 0.4
  const Utilization all = Utilization::fraction(1.0);
  EXPECT_EQ(cluster.belowUtilization(all), scanBelowUtilization(cluster, all));
}

TEST(Cluster, RestartUnmasksNode) {
  sim::Simulator sim;
  Cluster cluster(sim, 3);
  cluster.processor(ProcessorId{2}).submit(
      Job{SimDuration::millis(5.0), nullptr, "x"});
  cluster.setNodeUp(ProcessorId{0}, false);
  cluster.setNodeUp(ProcessorId{1}, false);
  sim.runUntil(SimTime::millis(10.0));
  cluster.sampleUtilization();
  EXPECT_EQ(cluster.upCount(), 1u);
  ASSERT_TRUE(cluster.leastUtilized({}).has_value());
  EXPECT_EQ(*cluster.leastUtilized({}), (ProcessorId{2}));
  cluster.setNodeUp(ProcessorId{0}, true);
  cluster.sampleUtilization();
  EXPECT_EQ(cluster.upCount(), 2u);
  EXPECT_EQ(*cluster.leastUtilized({}), (ProcessorId{0}));
}

TEST(Cluster, AllNodesDownYieldsNoCandidate) {
  sim::Simulator sim;
  Cluster cluster(sim, 2);
  cluster.setNodeUp(ProcessorId{0}, false);
  cluster.setNodeUp(ProcessorId{1}, false);
  cluster.sampleUtilization();
  EXPECT_EQ(cluster.upCount(), 0u);
  EXPECT_FALSE(cluster.leastUtilized({}).has_value());
}

TEST(ClusterDeathTest, SpeedsSizeMismatchAsserts) {
  sim::Simulator sim;
  EXPECT_DEATH(Cluster(sim, 3, {}, {1.0, 2.0}), "one per node");
}

TEST(ClusterDeathTest, OutOfRangeProcessorAsserts) {
  sim::Simulator sim;
  Cluster cluster(sim, 2);
  EXPECT_DEATH(cluster.processor(ProcessorId{5}), "assertion");
}

}  // namespace
}  // namespace rtdrm::node
