#include "net/ethernet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace rtdrm::net {
namespace {

EthernetConfig wireOnly() {
  EthernetConfig cfg;
  cfg.host_ns_per_byte = 0.0;  // isolate wire behaviour
  cfg.propagation = SimDuration::zero();
  return cfg;
}

TEST(Ethernet, LocalDeliveryBypassesWire) {
  sim::Simulator sim;
  Ethernet net(sim, 2);
  bool delivered = false;
  net.send(Message{ProcessorId{0}, ProcessorId{0}, Bytes::kilo(100.0), "m",
                   [&](const MessageReceipt& r) {
                     delivered = true;
                     EXPECT_DOUBLE_EQ(r.bufferDelay().ms(), 0.0);
                   }});
  sim.runAll();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(net.busyTime().ms(), 0.0);
  EXPECT_EQ(net.framesOnWire(), 0u);
  EXPECT_EQ(net.messagesDelivered(), 1u);
}

TEST(Ethernet, SingleFrameTransmissionTime) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  double delivered_at = -1.0;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "m",
                   [&](const MessageReceipt& r) {
                     delivered_at = r.delivered.ms();
                     EXPECT_DOUBLE_EQ(r.bufferDelay().ms(), 0.0);
                   }});
  sim.runAll();
  // (1500 + 38 overhead) bytes at 100 Mbps = 123.04 us.
  EXPECT_NEAR(delivered_at, (1500.0 + 38.0) * 8.0 / 100e6 * 1000.0, 1e-9);
  EXPECT_EQ(net.framesOnWire(), 1u);
}

TEST(Ethernet, FragmentsLargeMessages) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  bool delivered = false;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(4000.0), "m",
                   [&](const MessageReceipt&) { delivered = true; }});
  sim.runAll();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.framesOnWire(), 3u);  // 1500 + 1500 + 1000
  const double expected_ms =
      (1538.0 + 1538.0 + 1038.0) * 8.0 / 100e6 * 1000.0;
  EXPECT_NEAR(net.busyTime().ms(), expected_ms, 1e-9);
  EXPECT_NEAR(net.payloadBytesCarried(), 4000.0, 1e-9);
}

TEST(Ethernet, ShortFramesPaddedToMinimum) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(10.0), "m", {}});
  sim.runAll();
  // Padded to 46 B payload + 38 B overhead = 84 B.
  EXPECT_NEAR(net.busyTime().ms(), 84.0 * 8.0 / 100e6 * 1000.0, 1e-12);
}

TEST(Ethernet, ZeroPayloadStillDelivers) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  bool delivered = false;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::zero(), "m",
                   [&](const MessageReceipt&) { delivered = true; }});
  sim.runAll();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.framesOnWire(), 1u);
}

TEST(Ethernet, PropagationDelayAppliedAfterLastBit) {
  sim::Simulator sim;
  EthernetConfig cfg = wireOnly();
  cfg.propagation = SimDuration::micros(5.0);
  Ethernet net(sim, 2, cfg);
  double delivered_at = -1.0;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "m",
                   [&](const MessageReceipt& r) {
                     delivered_at = r.delivered.ms();
                   }});
  sim.runAll();
  EXPECT_NEAR(delivered_at, 1538.0 * 8.0 / 100e6 * 1000.0 + 0.005, 1e-9);
}

TEST(Ethernet, SameNicMessagesQueueFifo) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  std::vector<int> order;
  MessageReceipt second_receipt{};
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "a",
                   [&](const MessageReceipt&) { order.push_back(1); }});
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "b",
                   [&](const MessageReceipt& r) {
                     order.push_back(2);
                     second_receipt = r;
                   }});
  sim.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // The second message waited for the first frame: buffer delay > 0.
  EXPECT_GT(second_receipt.bufferDelay().ms(), 0.0);
}

TEST(Ethernet, CrossNicArbitrationInterleavesFairly) {
  sim::Simulator sim;
  Ethernet net(sim, 3, wireOnly());
  double a_done = -1.0;
  double b_done = -1.0;
  // Two equal 2-frame messages from different NICs enqueued together:
  // frames interleave, so both finish at about the same (total) time.
  net.send(Message{ProcessorId{0}, ProcessorId{2}, Bytes::of(3000.0), "a",
                   [&](const MessageReceipt& r) { a_done = r.delivered.ms(); }});
  net.send(Message{ProcessorId{1}, ProcessorId{2}, Bytes::of(3000.0), "b",
                   [&](const MessageReceipt& r) { b_done = r.delivered.ms(); }});
  sim.runAll();
  const double total = net.busyTime().ms();
  EXPECT_NEAR(a_done, total, total * 0.35);
  EXPECT_NEAR(b_done, total, 1e-9);  // last frame ends the busy period
  EXPECT_EQ(net.framesOnWire(), 4u);
}

TEST(Ethernet, BusyTimeConservation) {
  sim::Simulator sim;
  Ethernet net(sim, 4, wireOnly());
  int delivered = 0;
  double expected_busy = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double payload = 500.0 + 250.0 * i;
    // Account for fragmentation: each frame carries <= 1500 B payload
    // (padded up to 46 B) plus 38 B of overhead.
    double wire = 0.0;
    for (double left = payload; left > 0.0; left -= 1500.0) {
      wire += std::max(std::min(left, 1500.0), 46.0) + 38.0;
    }
    expected_busy += wire * 8.0 / 100e6 * 1000.0;
    net.send(Message{ProcessorId{static_cast<std::uint32_t>(i % 4)},
                     ProcessorId{static_cast<std::uint32_t>((i + 1) % 4)},
                     Bytes::of(payload), "m",
                     [&](const MessageReceipt&) { ++delivered; }});
  }
  sim.runAll();
  EXPECT_EQ(delivered, 10);
  EXPECT_NEAR(net.busyTime().ms(), expected_busy, 1e-9);
  EXPECT_EQ(net.backloggedMessages(), 0u);
}

TEST(Ethernet, MarshallingDelaysFirstBit) {
  sim::Simulator sim;
  EthernetConfig cfg;
  cfg.propagation = SimDuration::zero();
  cfg.host_ns_per_byte = 87.5;
  Ethernet net(sim, 2, cfg);
  MessageReceipt receipt{};
  // 8000 B = one hundred 80 B tracks; marshalling = 0.7 ms (Table 3's k).
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(8000.0), "m",
                   [&](const MessageReceipt& r) { receipt = r; }});
  sim.runAll();
  EXPECT_NEAR(receipt.bufferDelay().ms(), 0.7, 1e-9);
}

TEST(Ethernet, MarshallingIsSequentialPerNic) {
  sim::Simulator sim;
  EthernetConfig cfg;
  cfg.propagation = SimDuration::zero();
  cfg.host_ns_per_byte = 100.0;
  Ethernet net(sim, 2, cfg);
  MessageReceipt r1{};
  MessageReceipt r2{};
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(10000.0), "a",
                   [&](const MessageReceipt& r) { r1 = r; }});
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(10000.0), "b",
                   [&](const MessageReceipt& r) { r2 = r; }});
  sim.runAll();
  // Second message marshals only after the first: >= 2 ms buffer delay.
  EXPECT_NEAR(r1.bufferDelay().ms(), 1.0, 1e-6);
  EXPECT_GE(r2.bufferDelay().ms(), 2.0 - 1e-6);
}

TEST(Ethernet, ReceiptDecomposesTotalDelay) {
  sim::Simulator sim;
  Ethernet net(sim, 2);
  MessageReceipt receipt{};
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(5000.0), "m",
                   [&](const MessageReceipt& r) { receipt = r; }});
  sim.runAll();
  EXPECT_NEAR(receipt.totalDelay().ms(),
              receipt.bufferDelay().ms() + receipt.transferDelay().ms(),
              1e-12);
  EXPECT_GT(receipt.bufferDelay().ms(), 0.0);
  EXPECT_GT(receipt.transferDelay().ms(), 0.0);
}

TEST(Ethernet, PerNicPayloadAttribution) {
  sim::Simulator sim;
  Ethernet net(sim, 3, wireOnly());
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(4000.0), "a", {}});
  net.send(Message{ProcessorId{2}, ProcessorId{1}, Bytes::of(1000.0), "b", {}});
  sim.runAll();
  EXPECT_NEAR(net.payloadBytesFrom(ProcessorId{0}), 4000.0, 1e-9);
  EXPECT_NEAR(net.payloadBytesFrom(ProcessorId{1}), 0.0, 1e-9);
  EXPECT_NEAR(net.payloadBytesFrom(ProcessorId{2}), 1000.0, 1e-9);
  EXPECT_NEAR(net.payloadBytesFrom(ProcessorId{0}) +
                  net.payloadBytesFrom(ProcessorId{2}),
              net.payloadBytesCarried(), 1e-9);
}

TEST(NetworkProbe, WindowedUtilization) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  NetworkProbe probe(sim, net);
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::kilo(125.0), "m", {}});
  sim.runUntil(SimTime::millis(20.0));
  // 125 kB ~ 84 frames; ~10.25 ms of wire time in a 20 ms window.
  const double u = probe.sample().value();
  EXPECT_GT(u, 0.4);
  EXPECT_LT(u, 0.6);
  sim.runUntil(SimTime::millis(40.0));
  EXPECT_NEAR(probe.sample().value(), 0.0, 1e-9);
}

// Property: for any payload, frames = ceil(payload/mtu) (minimum 1) and
// payload bytes are conserved.
class EthernetFragmentation : public ::testing::TestWithParam<double> {};

TEST_P(EthernetFragmentation, FrameCountAndPayloadConservation) {
  const double payload = GetParam();
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  bool delivered = false;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(payload), "m",
                   [&](const MessageReceipt&) { delivered = true; }});
  sim.runAll();
  EXPECT_TRUE(delivered);
  const auto expected_frames =
      payload <= 0.0 ? 1u
                     : static_cast<std::uint64_t>(
                           (payload + 1499.0) / 1500.0);
  EXPECT_EQ(net.framesOnWire(), expected_frames);
  EXPECT_NEAR(net.payloadBytesCarried(), payload, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, EthernetFragmentation,
                         ::testing::Values(0.0, 1.0, 46.0, 1499.0, 1500.0,
                                           1501.0, 3000.0, 80000.0));

// Regression: the delivered counter and the delivery observer fire inside
// the scheduled delivery event — at the receipt's `delivered` time, after
// the propagation delay — not eagerly when the last frame clears the wire.
TEST(Ethernet, WireDeliveryCountedAtDeliveryTime) {
  sim::Simulator sim;
  EthernetConfig cfg = wireOnly();
  cfg.propagation = SimDuration::millis(1.0);
  Ethernet net(sim, 2, cfg);
  double observed_at = -1.0;
  net.setDeliveryObserver(
      [&](const MessageReceipt& r) {
        observed_at = sim.now().ms();
        EXPECT_DOUBLE_EQ(r.delivered.ms(), sim.now().ms());
      });
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "m",
                   {}});
  const double wire_ms = 1538.0 * 8.0 / 100e6 * 1000.0;
  sim.runUntil(SimTime::millis(wire_ms + 0.5));  // wire clear, in flight
  EXPECT_EQ(net.messagesDelivered(), 0u);
  EXPECT_DOUBLE_EQ(observed_at, -1.0);
  sim.runAll();
  EXPECT_EQ(net.messagesDelivered(), 1u);
  EXPECT_NEAR(observed_at, wire_ms + 1.0, 1e-9);
  net.setDeliveryObserver(nullptr);
}

TEST(Ethernet, LocalDeliveryCountedAfterPropagation) {
  sim::Simulator sim;
  EthernetConfig cfg = wireOnly();
  cfg.propagation = SimDuration::millis(1.0);
  Ethernet net(sim, 2, cfg);
  net.send(Message{ProcessorId{0}, ProcessorId{0}, Bytes::of(100.0), "m",
                   {}});
  sim.runUntil(SimTime::millis(0.5));
  EXPECT_EQ(net.messagesDelivered(), 0u);
  sim.runAll();
  EXPECT_EQ(net.messagesDelivered(), 1u);
}

// Pin of intended behaviour: a same-node hand-off bypasses the wire AND
// the per-NIC marshalling stage — it models an in-memory pointer pass, so
// it neither pays host_ns_per_byte nor occupies the NIC for later
// cross-node messages from the same source.
TEST(Ethernet, LocalDeliveryBypassesMarshallingStage) {
  sim::Simulator sim;
  EthernetConfig cfg;  // defaults: host_ns_per_byte = 87.5
  cfg.propagation = SimDuration::zero();
  Ethernet net(sim, 2, cfg);
  double local_at = -1.0;
  double remote_at = -1.0;
  // 100 kB locally would cost 8.75 ms of marshalling if it were charged.
  net.send(Message{ProcessorId{0}, ProcessorId{0}, Bytes::kilo(100.0), "l",
                   [&](const MessageReceipt& r) {
                     local_at = r.delivered.ms();
                     EXPECT_DOUBLE_EQ(r.bufferDelay().ms(), 0.0);
                   }});
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(100.0), "r",
                   [&](const MessageReceipt& r) {
                     remote_at = r.delivered.ms();
                   }});
  sim.runAll();
  EXPECT_DOUBLE_EQ(local_at, 0.0);
  // The cross-node message marshals only its own 100 B (8.75 us) and then
  // pays one padded frame (138 B): it is NOT queued behind the local
  // message's hypothetical marshalling.
  EXPECT_NEAR(remote_at,
              100.0 * 87.5 * 1e-6 + 138.0 * 8.0 / 100e6 * 1000.0, 1e-9);
}

TEST(Ethernet, LostFrameIsRetransmittedNotSuppressed) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  int calls = 0;
  net.setFrameFateHook([&](const FrameHop&) {
    return ++calls == 1 ? Ethernet::FrameFate::kLose
                        : Ethernet::FrameFate::kDeliver;
  });
  double delivered_at = -1.0;
  net.send(Message{ProcessorId{0}, ProcessorId{1}, Bytes::of(1500.0), "m",
                   [&](const MessageReceipt& r) {
                     delivered_at = r.delivered.ms();
                   }});
  sim.runAll();
  EXPECT_EQ(net.framesLost(), 1u);
  EXPECT_EQ(net.messagesDelivered(), 1u);
  const double frame_ms = 1538.0 * 8.0 / 100e6 * 1000.0;
  // The lost attempt burned a full wire slot before the retransmit.
  EXPECT_NEAR(delivered_at, 2.0 * frame_ms, 1e-9);
  EXPECT_NEAR(net.busyTime().ms(), 2.0 * frame_ms, 1e-9);
  net.setFrameFateHook(nullptr);
}

TEST(Ethernet, SameNodeHandoffExemptFromFrameFateHook) {
  sim::Simulator sim;
  Ethernet net(sim, 2, wireOnly());
  int hook_calls = 0;
  net.setFrameFateHook([&](const FrameHop&) {
    ++hook_calls;
    return Ethernet::FrameFate::kLose;
  });
  bool delivered = false;
  net.send(Message{ProcessorId{1}, ProcessorId{1}, Bytes::of(1500.0), "m",
                   [&](const MessageReceipt&) { delivered = true; }});
  sim.runAll();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(hook_calls, 0);
  EXPECT_EQ(net.framesLost(), 0u);
  net.setFrameFateHook(nullptr);
}


// ---- Frame trains vs the per-frame path ------------------------------------
//
// A pass-through frame-fate hook (always kDeliver) forces the per-frame path
// on every grant and changes nothing on the wire. Each script below runs
// twice, with trains and with that hook armed throughout, and every receipt
// and every counter read must agree bit for bit.

struct ScriptedSend {
  double at_ms;
  std::uint32_t src;
  std::uint32_t dst;
  double bytes;
};

struct Stop {
  double at_ms;
  bool exclusive;  ///< runUntilBefore (events at the instant stay pending)
};

struct Script {
  EthernetConfig config = wireOnly();
  std::size_t nics = 2;
  std::vector<ScriptedSend> sends;
  /// Reads from events scheduled before any traffic.
  std::vector<double> probes_ms;
  /// (plant, at): an event at `plant` schedules a read at `at`, so the read
  /// is scheduled mid-train (at == plant schedules it with zero delay).
  std::vector<std::pair<double, double>> planted;
  /// (plant, send): an event at `plant` schedules a send at `send.at_ms`.
  std::vector<std::pair<double, ScriptedSend>> planted_sends;
  /// A lossy hook (loses or duplicates some frames) armed over
  /// [first, second); outside the windows the train run has no hook.
  std::vector<std::pair<double, double>> hook_windows;
  /// Run horizons; the counters are read between runs.
  std::vector<Stop> stops;
};

struct Observation {
  std::vector<std::uint64_t> receipts;  // bit patterns, delivery order
  std::vector<std::uint64_t> reads;     // bit patterns, read order
  std::vector<double> frame_ends;       // per-frame run: every frame end
  std::uint64_t events = 0;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void readCounters(const Ethernet& net, std::size_t nics, Observation& obs) {
  obs.reads.push_back(bits(net.busyTime().ms()));
  obs.reads.push_back(net.framesOnWire());
  obs.reads.push_back(bits(net.payloadBytesCarried()));
  for (std::uint32_t i = 0; i < nics; ++i) {
    obs.reads.push_back(bits(net.payloadBytesFrom(ProcessorId{i})));
  }
  obs.reads.push_back(net.backloggedMessages());
  obs.reads.push_back(net.messagesDelivered());
  obs.reads.push_back(net.framesLost());
  obs.reads.push_back(net.framesDuplicated());
}

Observation runScript(const Script& s, bool per_frame) {
  sim::Simulator sim;
  Ethernet net(sim, s.nics, s.config);
  Observation obs;
  net.setDeliveryObserver([&](const MessageReceipt& r) {
    obs.receipts.push_back(bits(r.enqueued.ms()));
    obs.receipts.push_back(bits(r.first_bit.ms()));
    obs.receipts.push_back(bits(r.delivered.ms()));
    obs.receipts.push_back(bits(r.payload.count()));
  });
  const auto pass = [&obs, &sim, per_frame](const FrameHop&) {
    if (per_frame) {
      obs.frame_ends.push_back(sim.now().ms());
    }
    return FrameFate::kDeliver;
  };
  if (per_frame) {
    net.setFrameFateHook(pass);
  }
  const auto send = [&](const ScriptedSend& m) {
    sim.scheduleAt(SimTime::millis(m.at_ms), [&net, m] {
      net.send(Message{ProcessorId{m.src}, ProcessorId{m.dst},
                       Bytes::of(m.bytes), "m", {}});
    });
  };
  for (const ScriptedSend& m : s.sends) {
    send(m);
  }
  for (const double at : s.probes_ms) {
    sim.scheduleAt(SimTime::millis(at),
                   [&] { readCounters(net, s.nics, obs); });
  }
  for (const auto& [plant, at] : s.planted) {
    sim.scheduleAt(SimTime::millis(plant), [&, at = at] {
      sim.scheduleAt(SimTime::millis(at),
                     [&] { readCounters(net, s.nics, obs); });
    });
  }
  for (const auto& [plant, m] : s.planted_sends) {
    sim.scheduleAt(SimTime::millis(plant), [&send, m = m] { send(m); });
  }
  // Both runs arm the same lossy hook over the windows; after a window the
  // per-frame run goes back to the pass-through hook, the train run to none.
  std::uint64_t decisions = 0;
  const auto lossy = [&decisions](const FrameHop&) {
    ++decisions;
    return decisions % 3 == 0   ? FrameFate::kLose
           : decisions % 5 == 0 ? FrameFate::kDuplicate
                                : FrameFate::kDeliver;
  };
  for (const auto& [from, until] : s.hook_windows) {
    sim.scheduleAt(SimTime::millis(from),
                   [&net, lossy] { net.setFrameFateHook(lossy); });
    sim.scheduleAt(SimTime::millis(until), [&net, pass, per_frame] {
      net.setFrameFateHook(per_frame ? Ethernet::FrameFateHook(pass)
                                     : nullptr);
    });
  }
  for (const Stop& stop : s.stops) {
    if (stop.exclusive) {
      sim.runUntilBefore(SimTime::millis(stop.at_ms));
    } else {
      sim.runUntil(SimTime::millis(stop.at_ms));
    }
    readCounters(net, s.nics, obs);
  }
  sim.runAll();
  readCounters(net, s.nics, obs);
  obs.events = sim.eventsExecuted();
  net.setFrameFateHook(nullptr);
  net.setDeliveryObserver(nullptr);
  return obs;
}

/// Frame-end instants of `s` on the per-frame path.
std::vector<double> frameEnds(const Script& s) {
  return runScript(s, /*per_frame=*/true).frame_ends;
}

void expectTrainsMatchPerFrame(const Script& s) {
  const Observation trains = runScript(s, /*per_frame=*/false);
  const Observation frames = runScript(s, /*per_frame=*/true);
  EXPECT_EQ(trains.receipts, frames.receipts);
  EXPECT_EQ(trains.reads, frames.reads);
  EXPECT_FALSE(trains.reads.empty());
  EXPECT_LE(trains.events, frames.events);
}

/// A lone NIC with a 7-frame message: reads at every frame end (scheduled
/// before the train, so they tie with a skipped frame end and must see it
/// still pending), just before and after each, and between runs stopped
/// exactly on frame ends (inclusive: the end has fired; exclusive: not).
TEST(EthernetTrain, LoneNicMatchesPerFrameAtEveryBoundary) {
  Script s;
  s.sends.push_back({0.0, 0, 1, 9000.5});
  const std::vector<double> ends = frameEnds(s);
  ASSERT_EQ(ends.size(), 7u);
  for (const double t : ends) {
    s.probes_ms.push_back(t);
    s.probes_ms.push_back(std::nextafter(t, 0.0));
    s.probes_ms.push_back(
        std::nextafter(t, std::numeric_limits<double>::infinity()));
  }
  s.stops = {{ends[1], false}, {ends[3], true}, {ends[3], false},
             {ends[4] + 0.001, false}, {ends[5], true}};
  expectTrainsMatchPerFrame(s);
  const Observation trains = runScript(s, false);
  const Observation frames = runScript(s, true);
  EXPECT_LT(trains.events, frames.events);  // the train skipped 6 events
}

/// Events scheduled mid-train exactly at a frame end still ahead: a read
/// planted far ahead, one planted at the instant with zero delay, and one
/// at the train's final frame end.
TEST(EthernetTrain, EventsScheduledAtAFutureFrameEndSplitTheTrain) {
  Script s;
  s.sends.push_back({0.0, 0, 1, 12000.0});
  const std::vector<double> ends = frameEnds(s);
  ASSERT_EQ(ends.size(), 8u);
  s.planted = {{ends[0] * 0.5, ends[4]},
               {ends[2], ends[2]},
               {ends[5] + 0.001, ends[7]}};
  expectTrainsMatchPerFrame(s);
}

/// A second NIC becomes wire-eligible mid-frame, exactly at a skipped frame
/// end (scheduled before the train: it wins the grant there), and exactly
/// at a frame end by a send planted mid-train.
TEST(EthernetTrain, SecondNicMidTrainAndAtABoundary) {
  Script base;
  base.nics = 3;
  base.sends.push_back({0.0, 0, 1, 15000.0});
  const std::vector<double> ends = frameEnds(base);
  ASSERT_EQ(ends.size(), 10u);
  for (const double at : {ends[2] + 0.01, ends[3], ends[9]}) {
    Script s = base;
    s.sends.push_back({at, 1, 2, 3000.0});
    s.probes_ms = {ends[3], ends[4], ends[6]};
    expectTrainsMatchPerFrame(s);
  }
  Script planted = base;
  planted.planted_sends.push_back({ends[1] + 0.002, {ends[5], 2, 0, 4500.0}});
  planted.probes_ms = {ends[5], ends[6]};
  expectTrainsMatchPerFrame(planted);
}

/// Zero-byte, sub-MTU, exact-MTU, exact multiples and MTU + 1, back to back
/// on one NIC (queued behind a train, no split) and against a second NIC.
TEST(EthernetTrain, PayloadEdgeCasesAndSameNicQueueing) {
  Script s;
  s.nics = 3;
  const double sizes[] = {0.0, 100.0, 1500.0, 1501.0, 3000.0, 4499.25};
  double at = 0.0;
  for (const double b : sizes) {
    s.sends.push_back({at, 0, 1, b});
    at += 0.05;
  }
  s.sends.push_back({0.2, 2, 1, 3000.0});
  s.sends.push_back({0.21, 2, 0, 1500.0});
  s.probes_ms = {0.1, 0.3, 0.5, 0.7};
  expectTrainsMatchPerFrame(s);
  s.config = EthernetConfig{};  // marshalling and propagation on
  expectTrainsMatchPerFrame(s);
}

/// A hook armed mid-train splits it, so it decides the fate of the frame in
/// flight onward; clearing it lets the next grant start a new train (for the
/// rest of the same message).
TEST(EthernetTrain, HookSetAndClearedMidTrain) {
  Script s;
  s.sends.push_back({0.0, 0, 1, 30000.0});
  const std::vector<double> ends = frameEnds(s);
  ASSERT_EQ(ends.size(), 20u);
  s.hook_windows = {{ends[3] + 0.01, ends[6] + 0.01}, {ends[10], ends[12]}};
  s.probes_ms = {ends[5], ends[8], ends[11], ends[15]};
  expectTrainsMatchPerFrame(s);
}

/// Random multi-NIC traffic under both configs, with reads at random
/// instants and at exact frame ends, planted reads and sends, hook windows
/// and run horizons on frame ends.
class EthernetTrainRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EthernetTrainRandom, TrainsMatchPerFrameBitForBit) {
  Xoshiro256 rng(GetParam());
  Script s;
  if (GetParam() % 2 == 1) {
    s.config = EthernetConfig{};
  }
  s.nics = static_cast<std::size_t>(rng.uniformInt(1, 5)) + 1;
  const double mtu = s.config.mtu.count();
  const auto nic = [&] {
    return static_cast<std::uint32_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(s.nics) - 1));
  };
  const auto payload = [&] {
    switch (rng.uniformInt(0, 5)) {
      case 0: return 0.0;
      case 1: return rng.uniform(1.0, mtu);
      case 2: return mtu * static_cast<double>(rng.uniformInt(1, 4));
      case 3: return rng.uniform(mtu, 8.0 * mtu);
      default: return rng.uniform(8.0 * mtu, 60.0 * mtu);
    }
  };
  const int messages = static_cast<int>(rng.uniformInt(8, 30));
  for (int i = 0; i < messages; ++i) {
    s.sends.push_back({rng.uniform(0.0, 20.0), nic(), nic(), payload()});
  }
  const std::vector<double> ends = frameEnds(s);
  ASSERT_FALSE(ends.empty());
  const auto anyEnd = [&] {
    return ends[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(ends.size()) - 1))];
  };
  const double horizon = ends.back();
  for (int i = 0; i < 40; ++i) {
    s.probes_ms.push_back(i % 2 == 0 ? anyEnd() : rng.uniform(0.0, horizon));
  }
  for (int i = 0; i < 10; ++i) {
    const double at = anyEnd();
    s.planted.push_back({rng.uniform(0.0, at), at});
  }
  for (int i = 0; i < 3; ++i) {
    const double at = anyEnd();
    s.planted_sends.push_back(
        {rng.uniform(0.0, at), {at, nic(), nic(), payload()}});
  }
  for (int i = 0; i < 2; ++i) {
    const double from = rng.uniform(0.0, horizon);
    s.hook_windows.push_back({from, from + rng.uniform(0.0, 2.0)});
  }
  std::vector<double> stops;
  for (int i = 0; i < 6; ++i) {
    stops.push_back(anyEnd());
  }
  std::sort(stops.begin(), stops.end());
  for (std::size_t i = 0; i < stops.size(); ++i) {
    s.stops.push_back({stops[i], i % 2 == 0});
  }
  expectTrainsMatchPerFrame(s);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EthernetTrainRandom,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace rtdrm::net
