#include "net/ethernet.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace rtdrm::net {

Ethernet::Ethernet(sim::Simulator& simulator, std::size_t node_count,
                   EthernetConfig config)
    : sim_(simulator),
      config_(config),
      nics_(node_count),
      marshal_busy_until_(node_count, SimTime::zero()),
      payload_bytes_from_(node_count, 0.0),
      guard_(sim_.addInsertionGuard(
          [this](SimTime at) { onInsertion(at); })) {
  RTDRM_ASSERT(node_count > 0);
  RTDRM_ASSERT(config_.mtu > Bytes::zero());
  RTDRM_ASSERT(config_.rate.bitsPerSecond() > 0.0);
  RTDRM_ASSERT(config_.host_ns_per_byte >= 0.0);
}

Ethernet::~Ethernet() {
  sim_.removeInsertionGuard(guard_);  // its callback points at this bus
}

void Ethernet::send(Message msg) {
  RTDRM_ASSERT(msg.src.value < nics_.size());
  RTDRM_ASSERT(msg.dst.value < nics_.size());
  RTDRM_ASSERT(msg.payload >= Bytes::zero());

  if (msg.src == msg.dst) {
    // Same-node delivery: shared memory hand-off, no wire involvement and
    // no marshalling stage (the payload never crosses the protocol stack).
    // Faults never touch this path either — it has no frames to lose.
    const MessageReceipt receipt{sim_.now(), sim_.now(),
                                 sim_.now() + config_.propagation,
                                 msg.payload};
    auto cb = std::move(msg.on_delivered);
    sim_.scheduleAfter(config_.propagation,
                       [this, cb = std::move(cb), receipt] {
      ++delivered_;
      if (delivery_observer_) {
        delivery_observer_(receipt);
      }
      if (cb) {
        cb(receipt);
      }
    });
    return;
  }

  Pending p{std::move(msg), sim_.now(), sim_.now(), Bytes::zero(), false};
  p.remaining = p.msg.payload;
  const std::size_t nic = p.msg.src.value;

  // Host marshalling stage (sequential per NIC): the message becomes
  // wire-eligible only after the protocol stack has processed its bytes.
  const SimDuration marshal = SimDuration::millis(
      config_.host_ns_per_byte * p.msg.payload.count() * 1e-6);
  const SimTime start =
      std::max(sim_.now(), marshal_busy_until_[nic]);
  const SimTime done = start + marshal;
  marshal_busy_until_[nic] = done;
  if (done <= sim_.now()) {
    onMarshalled(nic, std::move(p));
  } else {
    sim_.scheduleAt(done, [this, nic, p = std::move(p)]() mutable {
      onMarshalled(nic, std::move(p));
    });
  }
}

void Ethernet::onMarshalled(std::size_t nic, Pending p) {
  if (train_.active && nic != train_.nic) {
    // A second NIC is wire-eligible: it wins the next frame grant, exactly
    // as on the per-frame path, so the train ends with the frame in flight.
    splitTrain();
  }
  if (nics_[nic].empty()) {
    ++backlogged_nics_;
  }
  nics_[nic].push_back(std::move(p));
  arbitrate();
}

void Ethernet::setFrameFateHook(FrameFateHook hook) {
  if (hook != nullptr && train_.active) {
    splitTrain();  // the hook decides from the frame in flight onward
  }
  frame_fate_hook_ = std::move(hook);
}

Bytes Ethernet::frameChunk(Bytes remaining) const {
  return std::min(config_.mtu, std::max(remaining, Bytes::zero()));
}

SimDuration Ethernet::frameTime(Bytes remaining) const {
  // Short payloads are padded to the Ethernet minimum on the wire.
  const Bytes chunk = std::max(frameChunk(remaining), config_.min_payload);
  return config_.rate.transmissionTime(chunk + config_.frame_overhead);
}

void Ethernet::arbitrate() {
  if (bus_busy_) {
    return;
  }
  // Round-robin scan for a backlogged NIC, starting after the last served.
  const std::size_t n = nics_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t nic = (rr_next_ + k) % n;
    if (nics_[nic].empty()) {
      continue;
    }
    Pending& p = nics_[nic].front();
    if (!p.started) {
      p.started = true;
      p.first_bit = sim_.now();
    }
    bus_busy_ = true;
    busy_since_ = sim_.now();
    rr_next_ = (nic + 1) % n;
    ++frames_;
    if (startTrain(nic)) {
      return;
    }
    sim_.scheduleAfter(frameTime(p.remaining),
                       [this, nic] { onFrameEnd(nic); });
    return;
  }
}

bool Ethernet::startTrain(std::size_t nic) {
  // Contended grants and fault runs stay per-frame; so does a message that
  // fits one frame (nothing to skip).
  const Bytes remaining = nics_[nic].front().remaining;
  if (backlogged_nics_ != 1 || frame_fate_hook_ != nullptr ||
      remaining <= config_.mtu) {
    return false;
  }
  // The per-frame path's frame ends, with its own double additions: each
  // frame is scheduled at (previous end) + frameTime(remaining). Every
  // frame but the last carries exactly one MTU, so its wire time is the
  // full frame's.
  train_.ends.clear();
  const SimDuration full = frameTime(config_.mtu);
  SimTime end = sim_.now();
  Bytes left = remaining;
  while (left > config_.mtu) {
    end = end + full;
    train_.ends.push_back(end);
    left = left - config_.mtu;
  }
  end = end + frameTime(left);
  train_.ends.push_back(end);

  train_.active = true;
  train_.nic = nic;
  train_.passed = 0;
  train_.remaining = remaining;
  // The train's event takes the key frame 0's end event would have taken.
  train_.mark = sim_.orderMark();
  train_.event = sim_.scheduleAt(end, [this] { onTrainEnd(); });
  sim_.armInsertionGuard(guard_, train_.ends.front(), end);
  return true;
}

void Ethernet::catchUp() const {
  if (!train_.active) {
    return;
  }
  // Tie rule: while a train runs, no event is scheduled at a frame end
  // still ahead (onInsertion splits first), so an event due exactly at a
  // pending frame end was scheduled before the train started — before the
  // per-frame path would have scheduled that frame end. The frame end
  // therefore sorts right after the train's own key: it has passed iff
  // execution at now() has moved past that key.
  const SimTime now = sim_.now();
  const bool past_mark = sim_.firedPast(train_.mark);
  const std::size_t last = train_.ends.size() - 1;
  std::size_t upto = train_.passed;
  while (upto < last) {
    const SimTime end = train_.ends[upto];
    if (end > now || (end == now && !past_mark)) {
      break;
    }
    ++upto;
  }
  passFrameEnds(upto);
}

void Ethernet::passFrameEnds(std::size_t upto) const {
  if (upto == train_.passed) {
    return;
  }
  SimDuration busy = busy_accum_;
  SimTime since = busy_since_;
  Bytes remaining = train_.remaining;
  double payload = payload_bytes_;
  double from = payload_bytes_from_[train_.nic];
  const double mtu = config_.mtu.count();
  for (std::size_t i = train_.passed; i < upto; ++i) {
    const SimTime end = train_.ends[i];
    // onFrameEnd() for a delivered full frame...
    busy += end - since;
    remaining = remaining - config_.mtu;
    payload += mtu;
    from += mtu;
    // ...then arbitrate() granting the next frame to the same NIC.
    since = end;
  }
  busy_accum_ = busy;
  busy_since_ = since;
  train_.remaining = remaining;
  payload_bytes_ = payload;
  payload_bytes_from_[train_.nic] = from;
  frames_ += upto - train_.passed;
  train_.passed = upto;
}

void Ethernet::splitTrain() {
  catchUp();
  sim_.disarmInsertionGuard(guard_);
  sim_.cancel(train_.event);
  train_.active = false;
  const std::size_t nic = train_.nic;
  nics_[nic].front().remaining = train_.remaining;
  // Nothing was scheduled at this instant since the train started (see
  // onInsertion), so a fresh key sorts where the per-frame path's would.
  sim_.scheduleAt(train_.ends[train_.passed],
                  [this, nic] { onFrameEnd(nic); });
}

void Ethernet::onTrainEnd() {
  sim_.disarmInsertionGuard(guard_);
  passFrameEnds(train_.ends.size() - 1);
  train_.active = false;
  nics_[train_.nic].front().remaining = train_.remaining;
  onFrameEnd(train_.nic);
}

void Ethernet::onInsertion(SimTime at) {
  catchUp();
  if (std::binary_search(train_.ends.begin() + train_.passed,
                         train_.ends.end(), at)) {
    splitTrain();
  }
}

void Ethernet::onFrameEnd(std::size_t nic) {
  RTDRM_ASSERT(bus_busy_ && !nics_[nic].empty());
  busy_accum_ += sim_.now() - busy_since_;
  bus_busy_ = false;

  Pending& p = nics_[nic].front();
  // The bus is one link: every frame is one hop on (segment 0, port 0).
  const FrameFate fate =
      frame_fate_hook_
          ? frame_fate_hook_(FrameHop{p.msg.src, p.msg.dst, 0, 0})
          : FrameFate::kDeliver;
  if (fate == FrameFate::kLose) {
    // The wire time is spent but the receiver rejects the frame (bad FCS).
    // The chunk was never applied and the message stays at the head of its
    // NIC queue, so the link layer retransmits on the next bus grant.
    ++frames_lost_;
    arbitrate();
    return;
  }
  // A duplicate re-sends the frame just serialized; its wire time must be
  // computed before the chunk below shrinks the remaining payload.
  const SimDuration dup_time = fate == FrameFate::kDuplicate
                                   ? frameTime(p.remaining)
                                   : SimDuration::zero();
  const Bytes chunk = frameChunk(p.remaining);
  p.remaining = p.remaining - chunk;
  payload_bytes_ += chunk.count();
  payload_bytes_from_[nic] += chunk.count();

  if (p.remaining <= Bytes::zero()) {
    const MessageReceipt receipt{p.enqueued, p.first_bit,
                                 sim_.now() + config_.propagation,
                                 p.msg.payload};
    auto cb = std::move(p.msg.on_delivered);
    nics_[nic].pop_front();
    if (nics_[nic].empty()) {
      --backlogged_nics_;
    }
    sim_.scheduleAfter(config_.propagation,
                       [this, cb = std::move(cb), receipt] {
      ++delivered_;
      if (delivery_observer_) {
        delivery_observer_(receipt);
      }
      if (cb) {
        cb(receipt);
      }
    });
  }

  if (fate == FrameFate::kDuplicate) {
    // The spurious copy occupies the wire for the same frame time. The
    // receiver already accepted the original, so the copy is discarded on
    // arrival: no second receipt, chunk, or payload attribution.
    ++frames_;
    ++frames_duplicated_;
    bus_busy_ = true;
    busy_since_ = sim_.now();
    sim_.scheduleAfter(dup_time, [this] { onDuplicateEnd(); });
    return;
  }
  arbitrate();
}

void Ethernet::onDuplicateEnd() {
  RTDRM_ASSERT(bus_busy_);
  busy_accum_ += sim_.now() - busy_since_;
  bus_busy_ = false;
  arbitrate();
}

SimDuration Ethernet::busyTime() const {
  catchUp();
  if (!bus_busy_) {
    return busy_accum_;
  }
  return busy_accum_ + (sim_.now() - busy_since_);
}

std::uint64_t Ethernet::framesOnWire() const {
  catchUp();
  return frames_;
}

double Ethernet::payloadBytesCarried() const {
  catchUp();
  return payload_bytes_;
}

double Ethernet::payloadBytesFrom(ProcessorId nic) const {
  RTDRM_ASSERT(nic.value < payload_bytes_from_.size());
  catchUp();
  return payload_bytes_from_[nic.value];
}

std::size_t Ethernet::backloggedMessages() const {
  std::size_t total = 0;
  for (const auto& q : nics_) {
    total += q.size();
  }
  return total;
}

void Ethernet::exportMetrics(obs::MetricsRegistry& reg) const {
  catchUp();
  reg.counter("net.messages_delivered").set(delivered_);
  reg.counter("net.frames_on_wire").set(frames_);
  reg.counter("net.frames_lost").set(frames_lost_);
  reg.counter("net.frames_duplicated").set(frames_duplicated_);
  reg.counter("net.payload_bytes")
      .set(static_cast<std::uint64_t>(payload_bytes_));
  reg.gauge("net.backlogged_messages")
      .set(static_cast<double>(backloggedMessages()));
  const double now_ms = sim_.now().ms();
  reg.gauge("net.wire_utilization")
      .set(now_ms > 0.0 ? busyTime().ms() / now_ms : 0.0);
}

Utilization NetworkProbe::peek() const {
  const SimDuration window = sim_.now() - last_t_;
  if (window <= SimDuration::zero()) {
    return Utilization::zero();
  }
  // Capacity 1.0 (the bus) divides exactly, so the legacy path is
  // bit-identical; multi-link fabrics normalize by their link count.
  return Utilization::fraction((net_.busyTime() - last_busy_) / window /
                               net_.utilizationCapacity());
}

Utilization NetworkProbe::sample() {
  const Utilization u = peek();
  last_t_ = sim_.now();
  last_busy_ = net_.busyTime();
  return u;
}

}  // namespace rtdrm::net
