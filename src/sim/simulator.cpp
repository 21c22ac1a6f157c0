#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace rtdrm::sim {

namespace {
// 4-ary heap: shallower than binary for the same size, so push/pop walk
// fewer levels; the 4-way child scan stays within two cache lines.
constexpr std::size_t kArity = 4;
}  // namespace

std::uint32_t Simulator::acquireSlot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].link;
    return idx;
  }
  RTDRM_ASSERT_MSG(slots_.size() < kNoSlot, "event slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::releaseSlot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.cb = nullptr;  // release the closure immediately
  ++s.generation;  // invalidates the outstanding EventId and queue entry
  s.link = free_head_;
  free_head_ = idx;
}

void Simulator::heapPush(const HeapEntry& e) {
  std::size_t pos = heap_.size();
  heap_.push_back(e);
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!firesBefore(e, heap_[parent])) {
      break;
    }
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void Simulator::heapPopHead() {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) {
    return;
  }
  std::size_t pos = 0;
  for (;;) {
    const std::size_t first_child = pos * kArity + 1;
    if (first_child >= size) {
      break;
    }
    const std::size_t last_child = std::min(first_child + kArity, size);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (firesBefore(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!firesBefore(heap_[best], moved)) {
      break;
    }
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = moved;
}

void Simulator::pruneStale() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) {
                               return slots_[e.slot].generation !=
                                      e.generation;
                             }),
              heap_.end());
  stale_ = 0;
  // Heapify bottom-up (Floyd): O(n).
  if (heap_.size() < 2) {
    return;
  }
  for (std::size_t pos = (heap_.size() - 2) / kArity + 1; pos-- > 0;) {
    const HeapEntry e = heap_[pos];
    std::size_t hole = pos;
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first_child = hole * kArity + 1;
      if (first_child >= size) {
        break;
      }
      const std::size_t last_child = std::min(first_child + kArity, size);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (firesBefore(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!firesBefore(heap_[best], e)) {
        break;
      }
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = e;
  }
}

Simulator::HeapEntry Simulator::store(SimTime at, std::uint64_t seq_key,
                                      Callback&& cb, std::uint32_t queue) {
  RTDRM_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  RTDRM_ASSERT(cb != nullptr);
  const std::uint32_t idx = acquireSlot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  s.link = queue;
  ++live_;
  ++events_scheduled_;
  return HeapEntry{at.ms(), seq_key, idx, s.generation};
}

EventId Simulator::scheduleKeyed(SimTime at, std::uint64_t seq_key,
                                 Callback&& cb) {
  const HeapEntry e = store(at, seq_key, std::move(cb), kHeapQueue);
  heapPush(e);
  if (heap_.size() > peak_heap_depth_) {
    peak_heap_depth_ = heap_.size();
  }
  return idOf(e);
}

EventId Simulator::scheduleAt(SimTime at, Callback cb) {
  guardInsertion(at);
  return scheduleKeyed(at, next_seq_++, std::move(cb));
}

EventId Simulator::scheduleAtMerged(SimTime at, std::uint32_t src_shard,
                                    std::uint64_t src_seq, Callback cb) {
  RTDRM_ASSERT_MSG(src_shard < (1u << 15), "shard id overflows the key");
  RTDRM_ASSERT_MSG(src_seq < (1ull << 48), "post sequence overflows the key");
  const std::uint64_t key =
      kMergedBand | (static_cast<std::uint64_t>(src_shard) << 48) | src_seq;
  guardInsertion(at);
  return scheduleKeyed(at, key, std::move(cb));
}

Simulator::GuardId Simulator::addInsertionGuard(InsertionGuard fn) {
  RTDRM_ASSERT(fn != nullptr);
  for (GuardId id = 0; id < guards_.size(); ++id) {
    if (guards_[id].fn == nullptr) {
      guards_[id].fn = std::move(fn);
      return id;
    }
  }
  guards_.push_back(Guard{std::move(fn)});
  return static_cast<GuardId>(guards_.size() - 1);
}

void Simulator::removeInsertionGuard(GuardId id) {
  disarmInsertionGuard(id);
  guards_[id].fn = nullptr;
}

void Simulator::armInsertionGuard(GuardId id, SimTime lo, SimTime hi) {
  Guard& g = guards_[id];
  RTDRM_ASSERT_MSG(!g.armed, "insertion guard already armed");
  RTDRM_ASSERT(lo <= hi && g.fn != nullptr);
  g.lo = lo.ms();
  g.hi = hi.ms();
  g.armed = true;
  spans_.push_back(id);
}

void Simulator::disarmInsertionGuard(GuardId id) {
  // Only the window closes: the callable may be the one running right now.
  Guard& g = guards_[id];
  if (!g.armed) {
    return;
  }
  g.armed = false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i] == id) {
      spans_[i] = spans_.back();
      spans_.pop_back();
      break;
    }
  }
}

void Simulator::runGuards(SimTime at) {
  const double ms = at.ms();
  // Backwards, so that a client disarming itself (swapped out of the list
  // by the last one, already visited) skips nobody.
  for (std::size_t i = spans_.size(); i-- > 0;) {
    if (i >= spans_.size()) {
      continue;
    }
    Guard& g = guards_[spans_[i]];
    if (ms >= g.lo && ms <= g.hi) {
      g.fn(at);
    }
  }
}

Simulator::TimelineId Simulator::addTimeline(Timeline* timeline) {
  RTDRM_ASSERT(timeline != nullptr);
  for (TimelineId id = 0; id < timelines_.size(); ++id) {
    if (timelines_[id].timeline == nullptr) {
      timelines_[id] = TimelineSlot{timeline};
      return id;
    }
  }
  timelines_.push_back(TimelineSlot{timeline});
  return static_cast<TimelineId>(timelines_.size() - 1);
}

void Simulator::removeTimeline(TimelineId id) {
  clearTimelineNext(id);
  timelines_[id].timeline = nullptr;
}

void Simulator::setTimelineNext(TimelineId id, SimTime at,
                                std::uint64_t key) {
  RTDRM_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  TimelineSlot& t = timelines_[id];
  const bool earlier = t.pos == kNoSlot || at.ms() < t.at_ms ||
                       (at.ms() == t.at_ms && key < t.key);
  t.at_ms = at.ms();
  t.key = key;
  if (t.pos == kNoSlot) {
    timeline_heap_.push_back(id);
    t.pos = static_cast<std::uint32_t>(timeline_heap_.size() - 1);
  }
  if (earlier) {
    siftTimelineUp(t.pos);
  } else {
    siftTimelineDown(t.pos);
  }
}

void Simulator::clearTimelineNext(TimelineId id) {
  TimelineSlot& t = timelines_[id];
  if (t.pos == kNoSlot) {
    return;
  }
  const std::size_t pos = t.pos;
  t.pos = kNoSlot;
  const TimelineId last = timeline_heap_.back();
  timeline_heap_.pop_back();
  if (pos < timeline_heap_.size()) {
    placeTimeline(pos, last);
    siftTimelineUp(pos);
    siftTimelineDown(timelines_[last].pos);
  }
}

void Simulator::siftTimelineUp(std::size_t pos) {
  const TimelineId id = timeline_heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!instantBefore(timelines_[id], timelines_[timeline_heap_[parent]])) {
      break;
    }
    placeTimeline(pos, timeline_heap_[parent]);
    pos = parent;
  }
  placeTimeline(pos, id);
}

void Simulator::siftTimelineDown(std::size_t pos) {
  const TimelineId id = timeline_heap_[pos];
  const std::size_t size = timeline_heap_.size();
  for (;;) {
    std::size_t best = 2 * pos + 1;
    if (best >= size) {
      break;
    }
    if (best + 1 < size &&
        instantBefore(timelines_[timeline_heap_[best + 1]],
                      timelines_[timeline_heap_[best]])) {
      ++best;
    }
    if (!instantBefore(timelines_[timeline_heap_[best]], timelines_[id])) {
      break;
    }
    placeTimeline(pos, timeline_heap_[best]);
    pos = best;
  }
  placeTimeline(pos, id);
}

void Simulator::fireInstant() {
  const TimelineSlot& t = timelines_[timeline_heap_[0]];
  now_ = SimTime::millis(t.at_ms);
  cursor_ = t.key;
  ++instants_applied_;
  t.timeline->applyInstant();
}

EventId Simulator::scheduleAfter(SimDuration delay, Callback cb) {
  RTDRM_ASSERT_MSG(delay >= SimDuration::zero(), "negative delay");
  const SimTime at = now_ + delay;
  for (std::uint32_t i = 0; i < lane_count_; ++i) {
    if (lanes_[i].delay_ms == delay.ms()) {
      // The same guard and key as scheduleAt(): the lane changes where the
      // entry waits, not where it sorts.
      guardInsertion(at);
      const HeapEntry e = store(at, next_seq_++, std::move(cb), i);
      lanes_[i].push(e);
      ++lane_events_;
      return idOf(e);
    }
  }
  // scheduleAt()'s two steps, inline: one callback move fewer per event.
  guardInsertion(at);
  return scheduleKeyed(at, next_seq_++, std::move(cb));
}

void Simulator::addLane(SimDuration delay) {
  RTDRM_ASSERT_MSG(delay >= SimDuration::zero(), "negative delay");
  for (std::uint32_t i = 0; i < lane_count_; ++i) {
    if (lanes_[i].delay_ms == delay.ms()) {
      return;
    }
  }
  if (lane_count_ < kMaxLanes) {
    lanes_[lane_count_++].delay_ms = delay.ms();
  }
}

void Simulator::Lane::push(const HeapEntry& e) {
  if (size == ring.size()) {
    std::vector<HeapEntry> grown(std::max<std::size_t>(16, 2 * ring.size()));
    for (std::size_t i = 0; i < size; ++i) {
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    }
    ring.swap(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = e;
  ++size;
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t idx = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value >> 32);
  if (gen == 0 || idx >= slots_.size() || slots_[idx].generation != gen) {
    return false;  // never existed, already fired, or already cancelled
  }
  const bool in_heap = slots_[idx].link == kHeapQueue;
  releaseSlot(idx);
  --live_;
  ++events_cancelled_;
  if (!in_heap) {
    return true;  // its lane drops the entry when it reaches the head
  }
  ++stale_;
  // Keep the heap at most half dead so memory tracks the live count.
  if (stale_ > heap_.size() / 2 && heap_.size() > 64) {
    pruneStale();
  }
  return true;
}

bool Simulator::fireFrom(std::uint32_t queue) {
  HeapEntry e;
  if (queue == kHeapQueue) {
    e = heap_[0];
    heapPopHead();
  } else {
    e = lanes_[queue].pop();
  }
  Slot& s = slots_[e.slot];
  if (s.generation != e.generation) {
    // Cancelled earlier; its closure is long gone.
    if (queue == kHeapQueue) {
      --stale_;
    }
    return false;
  }
  now_ = SimTime::millis(e.time_ms);
  cursor_ = e.seq;
  Callback cb = std::move(s.cb);
  releaseSlot(e.slot);  // before invoking: the id is dead once it fires
  --live_;
  ++events_executed_;
  if (pre_hook_ != nullptr) {
    pre_hook_();
  }
  cb();
  if (post_hook_ != nullptr) {
    post_hook_();
  }
  return true;
}

template <typename Due>
bool Simulator::runWhile(Due due) {
  for (;;) {
    // Raw heads: a stale head is dropped when popped, as it comes due.
    std::uint32_t queue = kHeapQueue;
    const HeapEntry* h = head(&queue);
    if (instantFirst(h)) {
      if (!due(nextInstantMs())) {
        return true;
      }
      fireInstant();
      continue;
    }
    if (h == nullptr || !due(h->time_ms)) {
      return true;
    }
    if (fireFrom(queue) && consumeStop()) {
      return false;  // clock stays at the event that requested the stop
    }
  }
}

bool Simulator::runUntil(SimTime until) {
  if (consumeStop()) {
    return false;  // stop requested between runs: honor it, fire nothing
  }
  const double until_ms = until.ms();
  if (!runWhile([until_ms](double t) { return t <= until_ms; })) {
    return false;
  }
  if (now_ <= until) {
    now_ = until;  // idle forward to the horizon
    cursor_ = kAfterAll;  // everything due at `until` has fired
  }
  return true;
}

bool Simulator::runUntilBefore(SimTime before) {
  if (consumeStop()) {
    return false;  // stop requested between runs: honor it, fire nothing
  }
  const double before_ms = before.ms();
  if (!runWhile([before_ms](double t) { return t < before_ms; })) {
    return false;
  }
  if (now_ < before) {
    now_ = before;  // idle forward to the (exclusive) horizon
    cursor_ = 0;    // nothing due at `before` has fired
  }
  return true;
}

bool Simulator::runAll() {
  if (consumeStop()) {
    return false;
  }
  if (!runWhile([](double) { return true; })) {
    return false;
  }
  cursor_ = kAfterAll;
  return true;
}

void Simulator::pruneStaleHeads() {
  while (!heap_.empty() && stale(heap_[0])) {
    heapPopHead();
    --stale_;
  }
  for (std::uint32_t i = 0; i < lane_count_; ++i) {
    Lane& l = lanes_[i];
    while (l.size != 0 && stale(l.front())) {
      l.pop();
    }
  }
}

bool Simulator::peekNextEvent(SimTime* out) {
  // Drop stale (cancelled) heads so the reported time is the next event
  // that would actually fire — a stale upper bound would make the sharded
  // engine open windows around events that no longer exist.
  pruneStaleHeads();
  std::uint32_t queue = kHeapQueue;
  const HeapEntry* h = head(&queue);
  if (instantFirst(h)) {
    *out = SimTime::millis(nextInstantMs());
    return true;
  }
  if (h == nullptr) {
    return false;
  }
  *out = SimTime::millis(h->time_ms);
  return true;
}

void Simulator::exportMetrics(obs::MetricsRegistry& reg) const {
  reg.counter("sim.events_scheduled").set(events_scheduled_);
  reg.counter("sim.events_executed").set(events_executed_);
  reg.counter("sim.events_cancelled").set(events_cancelled_);
  reg.counter("sim.lane_events").set(lane_events_);
  reg.gauge("sim.pending_events").set(static_cast<double>(live_));
  reg.gauge("sim.peak_heap_depth").set(static_cast<double>(peak_heap_depth_));
  reg.gauge("sim.now_ms").set(now_.ms());
}

bool Simulator::step() {
  // "Step" means "execute one live event": skip stale entries. A timeline
  // instant is a step of its own.
  pruneStaleHeads();
  std::uint32_t queue = kHeapQueue;
  const HeapEntry* h = head(&queue);
  if (instantFirst(h)) {
    fireInstant();
    return true;
  }
  return h != nullptr && fireFrom(queue);
}

PeriodicActivity::PeriodicActivity(Simulator& simulator, SimDuration period,
                                   TickFn fn)
    : sim_(simulator), period_(period), fn_(std::move(fn)) {
  RTDRM_ASSERT(period_ > SimDuration::zero());
  RTDRM_ASSERT(fn_ != nullptr);
}

void PeriodicActivity::start(SimTime first) {
  RTDRM_ASSERT_MSG(!running_, "activity already started");
  running_ = true;
  arm(first);
}

void PeriodicActivity::arm(SimTime at) {
  pending_ = sim_.scheduleAt(at, [this] {
    const std::uint64_t this_tick = tick_++;
    // Re-arm before invoking so the callback may call stop() to cancel the
    // next occurrence.
    arm(sim_.now() + period_);
    fn_(this_tick);
  });
}

void PeriodicActivity::setPeriod(SimDuration period) {
  RTDRM_ASSERT(period > SimDuration::zero());
  period_ = period;
}

void PeriodicActivity::stop() {
  if (running_) {
    sim_.cancel(pending_);
    running_ = false;
  }
}

}  // namespace rtdrm::sim
