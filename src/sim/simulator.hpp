// Discrete-event simulation kernel.
//
// A single-threaded event calendar: callbacks are scheduled at absolute
// simulation times and executed in (time, insertion-order) order. Insertion
// order as the tie-break makes runs bit-reproducible — two events at the
// same timestamp always fire in the order they were scheduled, regardless
// of heap internals.
//
// Hot-path design (see docs/architecture.md, "Simulation kernel"):
//   * Closures live in a free-list slab of slots (closure + generation).
//     Scheduling reuses a freed slot or grows the slab; steady-state churn
//     performs zero allocations and zero map/set traffic.
//   * A 4-ary min-heap of 24-byte entries {time, seq, slot, generation}
//     orders the calendar. The sort key is stored *in* the entry, so sift
//     comparisons stay inside the contiguous heap array instead of chasing
//     slot pointers.
//   * cancel() is O(1): it bumps the slot's generation and releases the
//     closure immediately. The heap entry stays behind and is recognised
//     as stale (generation mismatch) when it reaches the head, at the cost
//     of one integer compare. If more than half the heap goes stale the
//     heap is pruned and rebuilt in one O(n) pass, so memory stays
//     proportional to the live event count.
//   * EventIds carry (generation << 32 | slot): a stale id — already fired
//     or cancelled, slot since reused — fails the generation check.
//   * Closures are stored as sim::EventFn (event_fn.hpp): move-only, with
//     inline storage for the common small captures.
//   * Delay lanes: a model that schedules many events at one fixed delay
//     registers it with addLane(), and scheduleAfter() with exactly that
//     delay appends the entry to the lane's FIFO ring instead of the heap.
//     The clock never runs back and keys only grow, so a lane is sorted by
//     (time, key) as it fills; the run loops take the earliest of the heap
//     head, the lane heads and the next timeline instant, so the order is
//     the heap-only order bit for bit. A cancelled lane entry is dropped
//     when it reaches its lane's head. Only the switched fabric registers
//     lanes (net/fabric.hpp).
//
// This is the substrate every other module runs on: processors, the
// Ethernet bus, clock sync, the workload source, and the resource manager
// are all just event producers/consumers on one Simulator.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/event_fn.hpp"

namespace rtdrm::obs {
class MetricsRegistry;
}  // namespace rtdrm::obs

namespace rtdrm::sim {

/// Opaque handle to a scheduled event; used for cancellation.
struct EventId {
  std::uint64_t value = 0;
  constexpr auto operator<=>(const EventId&) const = default;
};

class Simulator {
 public:
  using Callback = EventFn<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `at` (must not be in the past).
  EventId scheduleAt(SimTime at, Callback cb);
  /// Schedule `cb` after a delay relative to now (delay >= 0). A delay
  /// equal to a registered lane's goes through that lane (see addLane).
  EventId scheduleAfter(SimDuration delay, Callback cb);

  /// Registers a delay lane: scheduleAfter() calls whose delay is exactly
  /// `delay` append to a FIFO instead of the heap. Lane events are
  /// ordinary events (keys, EventIds, cancel(), hooks and counters as for
  /// heap events) and fire in the same order. At most kMaxLanes lanes; a
  /// further or repeated registration is a no-op.
  void addLane(SimDuration delay);
  static constexpr std::size_t kMaxLanes = 4;

  /// Schedule a cross-shard post merged in by a sharded engine. The
  /// tie-break against same-time events is *intrinsic* — (source shard,
  /// per-source sequence), with every merged post ordered after every
  /// locally scheduled event at the same timestamp — instead of insertion
  /// order. That makes the execution order independent of *when* the
  /// engine merges the post (which barrier, which window-sizing policy),
  /// which is what keeps static- and adaptive-lookahead runs byte
  /// identical. Local scheduling order is untouched: merged posts do not
  /// consume local sequence numbers.
  EventId scheduleAtMerged(SimTime at, std::uint32_t src_shard,
                           std::uint64_t src_seq, Callback cb);

  /// Cancel a pending event. Returns false if it already fired, was already
  /// cancelled, or never existed. O(1): the closure is released here.
  bool cancel(EventId id);

  /// Run until the event queue drains or `until` is reached, whichever is
  /// first. The clock is left at min(until, time of last event). Events
  /// scheduled exactly at `until` do fire. Returns false when the run was
  /// cut short by requestStop() (consumed), true when it ran to the
  /// horizon / drained the queue.
  bool runUntil(SimTime until);
  /// Run for a duration from the current time.
  bool runFor(SimDuration d) { return runUntil(now_ + d); }
  /// Half-open variant: fires events strictly *before* `before` and leaves
  /// the clock at `before` (events exactly at `before` stay pending). The
  /// sharded engine executes barrier windows [now, horizon) with this, so
  /// a cross-shard post landing exactly on a shard's horizon still orders
  /// against that shard's same-time local events by the merged-post rule
  /// rather than by which side ran first. Stop handling as in runUntil.
  /// A `before` at or behind the clock fires nothing and keeps the clock.
  bool runUntilBefore(SimTime before);
  /// Run until the queue is completely empty. Returns false when stopped.
  /// Every run applies timeline instants (see Timeline) in their turn.
  bool runAll();
  /// Execute the single next event, if any. Returns false when queue empty.
  /// Unaffected by requestStop(): step() is already a single-event run.
  /// A timeline instant that comes first is the step.
  bool step();

  /// Time of the next live event without executing it; false when the
  /// calendar is empty. Prunes stale (cancelled) heads as a side effect,
  /// so the answer is exact, not an upper bound. The sharded engine sizes
  /// its barrier windows with this. Timeline instants count.
  bool peekNextEvent(SimTime* out);

  /// Installs a hook invoked after every executed event's callback returns
  /// (correctness oracles sweep system invariants here). Pass nullptr to
  /// clear. At most one hook; the previous one is replaced.
  void setPostEventHook(Callback hook) { post_hook_ = std::move(hook); }
  bool hasPostEventHook() const { return post_hook_ != nullptr; }
  /// Installs a hook invoked before every executed event's callback, once
  /// the clock and the execution cursor sit at the event. A quantity that
  /// only grows between events (a gossip row's age, a recovery clock) is
  /// at its supremum here, however far apart the events are. Pass nullptr
  /// to clear. At most one hook; the previous one is replaced.
  void setPreEventHook(Callback hook) { pre_hook_ = std::move(hook); }

  /// Same-time order key the next scheduleAt()/scheduleAfter() call will
  /// take. A model that elides events it would otherwise schedule (the
  /// bus's frame trains, net/ethernet.hpp) keeps this to know where the
  /// elided events would have sat among equal-time events.
  std::uint64_t orderMark() const { return next_seq_; }
  /// True when execution at now() has moved past same-time key `mark`:
  /// the running event (or, between runs, the last one fired) sorts after
  /// it, or a run reached its horizon at now() and so fired everything due
  /// there. False before any event at now() has fired, and after
  /// runUntilBefore() idles the clock to its exclusive horizon.
  bool firedPast(std::uint64_t mark) const { return cursor_ > mark; }
  /// Consumes the same-time order key the next schedule call would take,
  /// without scheduling anything (and without running the insertion
  /// guard). Timelines key their instants with it.
  std::uint64_t takeOrderKey() { return next_seq_++; }

  /// Timelines: models that hold their next instant as local state instead
  /// of as an event (node trains, node/processor.hpp). The model publishes
  /// its next instant as (time, same-time key), taking the key with
  /// takeOrderKey() where it would have scheduled the event, and every run
  /// loop applies it in its turn among the calendar's events: an instant
  /// is an event in all but its cost. It runs no event hook and is not
  /// counted in eventsExecuted().
  class Timeline {
   public:
    /// Applies the instant last published. The clock and the cursor sit at
    /// it; the model publishes its next one (or clears it) before
    /// returning.
    virtual void applyInstant() = 0;

   protected:
    ~Timeline() = default;
  };
  using TimelineId = std::uint32_t;
  TimelineId addTimeline(Timeline* timeline);
  void removeTimeline(TimelineId id);
  void setTimelineNext(TimelineId id, SimTime at, std::uint64_t key);
  void clearTimelineNext(TimelineId id);
  /// Timeline instants applied so far (not events; see Timeline).
  std::uint64_t instantsApplied() const { return instants_applied_; }

  /// Insertion guard clients. An armed client's `fn(at)` runs at the start
  /// of every schedule call whose time `at` lies in its [lo, hi], before
  /// the new event takes its same-time order key, so an event the client
  /// schedules sorts ahead of it at equal times. The callback may disarm
  /// its own client and schedule events (the other clients' guards run for
  /// those); it must not re-arm it.
  using InsertionGuard = EventFn<void(SimTime)>;
  using GuardId = std::uint32_t;
  GuardId addInsertionGuard(InsertionGuard fn);
  void removeInsertionGuard(GuardId id);
  void armInsertionGuard(GuardId id, SimTime lo, SimTime hi);
  void disarmInsertionGuard(GuardId id);
  bool insertionGuardArmed(GuardId id) const {
    return guards_[id].armed;
  }

  /// Request that the run loop stop after the current event returns.
  ///
  /// Semantics: the flag is *consumed* by the run loop, not reset on entry.
  /// If requestStop() is called while no run loop is active, the next
  /// runUntil/runFor/runAll returns immediately — firing no events and
  /// leaving the clock untouched — and clears the flag, so the run after
  /// that proceeds normally. A stop requested mid-run halts the loop after
  /// the current callback returns, leaving the clock at that event's time.
  ///
  /// The flag is an atomic handshake: requestStop()/stopPending() are safe
  /// from any thread (e.g. asking a shard to wind down from the sharded
  /// engine's coordinator), though the run loops themselves stay
  /// single-threaded per simulator.
  void requestStop() {
    stop_requested_.store(true, std::memory_order_release);
  }
  /// True when a stop has been requested but no run loop has consumed it.
  bool stopPending() const {
    return stop_requested_.load(std::memory_order_acquire);
  }
  /// Consumes a pending stop request without running anything; returns
  /// true if one was pending. The sharded engine uses this to honor a
  /// shard-level stop on a shard whose window was *skipped* (adaptive
  /// lookahead) — the request must still halt the engine exactly once, not
  /// linger to spuriously cut a later run short.
  bool consumeStopRequest() { return consumeStop(); }

  std::uint64_t eventsExecuted() const { return events_executed_; }
  std::size_t pendingEvents() const { return live_; }
  std::uint64_t eventsScheduled() const { return events_scheduled_; }
  std::uint64_t eventsCancelled() const { return events_cancelled_; }
  /// High-water mark of the calendar heap (live + stale entries). Lane
  /// entries are not in the heap and do not count.
  std::size_t peakHeapDepth() const { return peak_heap_depth_; }
  /// Events scheduled through a delay lane.
  std::uint64_t laneEvents() const { return lane_events_; }

  /// Publishes kernel counters into `reg` under "sim." names.
  void exportMetrics(obs::MetricsRegistry& reg) const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Queue ids: a lane index, or the heap.
  static constexpr std::uint32_t kHeapQueue = kMaxLanes;

  struct Slot {
    Callback cb;
    std::uint32_t generation = 1;  // bumped on release; 0 is never valid
    /// Free: the next free slot. Live: the queue holding its entry.
    std::uint32_t link = kNoSlot;
  };

  struct HeapEntry {
    double time_ms;
    /// Same-time tie-break key. Local events: plain insertion order (top
    /// bit clear), FIFO as always. Merged cross-shard posts: top bit set,
    /// then (source shard, per-source sequence) — a canonical order that
    /// does not depend on when the post was merged in. All locals at a
    /// timestamp fire before all merged posts at that timestamp.
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation; // stale when != slots_[slot].generation
  };

  static constexpr std::uint64_t kMergedBand = 1ull << 63;

  static bool firesBefore(const HeapEntry& a, const HeapEntry& b) {
    if (a.time_ms != b.time_ms) {
      return a.time_ms < b.time_ms;
    }
    return a.seq < b.seq;
  }

  EventId scheduleKeyed(SimTime at, std::uint64_t seq_key, Callback&& cb);
  /// Stores `cb` in a fresh slot tagged with `queue`; returns its entry.
  HeapEntry store(SimTime at, std::uint64_t seq_key, Callback&& cb,
                  std::uint32_t queue);
  static EventId idOf(const HeapEntry& e) {
    return EventId{(static_cast<std::uint64_t>(e.generation) << 32) | e.slot};
  }
  /// Runs the armed insertion guards whose span holds `at`.
  void guardInsertion(SimTime at) {
    if (!spans_.empty()) [[unlikely]] {
      runGuards(at);
    }
  }
  void runGuards(SimTime at);
  std::uint32_t acquireSlot();
  void releaseSlot(std::uint32_t idx);
  void heapPush(const HeapEntry& e);
  void heapPopHead();
  /// Drops stale entries and rebuilds the heap in place, O(n).
  void pruneStale();

  /// A delay lane: a FIFO ring of entries, sorted by (time, key) because
  /// every entry is now() + delay with a fresh key.
  struct Lane {
    double delay_ms = 0.0;
    std::vector<HeapEntry> ring;  // capacity 0 or a power of two
    std::size_t head = 0;
    std::size_t size = 0;
    const HeapEntry& front() const { return ring[head]; }
    void push(const HeapEntry& e);
    HeapEntry pop() {
      const HeapEntry e = ring[head];
      head = (head + 1) & (ring.size() - 1);
      --size;
      return e;
    }
  };
  /// The raw head (stale or not) that fires first among the heap and the
  /// lanes, with its queue in `*queue`; nullptr when all are empty.
  const HeapEntry* head(std::uint32_t* queue) const {
    const HeapEntry* best = nullptr;
    if (!heap_.empty()) {
      best = &heap_[0];
      *queue = kHeapQueue;
    }
    for (std::uint32_t i = 0; i < lane_count_; ++i) {
      const Lane& l = lanes_[i];
      if (l.size != 0 && (best == nullptr || firesBefore(l.front(), *best))) {
        best = &l.front();
        *queue = i;
      }
    }
    return best;
  }
  bool stale(const HeapEntry& e) const {
    return slots_[e.slot].generation != e.generation;
  }

  /// Pops the head entry of `queue`; executes it unless stale. Returns
  /// true when a live event ran. Pre: the queue is non-empty.
  bool fireFrom(std::uint32_t queue);
  /// Drops stale (cancelled) heads from the heap and every lane.
  void pruneStaleHeads();
  /// Fires instants and events in order while `due(time)` holds; false
  /// when a requested stop cut the run short.
  template <typename Due>
  bool runWhile(Due due);

  struct TimelineSlot {
    Timeline* timeline = nullptr;  // nullptr while the slot is free
    double at_ms = 0.0;
    std::uint64_t key = 0;
    std::uint32_t pos = kNoSlot;  // index in timeline_heap_, or kNoSlot
  };
  static bool instantBefore(const TimelineSlot& a, const TimelineSlot& b) {
    return a.at_ms < b.at_ms || (a.at_ms == b.at_ms && a.key < b.key);
  }
  /// True when the earliest timeline instant comes before `h`, the
  /// calendar's head (nullptr when the calendar is empty).
  bool instantFirst(const HeapEntry* h) const {
    if (timeline_heap_.empty()) {
      return false;
    }
    if (h == nullptr) {
      return true;
    }
    const TimelineSlot& t = timelines_[timeline_heap_[0]];
    return t.at_ms < h->time_ms || (t.at_ms == h->time_ms && t.key < h->seq);
  }
  double nextInstantMs() const {
    return timelines_[timeline_heap_[0]].at_ms;
  }
  /// Applies the earliest timeline instant.
  void fireInstant();
  void siftTimelineUp(std::size_t pos);
  void siftTimelineDown(std::size_t pos);
  void placeTimeline(std::size_t pos, TimelineId id) {
    timeline_heap_[pos] = id;
    timelines_[id].pos = static_cast<std::uint32_t>(pos);
  }
  /// Consumes a pending stop request; returns true if one was pending.
  bool consumeStop() {
    // Cheap fast path: loads dodge the RMW until a stop is actually seen.
    if (!stop_requested_.load(std::memory_order_acquire)) {
      return false;
    }
    return stop_requested_.exchange(false, std::memory_order_acq_rel);
  }

  /// firedPast() value once a run has fired everything due at now_.
  static constexpr std::uint64_t kAfterAll = ~0ull;

  SimTime now_ = SimTime::zero();
  /// Same-time key of the event executing (or last executed) at now_, or
  /// kAfterAll / 0 after a run idles the clock forward (see firedPast()).
  std::uint64_t cursor_ = 0;
  Callback pre_hook_;
  Callback post_hook_;
  struct Guard {
    InsertionGuard fn;  // empty while the slot is free
    double lo = 0.0;
    double hi = 0.0;
    bool armed = false;
  };
  std::vector<Guard> guards_;   // slab; index == GuardId
  std::vector<GuardId> spans_;  // armed clients
  std::vector<TimelineSlot> timelines_;       // slab; index == TimelineId
  std::vector<TimelineId> timeline_heap_;     // binary min-heap by instant
  std::uint64_t instants_applied_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_executed_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::uint64_t lane_events_ = 0;
  std::size_t peak_heap_depth_ = 0;
  std::atomic<bool> stop_requested_{false};

  std::vector<Slot> slots_;           // slab; index == slot id
  std::uint32_t free_head_ = kNoSlot; // head of the freed-slot list
  std::vector<HeapEntry> heap_;       // 4-ary min-heap by (time, seq)
  std::size_t live_ = 0;              // scheduled and not cancelled
  std::size_t stale_ = 0;             // cancelled entries still in heap_
  std::array<Lane, kMaxLanes> lanes_;
  std::uint32_t lane_count_ = 0;
};

/// A recurring activity: reschedules itself every `period` until stopped.
/// The callback receives the activity's tick index (0-based).
class PeriodicActivity {
 public:
  using TickFn = EventFn<void(std::uint64_t)>;

  PeriodicActivity(Simulator& simulator, SimDuration period, TickFn fn);
  ~PeriodicActivity() { stop(); }
  PeriodicActivity(const PeriodicActivity&) = delete;
  PeriodicActivity& operator=(const PeriodicActivity&) = delete;

  /// Arm the activity: first tick at `first`, then every period.
  void start(SimTime first);
  /// Cancel future ticks. Safe to call repeatedly or from within the tick.
  void stop();
  /// Change the inter-tick period (elastic period adjustment). Takes
  /// effect when the *next* tick re-arms: the already-pending occurrence
  /// keeps its scheduled time, so a mid-cycle change never moves or
  /// duplicates a tick. Deterministic: the new cadence depends only on
  /// when this is called relative to the tick sequence.
  void setPeriod(SimDuration period);
  SimDuration period() const { return period_; }
  bool running() const { return running_; }
  std::uint64_t ticks() const { return tick_; }

 private:
  void arm(SimTime at);

  Simulator& sim_;
  SimDuration period_;
  TickFn fn_;
  EventId pending_{};
  std::uint64_t tick_ = 0;
  bool running_ = false;
};

}  // namespace rtdrm::sim
