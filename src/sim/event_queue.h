/**
 * @file
 * Discrete-event simulation core: a time-ordered event queue.
 *
 * The queue is the heart of the simulator and its hottest data
 * structure, so it is built for zero steady-state allocation:
 *
 *  - Events live in a *slot pool* with free-list reuse; the pending
 *    order is a flat binary heap of small POD entries over those slots.
 *  - Callbacks are stored in small-buffer-inlined EventCallback objects;
 *    every callback the engine schedules (a few captured words) fits the
 *    inline buffer, so schedule/fire performs no heap allocation once
 *    the pool and heap have grown to the simulation's high-water mark.
 *  - EventIds are sequence-tagged slot references, making cancel() an
 *    O(1) operation that is safe against slot reuse: sequence numbers
 *    never repeat, so a stale id can never cancel the event that
 *    recycled its slot.
 *
 * Events scheduled for the same timestamp run in FIFO order of
 * scheduling (a monotonically increasing sequence number breaks ties),
 * which makes every simulation fully deterministic.  Cancellation
 * reclaims the slot (and destroys the callback) eagerly; only the
 * 16-byte heap entry lingers until popped, and the heap is compacted
 * whenever cancelled entries outnumber live ones.
 */

#ifndef CIDRE_SIM_EVENT_QUEUE_H
#define CIDRE_SIM_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace cidre::sim {

class StateReader;
class StateWriter;

/**
 * Serializable identity of a pending event, used by checkpoint/restore.
 *
 * Closures cannot be serialized, so a checkpointable scheduler tags
 * every event with a small POD describing how to rebuild its callback
 * (an event kind plus two operand words — e.g. a container id and a
 * request index).  kind 0 means "untagged": such events cannot cross a
 * checkpoint and make saveState() throw while pending.
 */
struct EventTag
{
    std::uint32_t kind = 0;
    std::uint32_t a = 0;
    std::uint64_t b = 0;
};

/**
 * A move-only callable of signature void(SimTime) with small-buffer
 * storage: callables up to kInlineCapacity bytes (and max_align_t
 * alignment) are stored inline; larger ones fall back to the heap.
 *
 * This replaces std::function on the simulation hot path.  The inline
 * capacity is sized for the engine's event closures (a this-pointer
 * plus a couple of ids), with headroom for richer captures in tests
 * and benchmarks.
 */
class EventCallback
{
  public:
    static constexpr std::size_t kInlineCapacity = 48;

    EventCallback() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_v<std::decay_t<F> &, SimTime>>>
    EventCallback(F &&fn) // NOLINT: implicit by design, like std::function
    {
        emplace(std::forward<F>(fn));
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /** True if a callable is held. */
    explicit operator bool() const noexcept { return ops_ != nullptr; }

    void operator()(SimTime now) { ops_->invoke(storage_, now); }

    /**
     * Replace the held callable with @p fn, constructed in place (no
     * intermediate EventCallback, no relocation).  Wrapping an empty
     * std::function / null function pointer yields an empty callback,
     * matching std::function semantics.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_v<std::decay_t<F> &, SimTime>>>
    void emplace(F &&fn)
    {
        reset();
        using Fn = std::decay_t<F>;
        if constexpr (std::is_constructible_v<bool, const Fn &>) {
            if (!static_cast<bool>(fn))
                return;
        }
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(storage_)) Fn(std::forward<F>(fn));
            ops_ = &kInlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(storage_))
                Fn *(new Fn(std::forward<F>(fn)));
            ops_ = &kHeapOps<Fn>;
        }
    }

    /** Destroy the held callable (if any); leaves *this empty. */
    void reset() noexcept
    {
        if (ops_ != nullptr) {
            if (ops_->destroy != nullptr)
                ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    /** True if @p Fn would be stored inline (no heap allocation). */
    template <typename Fn>
    static constexpr bool fitsInline()
    {
        return sizeof(Fn) <= kInlineCapacity &&
            alignof(Fn) <= alignof(std::max_align_t) &&
            std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *, SimTime);
        /**
         * Move-construct into @p dst from @p src, destroying @p src.
         * nullptr means the callable is trivially relocatable: moveFrom
         * copies the raw inline buffer instead (no indirect call — the
         * common case for the engine's POD-capturing lambdas).
         */
        void (*relocate)(void *dst, void *src) noexcept;
        /** nullptr means destruction is a no-op (trivial callable). */
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static Fn *inlined(void *storage) noexcept
    {
        return std::launder(reinterpret_cast<Fn *>(storage));
    }

    template <typename Fn>
    static constexpr Ops kInlineOps = {
        [](void *s, SimTime t) { (*inlined<Fn>(s))(t); },
        std::is_trivially_copyable_v<Fn>
            ? nullptr
            : +[](void *dst, void *src) noexcept {
                  Fn *from = inlined<Fn>(src);
                  ::new (dst) Fn(std::move(*from));
                  from->~Fn();
              },
        std::is_trivially_destructible_v<Fn>
            ? nullptr
            : +[](void *s) noexcept { inlined<Fn>(s)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops kHeapOps = {
        [](void *s, SimTime t) { (**inlined<Fn *>(s))(t); },
        nullptr, // the stored Fn* relocates by plain copy
        [](void *s) noexcept { delete *inlined<Fn *>(s); },
    };

    void moveFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            if (ops_->relocate != nullptr)
                ops_->relocate(storage_, other.storage_);
            else
                std::memcpy(storage_, other.storage_, kInlineCapacity);
            other.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
};

/**
 * A time-ordered queue of callbacks driving a simulation.
 *
 * Typical use:
 * @code
 *   EventQueue queue;
 *   queue.schedule(msec(5), [&](SimTime now) { ... });
 *   queue.runAll();
 * @endcode
 */
class EventQueue
{
  public:
    /** Event callbacks receive the simulated time they fire at. */
    using Callback = EventCallback;

    /**
     * Opaque handle used to cancel a scheduled event.  Encodes a pooled
     * slot plus the event's unique sequence number; never 0, and a
     * handle whose event fired or was cancelled never aliases a later
     * event (sequence numbers are never reused).
     */
    using EventId = std::uint64_t;

    EventQueue() = default;

    // The queue hands out callbacks that usually capture their owner, so
    // it is not meaningfully copyable.
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @p when must not be earlier than now(); scheduling "in the past"
     * indicates a logic bug and throws.
     * @return a handle usable with cancel().
     */
    EventId schedule(SimTime when, Callback cb);

    /**
     * Hot-path overload for plain callables (the engine's lambdas): the
     * callable is constructed directly inside its pooled slot, with no
     * intermediate EventCallback move.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_v<std::decay_t<F> &, SimTime>>>
    EventId schedule(SimTime when, F &&fn)
    {
        if constexpr (std::is_constructible_v<bool,
                                              const std::decay_t<F> &>) {
            if (!static_cast<bool>(fn))
                throw std::invalid_argument("EventQueue: empty callback");
        }
        const std::uint32_t slot = beginSchedule(when);
        try {
            slots_[slot].callback.emplace(std::forward<F>(fn));
        } catch (...) {
            releaseSlot(slot);
            throw;
        }
        return finishSchedule(when, slot);
    }

    /**
     * Tagged hot-path schedule: identical to schedule(when, fn) but
     * records @p tag as the event's serializable identity, making the
     * event checkpointable (see saveState()).  @p tag.kind must be
     * non-zero.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_v<std::decay_t<F> &, SimTime>>>
    EventId schedule(SimTime when, EventTag tag, F &&fn)
    {
        if (tag.kind == 0)
            throw std::invalid_argument("EventQueue: tag.kind must be != 0");
        const std::uint32_t slot = beginSchedule(when);
        try {
            slots_[slot].callback.emplace(std::forward<F>(fn));
        } catch (...) {
            releaseSlot(slot);
            throw;
        }
        slots_[slot].tag = tag;
        return finishSchedule(when, slot);
    }

    /** Tagged relative-time schedule, mirroring scheduleAfter(). */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_v<std::decay_t<F> &, SimTime>>>
    EventId scheduleAfter(SimTime delay, EventTag tag, F &&fn)
    {
        return schedule(now_ + delay, tag, std::forward<F>(fn));
    }

    /**
     * Reserve the next sequence number without scheduling anything.
     *
     * The FIFO tie-break among equal-time events is the allocation
     * order of sequence numbers, so a caller that *knows* an event is
     * coming — but not yet its payload — can claim the event's place in
     * line now and attach the payload later with scheduleReserved().
     * This is what lets a stream-driven engine admit requests one at a
     * time yet replay the exact event interleaving of a trace-driven
     * run: the arrival's slot in the total order is reserved at the
     * same program point where trace mode would have scheduled it.
     *
     * Sequence numbers are never reused; an unused reservation merely
     * shifts every later sequence number up by one, which cannot change
     * the relative order of subsequently scheduled events.
     */
    std::uint64_t reserveSeq();

    /**
     * Tagged schedule using a sequence number from reserveSeq().
     *
     * Identical to schedule(when, tag, fn) except the event's position
     * among equal-time events is @p seq's allocation point, not the
     * present.  Each reservation can be spent at most once (enforced
     * only by the caller; spending one twice would create duplicate
     * keys and corrupt cancellation).
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_v<std::decay_t<F> &, SimTime>>>
    EventId scheduleReserved(SimTime when, std::uint64_t seq, EventTag tag,
                             F &&fn)
    {
        if (tag.kind == 0)
            throw std::invalid_argument("EventQueue: tag.kind must be != 0");
        if (seq == 0 || seq >= next_seq_)
            throw std::logic_error(
                "EventQueue: sequence number was never reserved");
        const std::uint32_t slot = beginSchedule(when);
        try {
            slots_[slot].callback.emplace(std::forward<F>(fn));
        } catch (...) {
            releaseSlot(slot);
            throw;
        }
        slots_[slot].tag = tag;
        return finishScheduleReserved(when, slot, seq);
    }

    /** Schedule @p cb to run @p delay after the current time. */
    EventId scheduleAfter(SimTime delay, Callback cb);

    /** Hot-path overload, mirroring the schedule() one. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_v<std::decay_t<F> &, SimTime>>>
    EventId scheduleAfter(SimTime delay, F &&fn)
    {
        return schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Cancel a previously scheduled event.
     *
     * O(1): the slot (and its callback) is reclaimed immediately; the
     * heap entry is skipped when popped, or swept out by compaction once
     * cancelled entries outnumber live ones.  Cancelling an event that
     * already ran (or was already cancelled) is a harmless no-op, which
     * keeps call sites simple.
     */
    void cancel(EventId id);

    /** True if no runnable (non-cancelled) events remain. */
    bool empty() const;

    /**
     * Pop and run the next event.
     * @return false if the queue was empty.
     */
    bool runNext();

    /**
     * Run all events with timestamp <= @p deadline, then advance the clock
     * to @p deadline.
     * @return the number of events executed.
     */
    std::size_t runUntil(SimTime deadline);

    /**
     * Run pending events in order up to *and including* the event with
     * handle @p id, then stop — even if later events share its
     * timestamp.  Unlike runUntil(), the clock is never fast-forwarded
     * past the last executed event.  Throws if @p id is not pending
     * (already ran, cancelled, or never scheduled).
     * @return the number of events executed.
     */
    std::size_t runTo(EventId id);

    /**
     * Run until the queue drains or @p max_events were executed.
     * @return the number of events executed.
     */
    std::size_t runAll(std::size_t max_events = SIZE_MAX);

    /** Current simulated time (time of the last executed event). */
    SimTime now() const { return now_; }

    /**
     * Timestamp of the most recently *executed* event (0 before any).
     * Unlike now(), never fast-forwarded by runUntil(): a stepped
     * driver whose final deadline overshoots the last event still reads
     * the same value here as a drain-in-one-go run — which is what
     * makes stepped execution result-identical to run-to-completion
     * for time-integral metrics (makespan, memory).
     */
    SimTime lastEventTime() const { return last_event_; }

    /** Timestamp of the next runnable event, or kTimeInfinity. */
    SimTime peekTime() const;

    /** Number of events executed since construction. */
    std::uint64_t executedCount() const { return executed_; }

    // ---- introspection (tests, benchmarks) ------------------------------

    /** Number of pending (non-cancelled) events. */
    std::size_t pendingCount() const { return heap_.size() - cancelled_; }

    /** Heap entries, including not-yet-swept cancelled ones. */
    std::size_t heapStorageSize() const { return heap_.size(); }

    /** Pooled slots ever created (the high-water mark of pending events). */
    std::size_t slotPoolSize() const { return slots_.size(); }

    // ---- checkpoint/restore ---------------------------------------------

    /**
     * Rebuilds a callback from the EventTag it was scheduled with.
     * Returning an empty callback makes loadState() throw.
     */
    using EventFactory = std::function<EventCallback(const EventTag &)>;

    /**
     * Serialize the queue's full state (clock, counters, heap and the
     * tag of every pending event).  Callbacks themselves are not
     * serialized: loadState() rebuilds them from the tags, so every
     * pending event must have been scheduled through a tagged overload
     * — an armed untagged slot throws std::logic_error.
     */
    void saveState(StateWriter &writer) const;

    /**
     * Restore state saved by saveState(), rebuilding each pending
     * callback via @p factory.  Replaces the queue's entire contents;
     * the restored queue then produces the exact event sequence of the
     * original (keys, FIFO ties and slot reuse included).
     */
    void loadState(StateReader &reader, const EventFactory &factory);

  private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    /**
     * EventIds and heap keys pack (seq << kSlotBits) | slot: 2^24
     * concurrent pending events, 2^40 events per queue lifetime (a
     * ~20-hour run at 14M events/sec); schedule() throws on either
     * overflow.  Because seq owns the high bits and is unique, comparing
     * keys compares sequence numbers — one branch-free FIFO tie-break.
     */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

    /** One pooled event: callback storage plus its identity key. */
    struct Slot
    {
        EventCallback callback;
        /** Packed key of the armed event; 0 when the slot is free. */
        std::uint64_t armed_key = 0;
        /** Free-list link (kNoSlot when armed or at the list tail). */
        std::uint32_t next_free = kNoSlot;
        /** Serializable identity; kind 0 for untagged events. */
        EventTag tag;
    };

    /**
     * Heap entry: 16 bytes of PODs, cheap to sift.  The heap is 4-ary:
     * half the levels of a binary heap, and the four children of a node
     * span exactly one 64-byte cache line.
     */
    struct HeapEntry
    {
        SimTime when;
        std::uint64_t key; //!< (seq << kSlotBits) | slot
    };

    static bool earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.key < b.key; // == seq comparison: FIFO among equal times
    }

    bool dead(const HeapEntry &entry) const
    {
        return slots_[entry.key & kSlotMask].armed_key != entry.key;
    }

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t index) noexcept;

    /** Validate @p when / sequence space and acquire a slot. */
    std::uint32_t beginSchedule(SimTime when);
    /** Arm the slot's key and push its heap entry; returns the id. */
    EventId finishSchedule(SimTime when, std::uint32_t slot);
    /** finishSchedule() with a caller-reserved sequence number. */
    EventId finishScheduleReserved(SimTime when, std::uint32_t slot,
                                   std::uint64_t seq);

    void siftUp(std::size_t index);
    void siftDown(std::size_t index);
    void popTop();

    /** Drop cancelled entries from the head of the heap. */
    void skipDead() const;

    /** Sweep every cancelled entry and re-heapify. */
    void compact();

    mutable std::vector<HeapEntry> heap_;
    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNoSlot;
    /** Cancelled entries still occupying heap storage. */
    mutable std::size_t cancelled_ = 0;
    SimTime now_ = 0;
    SimTime last_event_ = 0; //!< see lastEventTime()
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
};

} // namespace cidre::sim

#endif // CIDRE_SIM_EVENT_QUEUE_H
