// CNA: Compact NUMA-Aware lock (Dice & Kogan, EuroSys 2019).
//
// The paper's primary contribution, implemented exactly after the pseudo-code
// in Figures 2-5 and the optimizations of Section 6.
//
// CNA is an MCS variant whose shared state is a single word (the tail of the
// main queue) and whose acquisition path performs exactly one atomic
// instruction (SWAP), yet it is NUMA-aware: on unlock, the holder looks for
// the first waiter running on its own socket, moves the "remote" waiters
// crossed on the way into a *secondary queue*, and hands the lock over
// locally.  The secondary queue is threaded through the waiters' own nodes
// (locks/cna_queue.h): the handover passes its head in the successor's `spin`
// field -- Section 4's trick that keeps the lock one word -- and the head's
// `sec_tail` caches its tail.  With low probability (keep_lock_local() == 0)
// the holder flushes the secondary queue ahead of its successor, so remote
// waiters cannot starve; it is also flushed when no same-socket successor
// exists (Figure 1(g)).  Queue links always carry the waiter's socket in
// their low bits (Section 6), so the release classifies its successor without
// missing on the successor's node; the lock word itself is never tagged.
//
// Configuration is a compile-time policy so that the lock object itself stays
// exactly one word -- asserting the paper's headline space claim in the type
// system.
#ifndef CNA_LOCKS_CNA_H_
#define CNA_LOCKS_CNA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "base/cacheline.h"
#include "locks/cna_queue.h"
#include "locks/cna_stats.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace cna::locks {

// Default configuration: the paper's constants.  Section 6's socket-in-next
// encoding is not a knob: it picks the same successors as an untagged queue
// for one miss less per handover, so every configuration has it.
struct CnaDefaultConfig {
  // THRESHOLD (Figure 5): keep_lock_local() == rand & mask; the secondary
  // queue is flushed with probability 1/65536 per handover.
  static constexpr std::uint64_t kKeepLocalMask = 0xffff;
  // Section 6 "shuffle reduction": when the secondary queue is empty, skip
  // find_successor() with probability shuffle_mask/(shuffle_mask+1) and hand
  // the lock to the immediate successor.  Off by default, as in the paper's
  // base CNA; the "CNA (opt)" curves enable it.
  static constexpr bool kShuffleReduction = false;
  // THRESHOLD2 (Section 6): the paper's experiments use 0xff.
  static constexpr std::uint64_t kShuffleMask = 0xff;
  // Section 6, last optimization: draw the random number once, store it in a
  // thread-local counter and decrement per handover instead of drawing per
  // handover.  Off by default (paper leaves it as an engineering tweak).
  static constexpr bool kCounterFairness = false;
  // Update locks::GlobalCnaCounters() on every release (Section 7.1.1's
  // queue-alteration statistics).  Off by default: zero instrumentation.
  static constexpr bool kCollectStats = false;
  // Record slow-path wait time into the telemetry registry and emit trace
  // events for handoffs/queue moves (src/telemetry/).  Off by default: the
  // default build compiles no telemetry code into the lock at all, and the
  // lock stays exactly one word either way (the guard test asserts it).
  static constexpr bool kTelemetry = false;
};

// "CNA (opt)" of Section 7.1.1: shuffle reduction enabled.
struct CnaShuffleReductionConfig : CnaDefaultConfig {
  static constexpr bool kShuffleReduction = true;
};

// Fully observable build: Section 7.1.1 counters plus wait-time histograms
// and trace events.  Runtime cost is one relaxed flag load per slow-path
// entry/handover when telemetry is globally disabled.
struct CnaTelemetryConfig : CnaDefaultConfig {
  static constexpr bool kCollectStats = true;
  static constexpr bool kTelemetry = true;
};

template <typename P, typename Cfg = CnaDefaultConfig>
class CnaLock {
 public:
  // Figure 2's cna_node_t.  Padded to a cache line so each waiter spins
  // inside its own line (the standard deployment for queue locks; the extra
  // fields relative to MCS are the point the paper makes about node space
  // being "almost never a practical concern").
  struct alignas(kCacheLineSize) Handle {
    // 0 = waiting; 1 = lock granted, secondary queue empty; any other value =
    // lock granted, value is the secondary queue head (a Handle*).
    typename P::template Atomic<std::uintptr_t> spin{0};
    typename P::template Atomic<int> socket{-1};
    typename P::template Atomic<Handle*> sec_tail{nullptr};
    // Socket-tagged link to the successor (locks/cna_queue.h).
    typename P::template Atomic<Handle*> next{nullptr};
  };

  static constexpr std::size_t kStateBytes = sizeof(void*);
  static constexpr bool kHasTryLock = true;

  CnaLock() = default;
  CnaLock(const CnaLock&) = delete;
  CnaLock& operator=(const CnaLock&) = delete;

  // Figure 3.  Identical to MCS except: the socket id is recorded (only on
  // contention, so the uncontended path pays nothing for NUMA-awareness), and
  // an uncontended acquire sets spin to 1 so unlock always passes a non-zero
  // value to the successor.
  void Lock(Handle& me) {
    me.next.store(nullptr, std::memory_order_relaxed);
    me.socket.store(-1, std::memory_order_relaxed);
    me.spin.store(0, std::memory_order_relaxed);

    Handle* tail = tail_.exchange(&me, std::memory_order_acq_rel);
    if (tail == nullptr) {
      me.spin.store(1, std::memory_order_relaxed);
      return;
    }
    const int my_socket = P::CurrentSocket();
    me.socket.store(my_socket, std::memory_order_relaxed);
    tail->next.store(cna_queue::Tagged(&me, my_socket),
                     std::memory_order_release);
    if constexpr (Cfg::kTelemetry) {
      if (telemetry::Enabled()) {
        const std::uint64_t t0 = telemetry::NowNs();
        while (me.spin.load(std::memory_order_acquire) == 0) {
          P::Pause();
        }
        const std::uint64_t waited = telemetry::NowNs() - t0;
        telemetry::CnaWaitHistogram().RecordAt(my_socket, P::CpuId(), waited);
        telemetry::TraceEmit(telemetry::TraceEventType::kLockSlowPath,
                             my_socket, P::CpuId(), /*arg=*/0, waited, t0);
        return;
      }
    }
    while (me.spin.load(std::memory_order_acquire) == 0) {
      P::Pause();
    }
  }

  bool TryLock(Handle& me) {
    me.next.store(nullptr, std::memory_order_relaxed);
    me.socket.store(-1, std::memory_order_relaxed);
    me.spin.store(0, std::memory_order_relaxed);
    Handle* expected = nullptr;
    if (tail_.compare_exchange_strong(expected, &me,
                                      std::memory_order_acq_rel)) {
      me.spin.store(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  // Figure 4, with the Section 6 shuffle-reduction block between the
  // no-successor handling and the successor selection.  me.spin is loaded
  // once into `spin` and kept in sync (a real implementation keeps it in a
  // register; the simulator would otherwise charge every re-read).
  void Unlock(Handle& me) {
    Handle* next = me.next.load(std::memory_order_acquire);  // tagged link
    std::uintptr_t spin = me.spin.load(std::memory_order_relaxed);
    if (next == nullptr) {
      // No successor visible in the main queue.
      if (spin == 1) {
        // Secondary queue empty too: try to return the lock to "free".
        Handle* expected = &me;
        if (tail_.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_acq_rel)) {
          Count<&CnaEventCounters::releases>();
          return;
        }
      } else {
        // Main queue empty but secondary is not: try to make the secondary
        // queue the new main queue (its tail becomes the lock tail) and pass
        // the lock to its head.
        Handle* sec_head = reinterpret_cast<Handle*>(spin);
        Handle* expected = &me;
        if (tail_.compare_exchange_strong(
                expected, sec_head->sec_tail.load(std::memory_order_relaxed),
                std::memory_order_acq_rel)) {
          sec_head->spin.store(1, std::memory_order_release);
          Count<&CnaEventCounters::releases>();
          Count<&CnaEventCounters::secondary_flushes>();
          TraceHandoff(telemetry::TraceEventType::kHandoffSecondary);
          return;
        }
      }
      // A new waiter swapped itself in between our check and the CAS; wait
      // for it to link itself behind us.
      while ((next = me.next.load(std::memory_order_acquire)) == nullptr) {
        P::Pause();
      }
    }

    if constexpr (Cfg::kShuffleReduction) {
      // With an empty secondary queue, usually skip the queue reshuffling and
      // hand over FIFO -- under light contention the shuffling cost is not
      // repaid by locality (Section 6 / Figure 9's "CNA (opt)").
      if (spin == 1 && (P::Random() & Cfg::kShuffleMask) != 0) {
        cna_queue::Ptr(next)->spin.store(1, std::memory_order_release);
        Count<&CnaEventCounters::releases>();
        Count<&CnaEventCounters::shuffle_skips>();
        Count<&CnaEventCounters::fifo_handovers>();
        TraceHandoff(telemetry::TraceEventType::kHandoffFifo);
        return;
      }
    }

    Handle* succ = nullptr;
    if (KeepLockLocal() &&
        (succ = FindSuccessor(me, next, spin)) != nullptr) {
      // Same-socket successor found: pass the lock together with the current
      // secondary-queue designator (1 or head pointer) -- Figure 1(b)/(d).
      succ->spin.store(spin, std::memory_order_release);
      Count<&CnaEventCounters::local_handovers>();
      TraceHandoff(telemetry::TraceEventType::kHandoffLocal);
    } else if (spin > 1) {
      // Fairness flush (or no local successor): splice the secondary queue in
      // front of our main-queue successor and hand the lock to its head --
      // Figure 1(g).
      cna_queue::SpliceSecondary(spin, next)
          ->spin.store(1, std::memory_order_release);
      Count<&CnaEventCounters::secondary_flushes>();
      TraceHandoff(telemetry::TraceEventType::kHandoffSecondary);
    } else {
      // Secondary queue empty: plain MCS handover.
      cna_queue::Ptr(next)->spin.store(1, std::memory_order_release);
      Count<&CnaEventCounters::fifo_handovers>();
      TraceHandoff(telemetry::TraceEventType::kHandoffFifo);
    }
    Count<&CnaEventCounters::releases>();
  }

  bool HasQueuedWaiters(const Handle& me) const {
    return me.next.load(std::memory_order_acquire) != nullptr;
  }

 private:
  // Section 7.1.1 event counter; compiles to nothing unless kCollectStats.
  template <std::atomic<std::uint64_t> CnaEventCounters::*kCounter>
  static void Count(std::uint64_t n = 1) {
    if constexpr (Cfg::kCollectStats) {
      (GlobalCnaCounters().*kCounter).fetch_add(n, std::memory_order_relaxed);
    }
  }

  // Telemetry-only: classify the handover / queue move in the event trace.
  // Compiles to nothing unless Cfg::kTelemetry; the socket/tid lookups are
  // reached only with tracing switched on at runtime.
  static void TraceHandoff(telemetry::TraceEventType type,
                           std::uint64_t arg = 0) {
    if constexpr (Cfg::kTelemetry) {
      if (telemetry::TraceEnabled()) {
        telemetry::TraceEmit(type, P::CurrentSocket(), P::CpuId(), arg);
      }
    }
  }

  // Figure 5's find_successor() (locks/cna_queue.h), plus the Section 7.1.1
  // accounting of the waiters it moved to the secondary queue.
  Handle* FindSuccessor(Handle& me, Handle* next, std::uintptr_t& spin) {
    const auto found = cna_queue::FindSuccessor<P>(me, next, spin);
    if (found.moved != 0) {
      Count<&CnaEventCounters::queue_alterations>();
      Count<&CnaEventCounters::waiters_moved>(found.moved);
      TraceHandoff(telemetry::TraceEventType::kSecondaryMove, found.moved);
    }
    return found.node;
  }

  // Figure 5's keep_lock_local(), optionally with the Section 6 deferred-draw
  // counter: draw once, count down per handover, flush when it hits zero.
  bool KeepLockLocal() {
    if constexpr (Cfg::kCounterFairness) {
      std::uint64_t& countdown = P::TlsSlot();
      if (countdown == 0) {
        countdown = (P::Random() & Cfg::kKeepLocalMask) + 1;
        return false;
      }
      --countdown;
      return true;
    } else {
      return (P::Random() & Cfg::kKeepLocalMask) != 0;
    }
  }

  typename P::template Atomic<Handle*> tail_{nullptr};
};

}  // namespace cna::locks

#endif  // CNA_LOCKS_CNA_H_
