// CNA-specific tests: the algorithmic invariants of Figures 2-5, the
// secondary-queue mechanics of Figure 1, the fairness knob, and the Section 6
// optimizations.  Most tests run on the simulator, whose deterministic
// scheduling lets us replay the paper's running example exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "locks/cna.h"
#include "locks/cna_queue.h"
#include "locks/lock_api.h"
#include "locks/mcs.h"
#include "locks/mcscr.h"
#include "platform/real_platform.h"
#include "qspin/qspinlock.h"
#include "sim/machine.h"
#include "sim/sim_platform.h"

namespace cna {
namespace {

using SimCna = locks::CnaLock<SimPlatform>;

sim::MachineConfig TwoSocketSmall(int cpus_per_socket = 8) {
  sim::MachineConfig cfg;
  cfg.topology = numa::Topology::Uniform(2, cpus_per_socket);
  return cfg;
}

// Replays the acquisition pattern of the paper's Figure 1: six threads
// enqueue while t0 holds the lock; sockets alternate 0,1,0,1,0,1 (scatter
// placement).  CNA must serve all same-socket waiters first (t0, t2, t4:
// socket 0), then flush the secondary queue in FIFO order (t1, t3, t5).
TEST(CnaAlgorithm, ServesLocalWaitersThenFlushesSecondaryQueue) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  std::vector<int> order;
  std::vector<int> socket_order;
  for (int t = 0; t < 6; ++t) {
    m.Spawn([&, t] {
      // Arrival order t0 < t1 < ... < t5, all before t0 releases.
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 400 + 1);
      SimCna::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(200'000);
      }
      order.push_back(t);
      socket_order.push_back(sim::Machine::Active()->CurrentSocket());
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 1, 3, 5}));
  EXPECT_EQ(socket_order, (std::vector<int>{0, 0, 0, 1, 1, 1}));
}

TEST(CnaAlgorithm, ComparedToMcsWhichStaysFifo) {
  sim::Machine m(TwoSocketSmall());
  locks::McsLock<SimPlatform> lock;
  std::vector<int> order;
  for (int t = 0; t < 6; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 400 + 1);
      locks::McsLock<SimPlatform>::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(200'000);
      }
      order.push_back(t);
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// Figure 1(d): consecutive same-socket handovers pass the secondary-queue
// designator along unchanged; the handover writes only the successor's spin
// field (copying me->spin), never restructuring the queue.
TEST(CnaAlgorithm, UncontendedAcquireSkipsSocketRecording) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  int recorded_socket = -2;
  m.Spawn([&] {
    SimCna::Handle h;
    lock.Lock(h);
    recorded_socket = h.socket.load();
    lock.Unlock(h);
  });
  m.Run();
  // Uncontended path: Figure 3 line 8 returns before line 10 records the
  // socket -- "when the lock is not contended, this line does not add any
  // overhead".
  EXPECT_EQ(recorded_socket, -1);
}

TEST(CnaAlgorithm, UncontendedSpinFieldHoldsOne) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  std::uintptr_t spin_value = 0;
  m.Spawn([&] {
    SimCna::Handle h;
    lock.Lock(h);
    spin_value = h.spin.load();
    lock.Unlock(h);
  });
  m.Run();
  EXPECT_EQ(spin_value, 1u);  // Figure 3 line 8
}

TEST(CnaAlgorithm, ContendedWaiterRecordsItsSocket) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  std::vector<int> sockets;
  for (int t = 0; t < 2; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 100 + 1);
      SimCna::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(50'000);
      } else {
        sockets.push_back(h.socket.load());
      }
      lock.Unlock(h);
    });
  }
  m.Run();
  ASSERT_EQ(sockets.size(), 1u);
  EXPECT_EQ(sockets[0], 1);  // fiber 1 runs on socket 1 (scatter placement)
}

// While waiting in the secondary queue, a node's spin stays 0 and its
// sec_tail designates the queue tail only for the head node.  We verify the
// externally observable effect: remote threads are granted in their original
// order after the flush (FIFO within the secondary queue).
TEST(CnaAlgorithm, SecondaryQueuePreservesFifoAmongRemoteWaiters) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  std::vector<int> order;
  // 8 fibers: even ids socket 0, odd ids socket 1.
  for (int t = 0; t < 8; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 300 + 1);
      SimCna::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(300'000);
      }
      order.push_back(t);
      lock.Unlock(h);
    });
  }
  m.Run();
  // Local first (0,2,4,6), then remote in arrival order (1,3,5,7).
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 1, 3, 5, 7}));
}

// Fairness: with an aggressive threshold (flush probability 1/4), remote
// waiters must be served long before the local stream dries up.
struct AggressiveFairnessConfig : locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0x3;
};

struct CounterConfig : locks::CnaDefaultConfig {
  static constexpr std::uint64_t kKeepLocalMask = 0xf;
  static constexpr bool kCounterFairness = true;
};

struct AlwaysSkipConfig : locks::CnaDefaultConfig {
  static constexpr bool kShuffleReduction = true;
  // rand & mask is nonzero with probability 255/256: almost always skip.
  static constexpr std::uint64_t kShuffleMask = 0xff;
};

TEST(CnaFairness, SecondaryQueueIsFlushedProbabilistically) {
  sim::Machine m(TwoSocketSmall());
  locks::CnaLock<SimPlatform, AggressiveFairnessConfig> lock;
  // Two fibers per socket ping-ponging for a while; count how many times
  // socket 1 fibers get the lock while socket 0 keeps re-acquiring.
  std::map<int, int> grants_by_socket;
  constexpr int kIters = 400;
  for (int t = 0; t < 4; ++t) {
    m.Spawn([&] {
      for (int i = 0; i < kIters; ++i) {
        locks::ScopedLock<locks::CnaLock<SimPlatform, AggressiveFairnessConfig>>
            g(lock);
        ++grants_by_socket[sim::Machine::Active()->CurrentSocket()];
      }
    });
  }
  m.Run();
  EXPECT_EQ(grants_by_socket[0] + grants_by_socket[1], 4 * kIters);
  EXPECT_EQ(grants_by_socket[0], 2 * kIters);
  EXPECT_EQ(grants_by_socket[1], 2 * kIters);
}

TEST(CnaFairness, CounterModeAlsoFlushes) {
  sim::Machine m(TwoSocketSmall());
  locks::CnaLock<SimPlatform, CounterConfig> lock;
  std::vector<int> done(4, 0);
  for (int t = 0; t < 4; ++t) {
    m.Spawn([&, t] {
      for (int i = 0; i < 200; ++i) {
        locks::ScopedLock<locks::CnaLock<SimPlatform, CounterConfig>> g(lock);
        ++done[static_cast<std::size_t>(t)];
      }
    });
  }
  m.Run();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(done[static_cast<std::size_t>(t)], 200);
  }
}

// Shuffle reduction (Section 6): with an empty secondary queue the lock is
// usually handed FIFO.  Observable effect: under the all-local pattern, the
// CNA(opt) handover order equals MCS's FIFO order.
TEST(CnaShuffleReduction, MostHandoversAreFifoWhenSecondaryEmpty) {
  auto cfg = TwoSocketSmall();
  cfg.placement = sim::Placement::kPackSockets;  // all on socket 0
  sim::Machine m(cfg);
  locks::CnaLock<SimPlatform, AlwaysSkipConfig> lock;
  std::vector<int> order;
  for (int t = 0; t < 6; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 400 + 1);
      typename locks::CnaLock<SimPlatform, AlwaysSkipConfig>::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(200'000);
      }
      order.push_back(t);
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// The unlock CAS path: a holder with an empty main queue hands the lock back
// to "free" (tail -> nullptr); a later arrival takes the uncontended path.
TEST(CnaAlgorithm, ReleaseToEmptyQueueRestoresFreeState) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  int acquisitions = 0;
  m.Spawn([&] {
    for (int i = 0; i < 5; ++i) {
      SimCna::Handle h;
      lock.Lock(h);
      ++acquisitions;
      lock.Unlock(h);
      sim::Machine::Active()->AdvanceLocalWork(100);
    }
  });
  m.Run();
  EXPECT_EQ(acquisitions, 5);
}

// Race window in unlock: the CAS to nullptr fails because a new waiter
// swapped the tail but has not linked yet; the holder must wait for the link
// and then hand over.  Reproduce with two fibers whose clocks collide.
TEST(CnaAlgorithm, UnlockWaitsForLateLinkingSuccessor) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  std::vector<int> order;
  for (int t = 0; t < 2; ++t) {
    m.Spawn([&, t] {
      SimCna::Handle h;
      // Near-simultaneous arrival: both at clock ~0.
      lock.Lock(h);
      order.push_back(t);
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0] + order[1], 1);  // both ran, in some order
}

// TryLock must not disturb the queue.
TEST(CnaAlgorithm, TryLockSemantics) {
  locks::CnaLock<RealPlatform> lock;
  locks::CnaLock<RealPlatform>::Handle a;
  locks::CnaLock<RealPlatform>::Handle b;
  ASSERT_TRUE(lock.TryLock(a));
  EXPECT_FALSE(lock.TryLock(b));
  lock.Unlock(a);
  ASSERT_TRUE(lock.TryLock(b));
  lock.Unlock(b);
}

// Long-term fairness factor stays near 0.5 even with the paper's default
// threshold, over a long enough horizon (Section 7.1.1 / Figure 8).
TEST(CnaFairness, AllThreadsFinishWithDefaultThreshold) {
  sim::Machine m(TwoSocketSmall(4));
  SimCna lock;
  constexpr int kThreads = 8;
  constexpr int kIters = 250;
  std::vector<int> done(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&, t] {
      for (int i = 0; i < kIters; ++i) {
        locks::ScopedLock<SimCna> g(lock);
        ++done[static_cast<std::size_t>(t)];
      }
    });
  }
  m.Run();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(done[static_cast<std::size_t>(t)], kIters) << "thread " << t;
  }
}


// ---------- Section 6 socket-tagged queue links (locks/cna_queue.h) ----------

// Releases classify waiters from their tagged links, not from the waiters'
// nodes.  Pinned exactly: the Figure 1 scenario costs 79 simulated loads.
TEST(CnaTagged, Figure1ScenarioLoadCount) {
  sim::Machine m(TwoSocketSmall());
  SimCna lock;
  for (int t = 0; t < 6; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 400 + 1);
      SimCna::Handle h;
      lock.Lock(h);
      if (t == 0) {
        sim::Machine::Active()->AdvanceLocalWork(200'000);
      }
      lock.Unlock(h);
    });
  }
  m.Run();
  EXPECT_EQ(m.TotalStats().loads, 79u);
}

// The queue module on both node types it serves: CnaLock's handle and the
// qspinlock's per-CPU node.
template <typename Node>
class CnaQueueTest : public ::testing::Test {};
using CnaQueueNodes =
    ::testing::Types<locks::CnaLock<RealPlatform>::Handle,
                     qspin::QSpinNodes<RealPlatform>::QNode>;
TYPED_TEST_SUITE(CnaQueueTest, CnaQueueNodes);

TYPED_TEST(CnaQueueTest, TagRoundTripsSocketsThatFit) {
  namespace queue = locks::cna_queue;
  TypeParam n;
  n.socket.store(99);  // proves SocketOf reads the tag, not the node
  for (int socket = 0; socket <= 62; ++socket) {
    TypeParam* link = queue::Tagged(&n, socket);
    EXPECT_NE(link, &n) << socket;
    EXPECT_EQ(queue::Ptr(link), &n) << socket;
    EXPECT_EQ(queue::SocketOf(link), socket);
  }
}

TYPED_TEST(CnaQueueTest, UntaggedFallbackReadsTheSocketField) {
  namespace queue = locks::cna_queue;
  TypeParam n;
  for (int socket : {63, 64, 1000, -1}) {
    n.socket.store(socket);
    TypeParam* link = queue::Tagged(&n, socket);
    EXPECT_EQ(link, &n) << socket;
    EXPECT_EQ(queue::Ptr(link), &n) << socket;
    EXPECT_EQ(queue::SocketOf(link), socket);
  }
}

// Queue me(0) -> a(1) -> b(1) -> c(0) -> d(1): the walk moves [a, b] to the
// secondary queue with the a->b link still tagged, hands over to c, and the
// flush splices the secondary queue in front of d's tagged link verbatim.
TYPED_TEST(CnaQueueTest, WalkAndSplicePreserveTaggedLinks) {
  namespace queue = locks::cna_queue;
  TypeParam me, a, b, c, d;
  const auto link = [](TypeParam& n, int socket) {
    n.socket.store(socket);
    return queue::Tagged(&n, socket);
  };
  me.socket.store(0);
  me.spin.store(1);
  me.next.store(link(a, 1));
  a.next.store(link(b, 1));
  b.next.store(link(c, 0));
  TypeParam* const to_d = link(d, 1);
  c.next.store(to_d);

  std::uintptr_t spin = 1;
  const auto found =
      queue::FindSuccessor<RealPlatform>(me, me.next.load(), spin);
  EXPECT_EQ(found.node, &c);
  EXPECT_EQ(found.moved, 2u);
  EXPECT_EQ(spin, reinterpret_cast<std::uintptr_t>(&a));
  EXPECT_EQ(me.spin.load(), spin);
  EXPECT_EQ(a.sec_tail.load(), &b);
  EXPECT_EQ(a.next.load(), queue::Tagged(&b, 1));
  EXPECT_EQ(b.next.load(), nullptr);

  EXPECT_EQ(queue::SpliceSecondary(spin, to_d), &a);
  EXPECT_EQ(b.next.load(), to_d);
  d.socket.store(7);  // the spliced link still classifies d from its tag
  EXPECT_EQ(queue::SocketOf(b.next.load()), 1);
}

// A walk that finds a local successor while a secondary queue exists appends
// the crossed segment behind the secondary tail, through its tagged link.
TYPED_TEST(CnaQueueTest, WalkAppendsToAnExistingSecondaryQueue) {
  namespace queue = locks::cna_queue;
  TypeParam me, s, x, c;
  s.socket.store(1);
  s.sec_tail.store(&s);
  me.socket.store(0);
  me.next.store(queue::Tagged(&x, 1));
  x.socket.store(1);
  x.next.store(queue::Tagged(&c, 0));
  c.socket.store(0);

  std::uintptr_t spin = reinterpret_cast<std::uintptr_t>(&s);
  me.spin.store(spin);
  const auto found =
      queue::FindSuccessor<RealPlatform>(me, me.next.load(), spin);
  EXPECT_EQ(found.node, &c);
  EXPECT_EQ(found.moved, 1u);
  EXPECT_EQ(spin, reinterpret_cast<std::uintptr_t>(&s));
  EXPECT_EQ(s.next.load(), queue::Tagged(&x, 1));
  EXPECT_EQ(s.sec_tail.load(), &x);
  EXPECT_EQ(x.next.load(), nullptr);
}

// ---------- Section 7.1.1 queue-alteration statistics ----------

struct StatsConfig : locks::CnaDefaultConfig {
  static constexpr bool kCollectStats = true;
};
struct StatsOptConfig : StatsConfig {
  static constexpr bool kShuffleReduction = true;
  static constexpr std::uint64_t kShuffleMask = 0xff;
};

TEST(CnaStats, CountersAccountForEveryRelease) {
  locks::GlobalCnaCounters().Reset();
  sim::Machine m(TwoSocketSmall());
  locks::CnaLock<SimPlatform, StatsConfig> lock;
  constexpr int kThreads = 6;
  constexpr int kIters = 200;
  for (int t = 0; t < kThreads; ++t) {
    m.Spawn([&] {
      for (int i = 0; i < kIters; ++i) {
        locks::ScopedLock<locks::CnaLock<SimPlatform, StatsConfig>> g(lock);
      }
    });
  }
  m.Run();
  auto& c = locks::GlobalCnaCounters();
  EXPECT_EQ(c.releases.load(), static_cast<std::uint64_t>(kThreads) * kIters);
  // Every handover is classified exactly once (the final release frees the
  // lock and is none of the three).
  EXPECT_LE(c.local_handovers.load() + c.secondary_flushes.load() +
                c.fifo_handovers.load(),
            c.releases.load());
  EXPECT_GT(c.local_handovers.load(), 0u);
  locks::GlobalCnaCounters().Reset();
}

TEST(CnaStats, ShuffleReductionCutsQueueAlterations) {
  // Paper, Section 7.1.1: the shuffle-reduction optimization reduces the
  // number of times the main queue is altered "by almost a factor of ten at
  // 4 threads".  Reproduce the direction of that result deterministically.
  auto run = [](auto lock_tag) {
    using L = decltype(lock_tag);
    locks::GlobalCnaCounters().Reset();
    sim::Machine m(TwoSocketSmall());
    L lock;
    for (int t = 0; t < 4; ++t) {
      m.Spawn([&] {
        for (int i = 0; i < 400; ++i) {
          {
            locks::ScopedLock<L> g(lock);
            sim::Machine::Active()->AdvanceLocalWork(150);
          }
          // External work long enough that the queue regularly drains and
          // refills mixed -- the light-contention regime of Figure 9's
          // 4-thread point, where the paper measured the 10x reduction.
          sim::Machine::Active()->AdvanceLocalWork(
              1000 + sim::Machine::Active()->Random() % 1000);
        }
      });
    }
    m.Run();
    return locks::GlobalCnaCounters().queue_alterations.load();
  };
  const auto base = run(locks::CnaLock<SimPlatform, StatsConfig>{});
  const auto opt = run(locks::CnaLock<SimPlatform, StatsOptConfig>{});
  EXPECT_LT(opt * 2, base) << "base=" << base << " opt=" << opt;
  locks::GlobalCnaCounters().Reset();
}

// ---------- MCSCR (Malthusian MCS) ----------

TEST(Mcscr, CullsIntoPassiveListUnderContention) {
  sim::Machine m(TwoSocketSmall());
  locks::McscrLock<SimPlatform> lock;
  int max_passive = 0;
  for (int t = 0; t < 8; ++t) {
    m.Spawn([&, t] {
      sim::Machine::Active()->AdvanceLocalWork(
          static_cast<std::uint64_t>(t) * 300 + 1);
      for (int i = 0; i < 100; ++i) {
        locks::ScopedLock<locks::McscrLock<SimPlatform>> g(lock);
        max_passive = std::max(max_passive, lock.PassiveCountApprox());
      }
    });
  }
  m.Run();
  EXPECT_GT(max_passive, 0);        // culling happened
  EXPECT_EQ(lock.PassiveCountApprox(), 0);  // and fully drained at the end
}

TEST(Mcscr, TwoWordsOfState) {
  EXPECT_EQ(locks::McscrLock<RealPlatform>::kStateBytes, 2 * sizeof(void*));
}

}  // namespace
}  // namespace cna
