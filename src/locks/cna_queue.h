// CNA's waiter queue, shared by CnaLock (locks/cna.h) and the qspinlock's CNA
// slow path (qspin/qspinlock.h): socket-tagged links and Figure 5's
// find_successor() with its secondary-queue splices.  A node is any
// cache-line-aligned type with Figure 2's fields spin, socket, sec_tail, next.
//
// Section 6, first optimization: nodes are 64-byte aligned, so a waiter links
// itself in with socket+1 in the low six bits of its predecessor's `next`,
// and find_successor() classifies each waiter from the link that leads to it
// instead of missing on the waiter's node.  The tag is always on: it costs an
// OR per enqueue and an AND per link followed.  A link with tag 0 (socket >=
// 63, or a segment link written by a splice) falls back to the node's socket.
#ifndef CNA_LOCKS_CNA_QUEUE_H_
#define CNA_LOCKS_CNA_QUEUE_H_

#include <atomic>
#include <cstdint>

#include "base/cacheline.h"

namespace cna::locks::cna_queue {

template <typename Node>
concept QueueNode = alignof(Node) >= kCacheLineSize;

// Low link bits that carry socket+1 (0 = no tag).
inline constexpr std::uintptr_t kSocketTagMask = kCacheLineSize - 1;

// The link to `n` as its predecessor stores it: tagged with `socket` when
// socket+1 fits the tag bits, plain `n` otherwise (and for socket -1).
template <QueueNode Node>
Node* Tagged(Node* n, int socket) {
  const auto tag = static_cast<std::uintptr_t>(socket + 1);
  if (tag > kSocketTagMask) {
    return n;
  }
  return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(n) | tag);
}

// The node a (possibly tagged) link points to.
template <QueueNode Node>
Node* Ptr(Node* link) {
  return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(link) &
                                 ~kSocketTagMask);
}

// Socket of the waiter `link` leads to: from the tag when there is one,
// otherwise from the node's `socket` field.
template <QueueNode Node>
int SocketOf(Node* link) {
  const auto tag = reinterpret_cast<std::uintptr_t>(link) & kSocketTagMask;
  if (tag != 0) {
    return static_cast<int>(tag) - 1;
  }
  return link->socket.load(std::memory_order_acquire);
}

template <QueueNode Node>
struct Successor {
  Node* node = nullptr;     // same-socket successor; nullptr if none linked
  std::uint64_t moved = 0;  // waiters moved to the secondary queue
};

// Figure 5's find_successor(): walks the main queue from `next_link` (me.next,
// non-null) to the first waiter on the holder's socket, moving the waiters
// crossed on the way to the secondary queue.  `spin` is the holder's copy of
// me.spin, updated (and written back) when the walk creates that queue.
template <typename P, QueueNode Node>
Successor<Node> FindSuccessor(Node& me, Node* next_link,
                              std::uintptr_t& spin) {
  int my_socket = me.socket.load(std::memory_order_relaxed);
  if (my_socket == -1) {
    // The holder acquired uncontended and never recorded its socket.
    my_socket = P::CurrentSocket();
  }
  Node* next = Ptr(next_link);
  if (SocketOf(next_link) == my_socket) {
    return {next, 0};  // immediate successor is local: nothing to move
  }
  Node* sec_head = next;
  Node* sec_tail = next;
  std::uint64_t segment_len = 1;
  Node* cur_link = next->next.load(std::memory_order_acquire);
  while (cur_link != nullptr) {
    Node* cur = Ptr(cur_link);
    if (SocketOf(cur_link) == my_socket) {
      // Move [sec_head .. sec_tail] into the secondary queue.  The links
      // inside the segment keep their tags; the one appending it is plain.
      if (spin > 1) {
        reinterpret_cast<Node*>(spin)
            ->sec_tail.load(std::memory_order_relaxed)
            ->next.store(sec_head, std::memory_order_relaxed);
      } else {
        // Secondary queue was empty: the segment head becomes its head.
        spin = reinterpret_cast<std::uintptr_t>(sec_head);
        me.spin.store(spin, std::memory_order_relaxed);
      }
      sec_tail->next.store(nullptr, std::memory_order_relaxed);
      reinterpret_cast<Node*>(spin)->sec_tail.store(sec_tail,
                                                    std::memory_order_relaxed);
      return {cur, segment_len};
    }
    sec_tail = cur;
    ++segment_len;
    cur_link = cur->next.load(std::memory_order_acquire);
  }
  return {};
}

// Figure 1(g): splices the secondary queue designated by `spin` (> 1) in
// front of `next_link`, stored verbatim so its tag survives, and returns the
// secondary head for the caller to grant.  The head's sec_tail need not be
// cleared: the new holder never reads it (paper, end of Section 5).
template <QueueNode Node>
Node* SpliceSecondary(std::uintptr_t spin, Node* next_link) {
  Node* head = reinterpret_cast<Node*>(spin);
  head->sec_tail.load(std::memory_order_relaxed)
      ->next.store(next_link, std::memory_order_relaxed);
  return head;
}

}  // namespace cna::locks::cna_queue

#endif  // CNA_LOCKS_CNA_QUEUE_H_
