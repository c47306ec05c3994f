// Point-to-point message transport between virtual ranks.
//
// Each rank owns one Mailbox (its inbox). A message is matched by
// (source rank, tag) and delivered FIFO per sender — the ordering guarantee
// MPI gives for a (source, tag, comm) triple. Payloads are float vectors
// (every tensor in this library is float32); a message may instead be a
// "phantom" (no payload) that exists only to move the simulated clock and
// the byte counters, which is how the benchmark harness replays paper-scale
// schedules without paper-scale memory.
//
// The mailbox sits on the per-message critical path of every collective, so
// its storage is built to reach a zero-allocation steady state:
//   * messages live in slab-allocated nodes recycled through a free list;
//   * per-(src, tag) FIFOs are slots in a small flat table, cleared and
//     reused when drained rather than erased and reallocated;
//   * the receiver parks its waited-for key, so a push wakes it only when
//     the matching message arrives (no spurious wakeups), via the fiber
//     scheduler when the cluster runs cooperatively or a condvar when it
//     runs on OS threads. Under the multi-worker fiber scheduler the wake
//     crosses worker threads through the scheduler's atomic fiber-state
//     handoff: the common case (target's worker busy) costs no syscall, and
//     only a genuinely parked worker is kicked through its condvar.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/payload.hpp"
#include "runtime/fiber.hpp"

namespace tsr::comm {

struct Message {
  int src = 0;
  std::uint64_t tag = 0;
  /// Payload; null for phantom messages.
  PayloadPtr payload;
  /// Bytes this message represents on the wire (payload bytes for real
  /// messages; the declared size for phantom messages).
  std::int64_t wire_bytes = 0;
  /// Simulated arrival time at the receiver.
  double arrival_time = 0.0;
  /// Non-zero when tracing: pairs this send with its receive so the trace
  /// exporter can draw the wire edge and the critical-path analyzer can walk
  /// across ranks. 0 means "not traced".
  std::uint64_t flow_id = 0;
};

class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;
  ~Mailbox();

  /// Enqueues a message and wakes the receiver if it waits for exactly this
  /// (src, tag).
  void push(Message msg);

  /// Blocks until a message from (src, tag) is available and returns it.
  /// Only the owning rank may call this (single-consumer contract).
  /// Throws std::runtime_error if the mailbox is poisoned while waiting or
  /// the fiber scheduler detects an all-ranks-blocked deadlock, and
  /// fault::PeerFailure once a structured failure has been posted via
  /// poison_failure (checked before queued messages, so every survivor
  /// observes the failure at its next receive).
  Message pop(int src, std::uint64_t tag);

  /// Wakes all waiting receivers with an error; used when a peer rank has
  /// failed so blocked collectives do not deadlock the cluster.
  void poison(const std::string& why);

  /// Structured variant of poison for injected rank kills: records the
  /// shared dead-rank snapshot and wakes the parked receiver, whose pop
  /// (and every later pop) throws fault::PeerFailure carrying the set.
  /// Takes precedence over a plain poison and over queued messages.
  void poison_failure(std::shared_ptr<const std::vector<int>> failed_ranks);

  /// Bounds blocking receives to `ms` of host time (fault::FaultPlan
  /// recv_timeout_ms). Only the OS-thread backends can honor it — a timed
  /// wait needs a real clock — so the cooperative fiber backend ignores it
  /// and relies on poison_failure's instant wakeup instead. <= 0 disables.
  void set_recv_timeout_ms(int ms);

  /// Currently configured receive timeout (<= 0 = disabled); lets tests
  /// assert that replacing a fault plan resets the previous plan's value.
  int recv_timeout_ms() const;

  /// Number of queued messages (for tests / leak checks).
  std::size_t pending() const;

 private:
  struct Node {
    Message msg;
    Node* next = nullptr;
  };

  // One (src, tag) FIFO. Drained slots stay in the table with live == false
  // and are reused by the next key, so steady-state traffic allocates
  // nothing.
  struct Queue {
    int src = 0;
    std::uint64_t tag = 0;
    Node* head = nullptr;
    Node* tail = nullptr;
    bool live = false;
  };

  Node* alloc_node();
  void free_node(Node* n);
  Queue* find_queue(int src, std::uint64_t tag);
  Queue* find_or_add_queue(int src, std::uint64_t tag);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Queue> queues_;
  Node* free_nodes_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> slabs_;
  std::size_t slab_used_ = 0;  // nodes handed out of the newest slab

  // Parked receiver (at most one: the owning rank).
  bool has_waiter_ = false;
  int waiter_src_ = 0;
  std::uint64_t waiter_tag_ = 0;
  rt::FiberWaiter fiber_waiter_;

  bool poisoned_ = false;
  std::string poison_reason_;

  // Structured failure (injected rank kill). Non-null wins over poisoned_.
  std::shared_ptr<const std::vector<int>> failure_;
  int recv_timeout_ms_ = 0;
};

}  // namespace tsr::comm
