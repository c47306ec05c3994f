// Per-rank free list of message payload buffers.
//
// Every real message the cluster sends carries a shared_ptr<vector<float>>.
// Allocating that vector per message made the allocator the hottest shared
// object in the whole simulator. Instead each rank owns a BufferPool:
// senders acquire() payload buffers from their own pool, buffers travel to
// the receiver inside the Message, and the receiver recycle()s them into its
// own pool once the payload is consumed. Each pool is touched only by its
// owning rank (the mailbox mutex orders the handoff), so pools need no lock,
// and in steady state a collective allocates nothing: chunks circulate
// through a ring as the same few buffers passed from hand to hand.
//
// A payload has one holder at a time: senders move buffers into messages and
// never keep or share a reference (a tree broadcast forwards a copy to every
// child but the last). The mailbox lock orders every earlier holder's reads
// before the current holder's recycle, so the pool never hands out a buffer
// another rank may still read. A reference count alone would not: seeing
// use_count() == 1 gives no happens-before with the other holder's last
// read.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/payload.hpp"

namespace tsr::comm {

class BufferPool {
 public:
  /// Returns an empty buffer, reusing a pooled one (capacity retained) when
  /// available. The caller fills it with assign()/resize().
  PayloadPtr acquire();

  /// Returns a buffer the caller holds exclusively to the free list if the
  /// pool has room; otherwise simply drops the reference. A buffer that is
  /// still shared is dropped, never pooled. Null buffers are accepted
  /// (phantom messages have no payload).
  void recycle(PayloadPtr buf);

  // Telemetry for tests and the self-perf benchmark.
  std::uint64_t allocations() const { return allocations_; }
  std::uint64_t reuses() const { return reuses_; }
  std::size_t free_buffers() const { return free_.size(); }

 private:
  // Bounds pool memory; beyond this, retired buffers go back to the heap.
  static constexpr std::size_t kMaxFree = 256;

  std::vector<PayloadPtr> free_;
  std::uint64_t allocations_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace tsr::comm
