// Collective-granularity simulation of phantom collectives.
//
// A phantom collective moves no data, so its outcome — every member's exit
// clock and wire counters — is a pure function of the members' entry clocks,
// the link classes between them and the byte count. On a World with no
// per-message observer (no tracing, metrics, live sampler or fault injector)
// the Communicator therefore runs a phantom collective's algorithm in record
// mode: send_msg / recv_msg append WireOps to the member's list instead of
// touching the mailbox, so each tree and ring schedule stays written once.
// Each member then arrives here. The last one to arrive replays every
// member's list in one loop with the message path's exact arithmetic —
// sender: advance(bytes * beta) (slowdown applies), arrival = now + alpha;
// receiver: advance_to(arrival), per-(src, dst) FIFO — writes the exit
// clocks and CommStats wire counters, and wakes the others, who park on
// their own Mailbox meanwhile. Parking there keeps poison, PeerFailure,
// fiber deadlock detection and the thread-backend watchdog working unchanged.
// A member whose list holds no receive (a reduce-tree leaf, a tree
// broadcast's root) depends on nobody: it charges its own sends at once and
// leaves, as it would on the message path, and the replay only reads it.
//
// The message path stays the reference: traced, metered, live and faulted
// runs and every real-payload collective use it, and the tests compare the
// two bit for bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace tsr::comm {

class World;

/// One wire operation of a recorded collective, in the member's program
/// order: a send of `bytes` to group rank `peer`, or a receive from it.
struct WireOp {
  std::int64_t bytes = 0;
  int peer = 0;
  bool send = false;
};

/// Per-World meeting point of record-mode phantom collectives. Steady state
/// allocates nothing: op lists, meetings and replay scratch keep their
/// capacity across calls.
class Rendezvous {
 public:
  explicit Rendezvous(World& world);
  ~Rendezvous();

  /// The op list `world_rank` records into; owned by that rank's thread.
  std::vector<WireOp>& recorder(int world_rank) {
    return recorders_[static_cast<std::size_t>(world_rank)];
  }

  /// Deposits group rank `grank`'s recorded ops for the collective `tag` of
  /// `group` (world ranks in group order). The meeting is keyed on the tag
  /// and the full rank list, so groups whose hashed ids collide never merge.
  /// Returns true when the caller must wait on its own mailbox for the
  /// message (its own world rank, tag), which the member that arrives last
  /// sends once it has replayed the collective. On false the caller's clock
  /// and wire counters are already final: it received nothing, or it
  /// arrived last and replayed the collective itself.
  bool arrive(const std::vector<int>& group, int grank, std::uint64_t tag,
              const std::vector<WireOp>& ops);

  /// Drops meetings a failed run left half-filled (World::run start).
  void reset();

  /// Collectives replayed so far (tests check the fast path engaged).
  std::uint64_t replays() const { return replays_.load(); }

 private:
  struct Meeting;

  void replay(Meeting& m);

  World& world_;
  std::vector<std::vector<WireOp>> recorders_;  // per world rank
  std::mutex mu_;
  // Stable addresses: a meeting is replayed outside the lock.
  std::vector<std::unique_ptr<Meeting>> meetings_;
  std::atomic<std::uint64_t> replays_{0};
};

}  // namespace tsr::comm
