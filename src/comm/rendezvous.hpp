// Collective-granularity simulation of phantom collectives: compile once per
// World, then run a flat wire program.
//
// A phantom collective moves no data, so its outcome — every member's exit
// clock and wire counters — is a pure function of the members' entry clocks
// and of its key: kind, root, byte count and the group. The key fixes every
// member's list of wire operations. On a World with no per-message observer
// (no tracing, metrics, live sampler or fault injector) every call meets
// its group in the World's Rendezvous:
//
//  * Record and replay (each member's first two calls of a key on a
//    communicator). Each member runs the collective's *_impl in record
//    mode: send_msg / recv_msg append WireOps to the member's list instead
//    of touching the mailbox, so each tree and ring schedule stays written
//    once. The last member to arrive replays every member's list in one
//    loop with the message path's exact arithmetic — sender:
//    advance(bytes * beta) (slowdown applies), arrival = now + alpha;
//    receiver: advance_to(arrival), per-(src, dst) FIFO. The second call's
//    replay is also the compiler: it writes the order it executed as a flat
//    program (per step: member, send / self-send / recv, NIC time, arrival
//    slot; per member: wire counts, whether it receives anything and, if
//    not, its own NIC times). A key called once pays nothing for compiling.
//  * Compiled runs (every later call). A member skips record mode and only
//    deposits its entry clock; the last to arrive runs the flat program with
//    the same arithmetic, no matching and no per-member op lists.
//
// Either way the last member writes the exit clocks and CommStats wire
// counters and wakes the others, who park on their own Mailbox meanwhile.
// Parking there keeps poison, PeerFailure, fiber deadlock detection and the
// thread-backend watchdog working unchanged. A member that receives nothing
// (a reduce-tree leaf, a tree broadcast's root) depends on nobody: it charges
// its own sends at once and leaves, as it would on the message path, and the
// run only reads its entry clock.
//
// Meetings and plans are per communicator: every member makes the same
// sequence of phantom calls on it, and the n-th call of each meets in slot n
// of a small ring. Its calls run one after another, so the run that
// compiles a plan always finishes before a later call reads it. A call whose
// key the member has seen on that communicator takes no lock and hashes
// nothing: a short scan of the member's own list and one atomic arrival
// count. Plans live as long as their World, and every count above (replays,
// compiles, compiled runs) is a function of the program alone.
//
// The message path stays the reference: traced, metered, live and faulted
// runs and every real-payload collective use it, and the tests compare both
// the replay and the compiled runs against it bit for bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/stats.hpp"

namespace tsr::comm {

class World;

/// One wire operation of a recorded collective, in the member's program
/// order: a send of `bytes` to group rank `peer`, or a receive from it.
struct WireOp {
  std::int64_t bytes = 0;
  int peer = 0;
  bool send = false;
};

/// What a World's Rendezvous has simulated (tests and benches read it). All
/// three are deterministic for a given program.
struct PhantomCounts {
  std::uint64_t replays = 0;        ///< calls replayed from recorded op lists
  std::uint64_t compiles = 0;       ///< plans compiled (keys called twice)
  std::uint64_t compiled_runs = 0;  ///< calls run from a compiled program
};

/// Per-World meeting point and plan table of phantom collectives.
class Rendezvous {
 public:
  /// A communicator's compiled program of one collective.
  struct Plan;
  /// One communicator's meeting slots and its members' collectives.
  struct Meetings;
  /// One member's handle on a collective (kind, root, bytes) of a
  /// communicator: its plan and how often the member has called it. Only
  /// that member's thread touches it.
  struct Collective;

  explicit Rendezvous(World& world);
  ~Rendezvous();

  /// The op list `world_rank` records into; owned by that rank's thread.
  std::vector<WireOp>& recorder(int world_rank) {
    return recorders_[static_cast<std::size_t>(world_rank)];
  }

  /// The meeting state of the communicator `comm_id` over `group` (world
  /// ranks in group order), created on first use. Takes the table lock;
  /// Communicators keep the result.
  Meetings& meetings(std::uint32_t comm_id,
                     const std::shared_ptr<const std::vector<int>>& group);

  /// Group rank `grank`'s handle on the collective (kind, root, bytes) of
  /// `comm`. A member's first lookup of a key takes the table lock; later
  /// ones scan its own short list.
  Collective& collective(Meetings& comm, int grank, CollectiveKind kind,
                         int root, std::int64_t bytes);

  /// True when the member's next call of `c` must record its op list: its
  /// first two calls replay, and a later one records only if it runs ahead
  /// of the call that compiles the plan.
  static bool records(const Collective& c);

  /// Group rank `grank` of `comm` arrives at its next phantom collective,
  /// `c`, with the op list it recorded, or with none when records(c) was
  /// false. Returns true when the caller must wait on its own mailbox for
  /// the message (its own world rank, kWakeTag), which the member that
  /// arrives last sends once it has simulated the collective. On false the
  /// caller's clock and wire counters are already final: it received
  /// nothing, or it arrived last and simulated the collective itself.
  bool arrive(Meetings& comm, Collective& c, int grank,
              const std::vector<WireOp>* ops);

  /// Mailbox tag of the wake a parked member waits for. Collective tags
  /// carry a non-zero communicator id and user tags an odd low bit, so no
  /// message of the program can use it.
  static constexpr std::uint64_t kWakeTag = 0;

  /// Drops meetings a failed run left half-filled (World::run start); plans
  /// and their programs stay.
  void reset();

  /// What this World has simulated so far (tests check which path ran).
  PhantomCounts counts() const;

 private:
  // `slot` indexes the communicator's meeting slots; `call` counts the
  // runner's earlier calls of the collective.
  void simulate(Meetings& comm, std::size_t slot, std::size_t runner,
                std::uint64_t call);
  void replay(Meetings& comm, Plan& plan, std::size_t slot, bool compile);
  void run_compiled(Meetings& comm, const Plan& plan, std::size_t slot);
  void release(Meetings& comm, std::size_t slot, std::uint64_t next_call);

  World& world_;
  std::vector<std::vector<WireOp>> recorders_;  // per world rank
  std::mutex mu_;  // guards comms_ and each Meetings' plan table
  std::vector<std::unique_ptr<Meetings>> comms_;
  std::atomic<std::uint64_t> replays_{0};
  std::atomic<std::uint64_t> compiles_{0};
  std::atomic<std::uint64_t> compiled_runs_{0};
};

}  // namespace tsr::comm
