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
// Repeated segments (Communicator::repeat). The layer loops of a phantom
// replay call the same collectives and charges in every iteration. Each
// rank logs its first iteration: every charge (the advance() argument) and
// every phantom collective it arrives at (its plan). The second iteration
// must log the same events; any mailbox send or receive in either one
// spoils the log. By the end of the second iteration every plan is
// compiled. The ranks then meet once. The last to arrive walks the logs in
// dataflow order: a collective fires once all its members have reached it.
// The walk emits a segment program: per-rank charges and plan fires in one
// valid global order. The program references plans; fires and compiled runs
// share one step interpreter. The runner first runs the program on the
// clocks every rank had when its second iteration started and checks that
// this gives the clocks the iteration really ended with, bit for bit. It
// then runs the program for the remaining iterations on the World's clocks,
// with no meeting, wake or fiber switch. A spoiled log, a walk that gets
// stuck or a failed check makes every rank run the remaining iterations
// normally. Meetings, slots, call counters and each communicator's tag
// sequence are left as they were: every member skips the same calls. So the
// tags and split() ids that follow a repeat differ from a plain loop's, but
// agree across members and reuse no earlier one; no simulated number
// depends on them.
//
// The message path stays the reference: traced, metered, live and faulted
// runs and every real-payload collective use it, and the tests compare
// the replay, the compiled runs and the segment programs against it bit
// for bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/stats.hpp"
#include "runtime/sim_clock.hpp"

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
/// four are deterministic for a given program.
struct PhantomCounts {
  std::uint64_t replays = 0;        ///< calls replayed from recorded op lists
  std::uint64_t compiles = 0;       ///< plans compiled (keys called twice)
  /// Calls run from a compiled program, by a meeting or a segment program.
  std::uint64_t compiled_runs = 0;
  std::uint64_t segment_runs = 0;  ///< iterations run as a segment program
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

  /// Drops meetings and logs a failed run left half-filled (World::run
  /// start); plans and their programs stay.
  void reset();

  // ---- Repeated segments (Communicator::repeat) -----------------------------

  /// True while `world_rank` logs or checks an iteration.
  bool logging(int world_rank) const {
    return logs_[static_cast<std::size_t>(world_rank)].mode != Log::kOff;
  }
  /// Starts logging `world_rank`'s first iteration.
  void start_log(int world_rank);
  /// Switches to checking the second iteration against the first; its
  /// clock now is the second iteration's entry clock.
  void start_check(int world_rank);
  /// A local charge of `seconds` (the advance() argument) on `world_rank`.
  void log_charge(int world_rank, double seconds) {
    Log& log = logs_[static_cast<std::size_t>(world_rank)];
    if (log.mode != Log::kOff) note(log, {nullptr, seconds});
  }
  /// A mailbox send or receive on `world_rank`: spoils its log.
  void log_message(int world_rank) {
    Log& log = logs_[static_cast<std::size_t>(world_rank)];
    if (log.mode != Log::kOff) log.valid = false;
  }
  /// Stops the log without meeting (an iteration threw).
  void stop_log(int world_rank) {
    logs_[static_cast<std::size_t>(world_rank)].mode = Log::kOff;
  }
  /// `world_rank` has run two iterations of a repeat that wants `more`
  /// further ones. Meets every rank of the World, then returns true when
  /// the last to arrive ran those iterations as a segment program (clocks
  /// and PhantomCounts final; each rank still adds its CommStats), or false
  /// when every rank must run them itself.
  bool run_segment(int world_rank, int more);

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
  void wake(int world_rank);
  // Runs `plan` with its members' clocks in `clocks` (group order): the one
  // step interpreter of compiled runs and segment fires.
  void run_steps(const Plan& plan, rt::SimClock* clocks) const;

  // One event of a rank's iteration: a charge of `seconds` when `plan` is
  // null, else an arrival at a phantom collective of that plan.
  struct Event {
    const Plan* plan = nullptr;
    double seconds = 0.0;
    bool operator==(const Event&) const = default;
  };
  // A rank's log; only its own thread touches it until the meeting.
  struct Log {
    enum Mode : std::uint8_t { kOff, kLogging, kChecking };
    Mode mode = kOff;
    bool valid = true;  // no mailbox traffic, second iteration matched
    std::size_t checked = 0;  // events of the second iteration so far
    std::vector<Event> events;  // the first iteration
    rt::SimClock entry;  // clock at the second iteration's start
  };
  // One step of a segment program: a charge of `seconds` on world rank
  // `rank` when `plan` is null, else a fire of `plan`.
  struct SegmentOp {
    const Plan* plan = nullptr;
    double seconds = 0.0;
    int rank = 0;
  };
  void note(Log& log, const Event& e);
  // The runner's part of run_segment: walks the logs into a segment program
  // and runs it; false when the ranks must run the iterations themselves.
  bool build_and_run_segment(int more);
  // Runs `program` once on `clocks` (indexed by world rank).
  void run_segment_program(const std::vector<SegmentOp>& program,
                           rt::SimClock* clocks);

  World& world_;
  std::vector<std::vector<WireOp>> recorders_;  // per world rank
  std::vector<Log> logs_;  // per world rank
  std::atomic<int> segment_arrived_{0};
  bool segment_ok_ = false;  // the runner's verdict, read after the wake
  std::mutex mu_;  // guards comms_ and each Meetings' plan table
  std::vector<std::unique_ptr<Meetings>> comms_;
  std::atomic<std::uint64_t> replays_{0};
  std::atomic<std::uint64_t> compiles_{0};
  std::atomic<std::uint64_t> compiled_runs_{0};
  std::atomic<std::uint64_t> segment_runs_{0};
};

}  // namespace tsr::comm
