#include "comm/rendezvous.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <stdexcept>

#include "comm/communicator.hpp"

namespace tsr::comm {

namespace {

// Wire counters one member accumulates over a collective.
struct WireCounts {
  std::int64_t msgs = 0;
  std::int64_t intra = 0;
  std::int64_t inter = 0;
};

// Communicator::send_msg's timing model, step for step: the sender's NIC is
// busy for bytes * beta (scaled by its slowdown), then the message lands
// alpha later. Returns the arrival stamp.
double send_arrival(const topo::MachineSpec& spec, rt::SimClock& clock,
                    topo::LinkType link, std::int64_t bytes) {
  if (link == topo::LinkType::Self) return clock.now();
  const topo::LinkParams& params = spec.params(link);
  clock.advance(static_cast<double>(bytes) * params.beta);
  return clock.now() + params.alpha;
}

void count_send(topo::LinkType link, std::int64_t bytes, WireCounts& counts) {
  ++counts.msgs;
  (link == topo::LinkType::InterNode ? counts.inter : counts.intra) += bytes;
}

void add_counts(CommStats& stats, const WireCounts& counts) {
  stats.msgs_sent += counts.msgs;
  stats.bytes_sent += counts.intra + counts.inter;
  stats.bytes_intra_node += counts.intra;
  stats.bytes_inter_node += counts.inter;
}

// Calls on one communicator that may be in flight at once before a member
// takes the locked late path. Only a member that received nothing in its
// last calls runs ahead of its group, and rarely by more than a call or
// two. At least 2: a woken member must not reach the slot it just left
// before its runner frees it.
constexpr std::size_t kSlots = 4;
static_assert(kSlots >= 2);

enum StepOp : std::uint32_t { kSendIntra, kSendInter, kSelfSend, kRecv };

// One wire operation of a compiled program. A send busies its member's NIC
// for `busy` seconds (bytes * beta, before the slowdown) and writes its
// arrival stamp to arrival slot `slot`; the receive it matches reads that
// slot.
struct Step {
  double busy = 0.0;
  std::int32_t member = 0;  // group rank
  std::uint32_t slot : 30;
  std::uint32_t op : 2;  // StepOp
};
static_assert(sizeof(Step) == 16);

Step send_step(const topo::MachineSpec& spec, topo::LinkType link,
               std::int64_t bytes, int member, std::int32_t slot) {
  Step s{0.0, member, static_cast<std::uint32_t>(slot), kSelfSend};
  if (link != topo::LinkType::Self) {
    s.busy = static_cast<double>(bytes) * spec.params(link).beta;
    s.op = link == topo::LinkType::IntraNode ? kSendIntra : kSendInter;
  }
  return s;
}

// A member's place in one call on a communicator.
struct Seat {
  rt::SimClock entry;  // the member's clock at arrival
  Rendezvous::Plan* plan = nullptr;  // the collective it called
  const std::vector<WireOp>* ops = nullptr;  // null when arrived compiled
  std::vector<WireOp> own_ops;  // a detached member's copy (it records on)
  // Received nothing: charged its own sends at arrival and left, so the run
  // neither writes it back nor wakes it.
  bool detached = false;
};

void take_seat(Seat& seat, const rt::SimClock& entry, Rendezvous::Plan& plan,
               const std::vector<WireOp>* ops, bool detached) {
  seat.entry = entry;
  seat.plan = &plan;
  seat.detached = detached;
  if (ops != nullptr && detached) {
    seat.own_ops.assign(ops->begin(), ops->end());
    seat.ops = &seat.own_ops;
  } else {
    seat.ops = ops;  // untouched until this member is woken
  }
}

// One call on a communicator in flight.
struct Slot {
  std::atomic<std::uint64_t> instance{0};  // the call this slot serves
  std::atomic<std::size_t> arrived{0};
};

// A message of the replay in flight to a member.
struct Pending {
  int src = 0;  // sender's group rank; -1 once consumed
  double arrival = 0.0;
  std::int32_t slot = 0;  // the send's arrival slot in the program
};

// A member's replay state.
struct ReplayMember {
  rt::SimClock clock;  // the member's clock at arrival, then replayed
  std::size_t pc = 0;  // next op to execute
  int waiting_on = -1;  // group rank this member's recv waits for
  std::size_t head = 0;  // inbox entries before head are consumed
  std::vector<Pending> inbox;
  WireCounts counts;
};

// Working state of a communicator's runs. The vectors keep their capacity,
// so the steady state allocates nothing.
struct Scratch {
  std::vector<ReplayMember> members;
  std::vector<int> ready;  // runnable group ranks
  std::vector<rt::SimClock> clocks;
  std::vector<double> arrivals;
};

}  // namespace

struct Rendezvous::Plan {
  struct Member {
    WireCounts counts;
    bool detached = false;  // receives nothing
    // A detached member's NIC times: sends[first, first + count).
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  Plan(CollectiveKind k, int r, std::int64_t b) : bytes(b), root(r), kind(k) {}

  std::int64_t bytes;
  int root;
  CollectiveKind kind;
  // Program, written by the communicator's second replay of the collective
  // and read-only once `ready`.
  std::vector<Step> steps;
  std::vector<Member> members;  // per group rank
  std::vector<double> sends;    // detached members' NIC times, per member
  std::int32_t nsends = 0;
  std::atomic<bool> ready{false};
};

struct Rendezvous::Collective {
  std::int64_t bytes;
  int root;
  CollectiveKind kind;
  Plan* plan;
  std::uint64_t calls = 0;  // calls this member made of it
};

struct Rendezvous::Meetings {
  struct Member {
    std::uint64_t calls = 0;  // phantom calls it arrived at
    std::vector<Collective> collectives;  // in order of first call
    std::size_t next = 0;  // where the next lookup starts
  };

  // A member that reached its call `instance` while the slot was still
  // serving an earlier call; the slot's runner seats it on release.
  struct Late {
    std::uint64_t instance = 0;
    int grank = 0;
    Seat seat;  // its ops point to own_ops when `copied`; fixed up on move
    bool copied = false;
  };

  Meetings(std::uint32_t id, std::shared_ptr<const std::vector<int>> group)
      : comm_id(id),
        ranks_owner(std::move(group)),
        ranks(*ranks_owner),
        members(ranks.size()),
        seats(kSlots * ranks.size()) {
    for (std::size_t i = 0; i < kSlots; ++i) slots[i].instance.store(i);
  }

  // Slot k's seats, one per group rank.
  Seat* seats_of(std::size_t k) { return &seats[k * ranks.size()]; }

  std::uint32_t comm_id;
  std::shared_ptr<const std::vector<int>> ranks_owner;
  const std::vector<int>& ranks;  // world ranks, group order

  // One plan per collective (kind, root, bytes), in order of first call;
  // guarded by Rendezvous::mu_. A deque never moves its elements.
  std::deque<Plan> plans;

  // Member i's fields are touched by its own thread only.
  std::vector<Member> members;  // per group rank

  // Meetings. Every member makes the same sequence of phantom calls on a
  // communicator, so member i's n-th call (members[i].calls) meets the
  // others' n-th in slot n % kSlots. Calls complete in order, and each
  // call's runner finishes before the next call's runner starts: the next
  // call needs every member, and a member that waits for this one is woken
  // only after its run.
  std::array<Slot, kSlots> slots;
  std::vector<Seat> seats;  // kSlots x group size
  Scratch scratch;  // used by one run at a time
  std::mutex late_mu;
  std::atomic<std::size_t> late_count{0};
  std::vector<Late> late;  // guarded by late_mu
};

Rendezvous::Rendezvous(World& world)
    : world_(world), recorders_(static_cast<std::size_t>(world.size())) {}

Rendezvous::~Rendezvous() = default;

Rendezvous::Meetings& Rendezvous::meetings(
    std::uint32_t comm_id,
    const std::shared_ptr<const std::vector<int>>& group) {
  std::lock_guard lock(mu_);
  for (const auto& c : comms_) {
    if (c->comm_id == comm_id && c->ranks == *group) return *c;
  }
  comms_.push_back(std::make_unique<Meetings>(comm_id, group));
  return *comms_.back();
}

Rendezvous::Collective& Rendezvous::collective(Meetings& comm, int grank,
                                               CollectiveKind kind, int root,
                                               std::int64_t bytes) {
  Meetings::Member& m = comm.members[static_cast<std::size_t>(grank)];
  std::vector<Collective>& known = m.collectives;
  // A layer repeats its collectives in the order of their first calls, so
  // the scan starts after the last one found and usually stops at once.
  const std::size_t n = known.size();
  for (std::size_t i = 0, j = m.next; i < n; ++i, j = j + 1 == n ? 0 : j + 1) {
    Collective& c = known[j];
    if (c.bytes == bytes && c.root == root && c.kind == kind) {
      m.next = j + 1 == n ? 0 : j + 1;
      return c;
    }
  }
  Plan* plan = nullptr;
  {
    std::lock_guard lock(mu_);
    for (Plan& p : comm.plans) {
      if (p.bytes == bytes && p.root == root && p.kind == kind) plan = &p;
    }
    if (plan == nullptr) plan = &comm.plans.emplace_back(kind, root, bytes);
  }
  known.push_back({bytes, root, kind, plan});
  m.next = 0;
  return known.back();
}

bool Rendezvous::records(const Collective& c) {
  return c.calls < 2 || !c.plan->ready.load(std::memory_order_acquire);
}

void Rendezvous::reset() {
  std::lock_guard lock(mu_);
  for (const auto& c : comms_) {
    for (Meetings::Member& m : c->members) m.calls = 0;
    for (std::size_t i = 0; i < kSlots; ++i) {
      c->slots[i].instance.store(i);
      c->slots[i].arrived.store(0);
    }
    c->late.clear();
    c->late_count.store(0);
  }
}

PhantomCounts Rendezvous::counts() const {
  return {replays_.load(), compiles_.load(), compiled_runs_.load()};
}

bool Rendezvous::arrive(Meetings& comm, Collective& c, int grank,
                        const std::vector<WireOp>* ops) {
  Plan& p = *c.plan;
  const std::uint64_t call = c.calls++;
  const topo::MachineSpec& spec = world_.spec();
  const auto me = static_cast<std::size_t>(grank);
  const int me_w = comm.ranks[me];
  rt::SimClock& clock = world_.clock(me_w);
  const rt::SimClock entry = clock;
  const bool detached =
      ops != nullptr
          ? std::none_of(ops->begin(), ops->end(),
                         [](const WireOp& op) { return !op.send; })
          : p.members[me].detached;
  if (detached) {
    // Own thread, own clock and stats: nothing to wait for.
    WireCounts counts;
    if (ops != nullptr) {
      for (const WireOp& op : *ops) {
        const topo::LinkType link =
            spec.link(me_w, comm.ranks[static_cast<std::size_t>(op.peer)]);
        (void)send_arrival(spec, clock, link, op.bytes);
        count_send(link, op.bytes, counts);
      }
    } else {
      const Plan::Member& m = p.members[me];
      for (std::uint32_t j = 0; j < m.count; ++j) {
        clock.advance(p.sends[m.first + j]);
      }
      counts = m.counts;
    }
    add_counts(world_.stats(me_w), counts);
  }

  const std::uint64_t n = comm.members[me].calls++;
  const std::size_t k = n % kSlots;
  Slot& slot = comm.slots[k];
  if (slot.instance.load(std::memory_order_acquire) != n) {
    // The slot still serves call n - kSlots: this member left that many
    // calls early, having received nothing in them. Queue its seat for the
    // slot's runner to move in on release.
    std::lock_guard lock(comm.late_mu);
    comm.late_count.fetch_add(1);
    if (slot.instance.load() != n) {
      Meetings::Late& l = comm.late.emplace_back();
      l.instance = n;
      l.grank = grank;
      take_seat(l.seat, entry, p, ops, detached);
      l.copied = l.seat.ops == &l.seat.own_ops;
      return !detached;
    }
    comm.late_count.fetch_sub(1);  // freed meanwhile: take the seat
  }
  take_seat(comm.seats_of(k)[me], entry, p, ops, detached);
  if (slot.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 <
      comm.ranks.size()) {
    return !detached;
  }
  // Every waiting member is parked on its mailbox and touches neither its
  // op list nor its clock or stats until the wake.
  simulate(comm, k, me, call);
  release(comm, k, n + kSlots);
  return false;
}

void Rendezvous::simulate(Meetings& comm, std::size_t k, std::size_t runner,
                          std::uint64_t call) {
  const Seat* seats = comm.seats_of(k);
  Plan& p = *seats[runner].plan;
  for (std::size_t i = 0; i < comm.ranks.size(); ++i) {
    if (seats[i].plan != &p) {
      throw std::runtime_error(
          "phantom collective: members called different collectives");
    }
  }
  // Only this communicator's runs compile its plans, and its calls run in
  // order, so a member that skipped recording saw the plan compiled by an
  // earlier call, and if the plan is not compiled every member recorded.
  // Every member calls a collective equally often, so `call` is the same on
  // all of them: the first two calls replay and the second compiles.
  if (p.ready.load(std::memory_order_acquire)) {
    run_compiled(comm, p, k);
    compiled_runs_.fetch_add(1, std::memory_order_relaxed);
  } else {
    replay(comm, p, k, call >= 1);
    replays_.fetch_add(1, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < comm.ranks.size(); ++i) {
    if (i == runner || seats[i].detached) continue;
    Message wake;
    wake.src = comm.ranks[i];
    wake.tag = kWakeTag;
    world_.mailbox(comm.ranks[i]).push(std::move(wake));
  }
}

void Rendezvous::release(Meetings& comm, std::size_t k, std::uint64_t next) {
  Slot& slot = comm.slots[k];
  slot.arrived.store(0, std::memory_order_relaxed);
  slot.instance.store(next);
  // Seat the members that arrived for `next` while the slot was busy. The
  // runner of this slot's last call has not yet made its next call, so
  // they cannot be all of `next`'s members.
  if (comm.late_count.load() == 0) return;
  std::lock_guard lock(comm.late_mu);
  std::size_t seated = 0;
  for (auto it = comm.late.begin(); it != comm.late.end();) {
    if (it->instance != next) {
      ++it;
      continue;
    }
    Seat& seat = comm.seats_of(k)[static_cast<std::size_t>(it->grank)];
    seat = std::move(it->seat);
    if (it->copied) seat.ops = &seat.own_ops;
    it = comm.late.erase(it);
    ++seated;
  }
  if (seated > 0) {
    comm.late_count.fetch_sub(seated);
    slot.arrived.fetch_add(seated, std::memory_order_acq_rel);
  }
}

void Rendezvous::replay(Meetings& comm, Plan& p, std::size_t k,
                        bool compile) {
  const topo::MachineSpec& spec = world_.spec();
  const std::vector<int>& ranks = comm.ranks;
  const int g = static_cast<int>(ranks.size());
  const Seat* seats = comm.seats_of(k);
  Scratch& sc = comm.scratch;
  sc.members.resize(static_cast<std::size_t>(g));
  sc.ready.clear();
  std::size_t nops = 0;
  for (int i = g - 1; i >= 0; --i) {
    ReplayMember& m = sc.members[static_cast<std::size_t>(i)];
    m.clock = seats[i].entry;
    m.pc = 0;
    m.waiting_on = -1;
    m.head = 0;
    m.inbox.clear();
    m.counts = WireCounts{};
    sc.ready.push_back(i);  // popped in group-rank order
    nops += seats[i].ops->size();
  }
  if (compile) {
    p.steps.clear();
    p.steps.reserve(nops);
    p.members.resize(static_cast<std::size_t>(g));
  }
  std::int32_t nsends = 0;
  // Run each member until its next receive finds no message; a send that
  // satisfies a waiting receiver makes it runnable again. Each member's
  // clock depends only on its own ops and the arrival stamps it receives,
  // so the visiting order cannot change the result, and the order taken is
  // a valid program order for the compiled run.
  while (!sc.ready.empty()) {
    const int i = sc.ready.back();
    sc.ready.pop_back();
    ReplayMember& m = sc.members[static_cast<std::size_t>(i)];
    const std::vector<WireOp>& ops = *seats[i].ops;
    const int src_w = ranks[static_cast<std::size_t>(i)];
    while (m.pc < ops.size()) {
      const WireOp& op = ops[m.pc];
      if (op.send) {
        const topo::LinkType link =
            spec.link(src_w, ranks[static_cast<std::size_t>(op.peer)]);
        const double arrival = send_arrival(spec, m.clock, link, op.bytes);
        count_send(link, op.bytes, m.counts);
        if (compile) {
          p.steps.push_back(send_step(spec, link, op.bytes, i, nsends));
        }
        ReplayMember& d = sc.members[static_cast<std::size_t>(op.peer)];
        d.inbox.push_back({i, arrival, nsends++});
        if (d.waiting_on == i) {
          d.waiting_on = -1;
          sc.ready.push_back(op.peer);
        }
      } else {
        // Messages of one (src, dst) pair match in send order.
        std::size_t j = m.head;
        while (j < m.inbox.size() && m.inbox[j].src != op.peer) ++j;
        if (j == m.inbox.size()) {
          m.waiting_on = op.peer;
          break;
        }
        m.clock.advance_to(m.inbox[j].arrival);
        if (compile) {
          p.steps.push_back(
              {0.0, i, static_cast<std::uint32_t>(m.inbox[j].slot), kRecv});
        }
        m.inbox[j].src = -1;
        while (m.head < m.inbox.size() && m.inbox[m.head].src < 0) ++m.head;
      }
      ++m.pc;
    }
  }
  for (int i = 0; i < g; ++i) {
    const ReplayMember& m = sc.members[static_cast<std::size_t>(i)];
    if (m.pc != seats[i].ops->size() || m.head != m.inbox.size()) {
      throw std::runtime_error(
          "phantom collective: members recorded mismatched schedules");
    }
  }
  for (int i = 0; i < g; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const ReplayMember& m = sc.members[ui];
    if (compile) {
      p.members[ui].counts = m.counts;
      p.members[ui].detached = seats[i].detached;
    }
    if (seats[i].detached) continue;  // charged itself at arrival
    world_.clock(ranks[ui]) = m.clock;
    add_counts(world_.stats(ranks[ui]), m.counts);
  }
  if (compile) {
    // A detached member replays only its own sends, in its program order.
    p.sends.clear();
    for (int i = 0; i < g; ++i) {
      Plan::Member& m = p.members[static_cast<std::size_t>(i)];
      if (!m.detached) continue;
      m.first = static_cast<std::uint32_t>(p.sends.size());
      for (const Step& s : p.steps) {
        if (s.member == i && s.op != kSelfSend) p.sends.push_back(s.busy);
      }
      m.count = static_cast<std::uint32_t>(p.sends.size()) - m.first;
    }
    p.nsends = nsends;
    p.ready.store(true, std::memory_order_release);
    compiles_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Rendezvous::run_compiled(Meetings& comm, const Plan& p, std::size_t k) {
  const topo::MachineSpec& spec = world_.spec();
  const std::vector<int>& ranks = comm.ranks;
  const std::size_t g = ranks.size();
  const Seat* seats = comm.seats_of(k);
  const double intra_alpha = spec.params(topo::LinkType::IntraNode).alpha;
  const double inter_alpha = spec.params(topo::LinkType::InterNode).alpha;
  Scratch& sc = comm.scratch;
  sc.clocks.resize(g);
  for (std::size_t i = 0; i < g; ++i) sc.clocks[i] = seats[i].entry;
  sc.arrivals.resize(static_cast<std::size_t>(p.nsends));
  for (const Step& s : p.steps) {
    rt::SimClock& clock = sc.clocks[static_cast<std::size_t>(s.member)];
    double& arrival = sc.arrivals[static_cast<std::size_t>(s.slot)];
    switch (s.op) {
      case kSendIntra:
        clock.advance(s.busy);
        arrival = clock.now() + intra_alpha;
        break;
      case kSendInter:
        clock.advance(s.busy);
        arrival = clock.now() + inter_alpha;
        break;
      case kSelfSend:
        arrival = clock.now();
        break;
      default:
        clock.advance_to(arrival);
        break;
    }
  }
  for (std::size_t i = 0; i < g; ++i) {
    if (p.members[i].detached) continue;  // charged itself at arrival
    world_.clock(ranks[i]) = sc.clocks[i];
    add_counts(world_.stats(ranks[i]), p.members[i].counts);
  }
}

}  // namespace tsr::comm
