#include "comm/rendezvous.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <unordered_map>

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
  std::vector<double> now, slow, arrivals;  // a compiled run's lane state
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

  Plan(Meetings& c, CollectiveKind k, int r, std::int64_t b)
      : comm(&c), bytes(b), root(r), kind(k) {}

  Meetings* comm;  // the communicator whose calls run it
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

namespace {

// True when two compiled programs do the same thing to their members'
// clocks: the same member and send counts and the same steps, bit for bit.
bool same_steps(const Rendezvous::Plan& a, const Rendezvous::Plan& b) {
  return a.members.size() == b.members.size() && a.nsends == b.nsends &&
         a.steps.size() == b.steps.size() &&
         std::memcmp(a.steps.data(), b.steps.data(),
                     a.steps.size() * sizeof(Step)) == 0;
}

}  // namespace

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
    : world_(world),
      recorders_(static_cast<std::size_t>(world.size())),
      logs_(static_cast<std::size_t>(world.size())) {}

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
    if (plan == nullptr) {
      plan = &comm.plans.emplace_back(comm, kind, root, bytes);
    }
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
  for (Log& log : logs_) log.mode = Log::kOff;
  segment_arrived_.store(0);
}

PhantomCounts Rendezvous::counts() const {
  return {replays_.load(), compiles_.load(), compiled_runs_.load(),
          segment_runs_.load(), lane_fires_.load()};
}

bool Rendezvous::arrive(Meetings& comm, Collective& c, int grank,
                        const std::vector<WireOp>* ops) {
  Plan& p = *c.plan;
  const std::uint64_t call = c.calls++;
  const topo::MachineSpec& spec = world_.spec();
  const auto me = static_cast<std::size_t>(grank);
  const int me_w = comm.ranks[me];
  Log& log = logs_[static_cast<std::size_t>(me_w)];
  if (log.mode != Log::kOff) note(log, {&p, 0.0});
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
    wake(comm.ranks[i]);
  }
}

void Rendezvous::wake(int world_rank) {
  Message m;
  m.src = world_rank;
  m.tag = kWakeTag;
  world_.mailbox(world_rank).push(std::move(m));
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
  const std::vector<int>& ranks = comm.ranks;
  const std::size_t g = ranks.size();
  const Seat* seats = comm.seats_of(k);
  Scratch& sc = comm.scratch;
  sc.now.resize(g);
  sc.slow.resize(g);
  sc.arrivals.resize(static_cast<std::size_t>(p.nsends));
  for (std::size_t i = 0; i < g; ++i) {
    sc.now[i] = seats[i].entry.now();
    sc.slow[i] = seats[i].entry.slowdown();
  }
  run_steps<1>(p, sc.now.data(), sc.slow.data(), sc.arrivals.data());
  for (std::size_t i = 0; i < g; ++i) {
    if (p.members[i].detached) continue;  // charged itself at arrival
    world_.clock(ranks[i]).reset(sc.now[i]);
    add_counts(world_.stats(ranks[i]), p.members[i].counts);
  }
}

template <int W>
void Rendezvous::run_steps(const Plan& p, double* now, const double* slow,
                           double* arrivals) const {
  const topo::MachineSpec& spec = world_.spec();
  const double alphas[2] = {spec.params(topo::LinkType::IntraNode).alpha,
                            spec.params(topo::LinkType::InterNode).alpha};
  static_assert(kSendIntra == 0 && kSendInter == 1);
  // The lane loops carry no dependence, and the arrays never overlap.
  for (const Step& s : p.steps) {
    double* t = now + static_cast<std::size_t>(s.member) * W;
    double* a = arrivals + static_cast<std::size_t>(s.slot) * W;
    switch (s.op) {
      case kSendIntra:
      case kSendInter: {
        // SimClock::advance, then the arrival stamp.
        if (const double busy = s.busy; busy > 0) {
          const double* f = slow + static_cast<std::size_t>(s.member) * W;
#pragma omp simd
          for (int l = 0; l < W; ++l) t[l] += busy * f[l];
        }
        const double alpha = alphas[s.op];
#pragma omp simd
        for (int l = 0; l < W; ++l) a[l] = t[l] + alpha;
        break;
      }
      case kSelfSend:
#pragma omp simd
        for (int l = 0; l < W; ++l) a[l] = t[l];
        break;
      default:  // SimClock::advance_to
        if constexpr (W == 1) {
          // A branch, as in SimClock: the host predicts it, so a receiver
          // that need not wait does not wait on its sender's chain either.
          if (a[0] > t[0]) t[0] = a[0];
        } else {
#pragma omp simd
          for (int l = 0; l < W; ++l) t[l] = a[l] > t[l] ? a[l] : t[l];
        }
        break;
    }
  }
}

// ---- Repeated segments -------------------------------------------------------

void Rendezvous::start_log(int world_rank) {
  Log& log = logs_[static_cast<std::size_t>(world_rank)];
  log.mode = Log::kLogging;
  log.valid = true;
  log.events.clear();
}

void Rendezvous::start_check(int world_rank) {
  Log& log = logs_[static_cast<std::size_t>(world_rank)];
  log.mode = Log::kChecking;
  log.checked = 0;
  log.entry = world_.clock(world_rank);
}

void Rendezvous::note(Log& log, const Event& e) {
  if (log.mode == Log::kLogging) {
    log.events.push_back(e);
  } else if (log.checked >= log.events.size() ||
             !(log.events[log.checked++] == e)) {
    log.valid = false;  // the second iteration differs from the first
  }
}

bool Rendezvous::run_segment(int world_rank, int more) {
  Log& log = logs_[static_cast<std::size_t>(world_rank)];
  if (log.checked != log.events.size()) log.valid = false;
  log.mode = Log::kOff;
  const int n = world_.size();
  if (segment_arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 < n) {
    (void)world_.mailbox(world_rank).pop(world_rank, kWakeTag);
    return segment_ok_;
  }
  // Every other rank is parked on its mailbox until the wake.
  segment_ok_ = build_and_run_segment(more);
  segment_arrived_.store(0, std::memory_order_relaxed);
  for (int r = 0; r < n; ++r) {
    if (r != world_rank) wake(r);
  }
  return segment_ok_;
}

bool Rendezvous::build_and_run_segment(int more) {
  const auto n = static_cast<std::size_t>(world_.size());
  for (const Log& log : logs_) {
    if (!log.valid) return false;
  }
  // Walk the logs in rounds. Each rank that can move runs to its next
  // collective; a collective whose members all wait on it fires, and its
  // members move in the next round. Every member calls a communicator's
  // collectives in the same order, so each communicator has at most one
  // collective waiting for members.
  struct Waiting {
    const Plan* plan = nullptr;
    std::size_t arrived = 0;
  };
  std::unordered_map<const Meetings*, Waiting> waiting;
  std::vector<std::size_t> pc(n, 0);
  std::vector<int> ready, next;
  for (std::size_t r = 0; r < n; ++r) ready.push_back(static_cast<int>(r));
  std::vector<const Plan*> fired;
  SegmentProgram program;
  std::uint64_t fires = 0;
  while (!ready.empty()) {
    fired.clear();
    for (const int r : ready) {
      const std::vector<Event>& events =
          logs_[static_cast<std::size_t>(r)].events;
      std::size_t& at = pc[static_cast<std::size_t>(r)];
      for (; at < events.size() && events[at].plan == nullptr; ++at) {
        program.ops.push_back(
            {nullptr, events[at].seconds, static_cast<std::uint32_t>(r), 0});
      }
      if (at == events.size()) continue;
      const Plan* plan = events[at].plan;
      Waiting& w = waiting[plan->comm];
      if (w.plan == nullptr) w.plan = plan;
      if (w.plan != plan) return false;  // members disagree
      if (++w.arrived == plan->comm->ranks.size()) {
        fired.push_back(plan);
        w = Waiting{};
      }
    }
    next.clear();
    for (const Plan* plan : fired) {
      for (const int m : plan->comm->ranks) {
        ++pc[static_cast<std::size_t>(m)];
        next.push_back(m);
      }
    }
    fires += fired.size();
    // Fires of one round touch disjoint ranks; those with identical steps
    // run as lanes of one batch, in the order they fired.
    for (std::size_t i = 0; i < fired.size(); ++i) {
      if (fired[i] == nullptr) continue;  // already in a batch
      SegmentOp batch{fired[i], 0.0,
                      static_cast<std::uint32_t>(program.lanes.size()), 0};
      for (std::size_t j = i; j < fired.size(); ++j) {
        if (fired[j] == nullptr || !same_steps(*batch.plan, *fired[j])) {
          continue;
        }
        program.lanes.push_back(&fired[j]->comm->ranks);
        ++batch.lanes;
        fired[j] = nullptr;
      }
      program.ops.push_back(batch);
    }
    ready.swap(next);
  }
  for (std::size_t r = 0; r < n; ++r) {
    if (pc[r] != logs_[r].events.size()) return false;  // stuck
  }
  // The program must turn each rank's clock at the second iteration's
  // start into the clock that iteration ended with, which catches any
  // clock change the logs missed.
  std::vector<rt::SimClock> check(n);
  for (std::size_t r = 0; r < n; ++r) check[r] = logs_[r].entry;
  std::uint64_t lane_fires = run_segment_program(program, check.data());
  for (std::size_t r = 0; r < n; ++r) {
    if (std::bit_cast<std::uint64_t>(check[r].now()) !=
        std::bit_cast<std::uint64_t>(world_.clock(static_cast<int>(r)).now())) {
      return false;
    }
  }
  rt::SimClock* clocks = &world_.clock(0);
  for (int i = 0; i < more; ++i) {
    lane_fires += run_segment_program(program, clocks);
  }
  const auto runs = static_cast<std::uint64_t>(more);
  compiled_runs_.fetch_add(fires * runs, std::memory_order_relaxed);
  segment_runs_.fetch_add(runs, std::memory_order_relaxed);
  lane_fires_.fetch_add(lane_fires, std::memory_order_relaxed);
  return true;
}

std::uint64_t Rendezvous::run_segment_program(const SegmentProgram& program,
                                              rt::SimClock* clocks) {
  constexpr int kLanes = 8;  // a batch's chunk width
  std::uint64_t lane_fires = 0;
  for (const SegmentOp& op : program.ops) {
    if (op.plan == nullptr) {
      clocks[op.at].advance(op.seconds);
      continue;
    }
    const std::vector<int>* const* lanes = &program.lanes[op.at];
    if (op.lanes == 1) {
      run_lanes<1>(*op.plan, lanes, 1, clocks);
      continue;
    }
    lane_fires += op.lanes;
    for (std::uint32_t first = 0; first < op.lanes; first += kLanes) {
      run_lanes<kLanes>(*op.plan, lanes + first,
                        std::min<std::uint32_t>(kLanes, op.lanes - first),
                        clocks);
    }
  }
  return lane_fires;
}

template <int W>
void Rendezvous::run_lanes(const Plan& plan,
                           const std::vector<int>* const* lanes,
                           std::uint32_t real, rt::SimClock* clocks) {
  // Each fire's members' clocks are their entry clocks, and the run leaves
  // their exit clocks (detached members' too). Lanes past `real` pad the
  // chunk with copies of its first lane; their results are dropped.
  const std::size_t g = plan.members.size();
  Scratch& sc = plan.comm->scratch;
  sc.now.resize(g * W);
  sc.slow.resize(g * W);
  sc.arrivals.resize(static_cast<std::size_t>(plan.nsends) * W);
  for (std::uint32_t l = 0; l < W; ++l) {
    const std::vector<int>& ranks = *lanes[l < real ? l : 0];
    for (std::size_t i = 0; i < g; ++i) {
      const rt::SimClock& c = clocks[ranks[i]];
      sc.now[i * W + l] = c.now();
      sc.slow[i * W + l] = c.slowdown();
    }
  }
  run_steps<W>(plan, sc.now.data(), sc.slow.data(), sc.arrivals.data());
  for (std::uint32_t l = 0; l < real; ++l) {
    const std::vector<int>& ranks = *lanes[l];
    for (std::size_t i = 0; i < g; ++i) {
      clocks[ranks[i]].reset(sc.now[i * W + l]);
    }
  }
}

}  // namespace tsr::comm
