#include "comm/rendezvous.hpp"

#include <algorithm>
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
double charge_send(const topo::MachineSpec& spec, rt::SimClock& clock,
                   int src_w, int dst_w, std::int64_t bytes,
                   WireCounts& counts) {
  const topo::LinkType link = spec.link(src_w, dst_w);
  double arrival = clock.now();
  if (link != topo::LinkType::Self) {
    const topo::LinkParams& params = spec.params(link);
    clock.advance(static_cast<double>(bytes) * params.beta);
    arrival = clock.now() + params.alpha;
  }
  ++counts.msgs;
  (link == topo::LinkType::InterNode ? counts.inter : counts.intra) += bytes;
  return arrival;
}

void add_counts(CommStats& stats, const WireCounts& counts) {
  stats.msgs_sent += counts.msgs;
  stats.bytes_sent += counts.intra + counts.inter;
  stats.bytes_intra_node += counts.intra;
  stats.bytes_inter_node += counts.inter;
}

}  // namespace

struct Rendezvous::Meeting {
  enum class State { Free, Open, Replaying };

  // A message of the replay in flight to a member.
  struct Pending {
    int src = 0;  // sender's group rank; -1 once consumed
    double arrival = 0.0;
  };

  struct Member {
    const std::vector<WireOp>* ops = nullptr;  // null until seated
    std::vector<WireOp> own_ops;  // a detached member's copy (it records on)
    // Received nothing: charged its own sends at arrival and left, so the
    // replay neither writes it back nor wakes it.
    bool detached = false;

    // Replay state.
    rt::SimClock clock;       // the member's clock at arrival, then replayed
    std::size_t pc = 0;       // next op to execute
    int waiting_on = -1;      // group rank this member's recv waits for
    std::size_t head = 0;     // inbox entries before head are consumed
    std::vector<Pending> inbox;
    WireCounts counts;
  };

  State state = State::Free;
  std::uint64_t tag = 0;
  std::vector<int> ranks;  // world ranks, group order
  std::vector<Member> members;
  std::size_t arrived = 0;
  std::vector<int> ready;  // runnable group ranks
};

Rendezvous::Rendezvous(World& world)
    : world_(world), recorders_(static_cast<std::size_t>(world.size())) {}

Rendezvous::~Rendezvous() = default;

void Rendezvous::reset() {
  std::lock_guard lock(mu_);
  for (auto& m : meetings_) m->state = Meeting::State::Free;
}

bool Rendezvous::arrive(const std::vector<int>& group, int grank,
                        std::uint64_t tag, const std::vector<WireOp>& ops) {
  const auto me = static_cast<std::size_t>(grank);
  const int me_w = group[me];
  const rt::SimClock entry = world_.clock(me_w);
  const bool detached = std::none_of(ops.begin(), ops.end(),
                                     [](const WireOp& op) { return !op.send; });
  if (detached) {
    // Own thread, own clock and stats: nothing to wait for.
    WireCounts counts;
    for (const WireOp& op : ops) {
      (void)charge_send(world_.spec(), world_.clock(me_w), me_w,
                        group[static_cast<std::size_t>(op.peer)], op.bytes,
                        counts);
    }
    add_counts(world_.stats(me_w), counts);
  }
  Meeting* m = nullptr;
  {
    std::lock_guard lock(mu_);
    Meeting* free_slot = nullptr;
    for (auto& p : meetings_) {
      if (p->state == Meeting::State::Open) {
        // A taken seat means a second communicator over the same group
        // reused the tag; that call belongs to a later meeting.
        if (p->tag == tag && p->ranks == group &&
            p->members[me].ops == nullptr) {
          m = p.get();
          break;
        }
      } else if (p->state == Meeting::State::Free && free_slot == nullptr) {
        free_slot = p.get();
      }
    }
    if (m == nullptr) {
      if (free_slot == nullptr) {
        meetings_.push_back(std::make_unique<Meeting>());
        free_slot = meetings_.back().get();
      }
      m = free_slot;
      m->state = Meeting::State::Open;
      m->tag = tag;
      m->ranks.assign(group.begin(), group.end());
      m->members.resize(group.size());
      for (Meeting::Member& s : m->members) s.ops = nullptr;
      m->arrived = 0;
    }
    Meeting::Member& seat = m->members[me];
    seat.detached = detached;
    seat.clock = entry;
    if (detached) {
      seat.own_ops.assign(ops.begin(), ops.end());
      seat.ops = &seat.own_ops;
    } else {
      seat.ops = &ops;  // untouched until this member is woken
    }
    if (++m->arrived < group.size()) return !detached;
    m->state = Meeting::State::Replaying;
  }
  // Every waiting member is parked on its mailbox and touches neither its
  // op list nor its clock or stats until the wake below, so the replay runs
  // outside the lock.
  replay(*m);
  for (std::size_t i = 0; i < m->members.size(); ++i) {
    if (i == me || m->members[i].detached) continue;
    Message wake;
    wake.src = m->ranks[i];
    wake.tag = tag;
    world_.mailbox(m->ranks[i]).push(std::move(wake));
  }
  replays_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  m->state = Meeting::State::Free;
  return false;
}

void Rendezvous::replay(Meeting& m) {
  using Member = Meeting::Member;
  const topo::MachineSpec& spec = world_.spec();
  const int g = static_cast<int>(m.ranks.size());
  m.ready.clear();
  for (int i = g - 1; i >= 0; --i) {
    Member& s = m.members[static_cast<std::size_t>(i)];
    s.pc = 0;
    s.waiting_on = -1;
    s.head = 0;
    s.inbox.clear();
    s.counts = WireCounts{};
    m.ready.push_back(i);  // popped in group-rank order
  }
  // Run each member until its next receive finds no message; a send that
  // satisfies a waiting receiver makes it runnable again. Each member's
  // clock depends only on its own ops and the arrival stamps it receives,
  // so the visiting order cannot change the result.
  while (!m.ready.empty()) {
    const int i = m.ready.back();
    m.ready.pop_back();
    Member& s = m.members[static_cast<std::size_t>(i)];
    const std::vector<WireOp>& ops = *s.ops;
    const int src_w = m.ranks[static_cast<std::size_t>(i)];
    while (s.pc < ops.size()) {
      const WireOp& op = ops[s.pc];
      if (op.send) {
        const double arrival =
            charge_send(spec, s.clock, src_w,
                        m.ranks[static_cast<std::size_t>(op.peer)], op.bytes,
                        s.counts);
        Member& d = m.members[static_cast<std::size_t>(op.peer)];
        d.inbox.push_back({i, arrival});
        if (d.waiting_on == i) {
          d.waiting_on = -1;
          m.ready.push_back(op.peer);
        }
      } else {
        // Messages of one (src, dst) pair match in send order.
        std::size_t k = s.head;
        while (k < s.inbox.size() && s.inbox[k].src != op.peer) ++k;
        if (k == s.inbox.size()) {
          s.waiting_on = op.peer;
          break;
        }
        s.clock.advance_to(s.inbox[k].arrival);
        s.inbox[k].src = -1;
        while (s.head < s.inbox.size() && s.inbox[s.head].src < 0) ++s.head;
      }
      ++s.pc;
    }
  }
  for (const Member& s : m.members) {
    if (s.pc != s.ops->size() || s.head != s.inbox.size()) {
      throw std::runtime_error(
          "phantom collective: members recorded mismatched schedules");
    }
  }
  for (int i = 0; i < g; ++i) {
    const Member& s = m.members[static_cast<std::size_t>(i)];
    if (s.detached) continue;  // already charged itself at arrival
    const int w = m.ranks[static_cast<std::size_t>(i)];
    world_.clock(w) = s.clock;
    add_counts(world_.stats(w), s.counts);
  }
}

}  // namespace tsr::comm
