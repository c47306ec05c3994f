#include "comm/communicator.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "comm/compress.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "runtime/cluster.hpp"
#include "runtime/config.hpp"
#include "runtime/fiber.hpp"
#include "tensor/kernel_registry.hpp"

namespace tsr::comm {
namespace {

// Deterministic 64->64 mixer (SplitMix64 finalizer) for communicator ids.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint32_t derive_comm_id(std::uint64_t parent_id, std::uint64_t salt,
                             std::uint64_t content) {
  std::uint64_t h = mix64(parent_id ^ mix64(salt + 0x9E3779B97F4A7C15ULL));
  h = mix64(h ^ content);
  std::uint32_t id = static_cast<std::uint32_t>(h ^ (h >> 32));
  return id == 0 ? 1u : id;  // id 0 reserved for "invalid"
}

std::uint64_t hash_ranks(const std::vector<int>& ranks) {
  std::uint64_t h = 0x2545F4914F6CDD1DULL;
  for (int r : ranks) h = mix64(h ^ static_cast<std::uint64_t>(r + 1));
  return h;
}

// Payload size (bytes) above which broadcast/reduce switch from the
// latency-optimal binomial tree to the bandwidth-optimal pipelined form
// (scatter + ring all-gather / ring reduce-scatter + gather), mirroring the
// protocol switch real collective libraries make.
constexpr std::int64_t kPipelinedCollectiveBytes = 64 * 1024;

// Splits `total` into `parts` chunks: remainder goes to the low indices.
std::int64_t chunk_size(std::int64_t total, int parts, int idx) {
  return total / parts + (idx < static_cast<int>(total % parts) ? 1 : 0);
}

std::int64_t chunk_offset(std::int64_t total, int parts, int idx) {
  const std::int64_t base = total / parts;
  const std::int64_t rem = total % parts;
  return base * idx + std::min<std::int64_t>(idx, rem);
}

}  // namespace

void apply_reduce(ReduceOp op, float* dst, const float* src, std::int64_t n) {
  if (op == ReduceOp::Sum) {
    for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
  }
}

namespace {

// Zero-copy twin of apply_reduce(op, dst = local, src = acc): computes
// local[i] op acc[i] with the LOCAL operand first — the exact operand order
// of the in-place form — but stores the result into `acc` (the circulating
// message buffer) so ring collectives reduce without touching caller memory.
// Bitwise identical to the in-place form at every hop.
void apply_reduce_into(ReduceOp op, float* acc, const float* local,
                       std::int64_t n) {
  if (op == ReduceOp::Sum) {
    for (std::int64_t i = 0; i < n; ++i) acc[i] = local[i] + acc[i];
  } else {
    for (std::int64_t i = 0; i < n; ++i) acc[i] = std::max(local[i], acc[i]);
  }
}

// Final reduce-scatter hop: out[i] = local[i] op acc[i], writing the caller's
// output chunk directly (same operand order again).
void apply_reduce_out(ReduceOp op, float* out, const float* local,
                      const float* acc, std::int64_t n) {
  if (op == ReduceOp::Sum) {
    for (std::int64_t i = 0; i < n; ++i) out[i] = local[i] + acc[i];
  } else {
    for (std::int64_t i = 0; i < n; ++i) out[i] = std::max(local[i], acc[i]);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Collective:
      return "collective";
    case SpanKind::Kernel:
      return "kernel";
    case SpanKind::Marker:
      return "marker";
  }
  return "?";
}

World::World(int nranks, topo::MachineSpec spec)
    : nranks_(nranks), spec_(spec), metrics_(nranks) {
  check(nranks >= 1, "World: nranks must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  pools_.resize(static_cast<std::size_t>(nranks));
  clocks_.resize(static_cast<std::size_t>(nranks));
  stats_.resize(static_cast<std::size_t>(nranks));
  traces_.resize(static_cast<std::size_t>(nranks));
  flow_sends_.resize(static_cast<std::size_t>(nranks));
  flow_recvs_.resize(static_cast<std::size_t>(nranks));
  // A bench or tool run with TESSERACT_FAULT_* set is a fault experiment
  // with no code change: config_from_env() put the plan in the RunConfig.
  if (!run_config().fault.empty()) install_fault_plan(run_config().fault);
}

World::~World() = default;

void World::install_fault_plan(const fault::FaultPlan& plan) {
  // Every install resets the mailbox receive timeouts to the new plan's
  // value (<= 0 disables), BEFORE the empty-plan early return: a replaced
  // or cleared plan must not leak the previous plan's timeout into later
  // runs on this World.
  for (auto& mb : mailboxes_) mb->set_recv_timeout_ms(plan.recv_timeout_ms);
  if (plan.empty()) return;  // byte-identity guarantee: nothing installed
  fault::note_installed_plan(plan);  // envelope stamp for exported reports
  injector_ = std::make_unique<fault::Injector>(plan, this);
  for (const fault::SlowRankSpec& s : plan.slow_ranks) {
    for (int r = 0; r < nranks_; ++r) {
      if (s.rank >= 0 && s.rank != r) continue;
      clocks_[static_cast<std::size_t>(r)].set_slowdown(s.scale);
    }
  }
}

void World::poison_failure(
    std::shared_ptr<const std::vector<int>> failed_ranks) {
  for (auto& mb : mailboxes_) mb->poison_failure(failed_ranks);
}

void World::record_span(int rank, const char* name, double t0, double t1,
                        SpanKind kind, std::int64_t bytes, int group) {
  std::vector<TraceEvent>& tl = traces_[static_cast<std::size_t>(rank)];
  TraceEvent e;
  e.name = name;
  e.t0 = t0;
  e.t1 = t1;
  e.bytes = bytes;
  e.kind = kind;
  e.seq = tl.size();
  e.group = group;
  e.live_bytes = obs::live_tensor_bytes();
  tl.push_back(e);
}

void World::reset_traces() {
  for (auto& tl : traces_) tl.clear();
  for (auto& fs : flow_sends_) fs.clear();
  for (auto& fr : flow_recvs_) fr.clear();
  flow_counter_.store(0);
}

namespace {

// One Chrome trace event as a compact JSON object line. All fields that are
// strings go through the JSON escaper; timestamps are microseconds of
// SIMULATED time printed with enough digits to round-trip.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& out) : out_(out) {
    out_ << "{\"traceEvents\":[";
    out_ << std::setprecision(17);
  }

  void begin_event() { out_ << (first_ ? "\n" : ",\n"); first_ = false; }

  void meta(const char* what, int pid, int tid, bool with_tid,
            const std::string& name) {
    begin_event();
    out_ << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid;
    if (with_tid) out_ << ",\"tid\":" << tid;
    std::string escaped;
    obs::append_json_string(escaped, name);
    out_ << ",\"args\":{\"name\":" << escaped << "}}";
  }

  void finish() { out_ << "\n]}"; }

  std::ostream& out() { return out_; }

 private:
  std::ostream& out_;
  bool first_ = true;
};

}  // namespace

bool World::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  ChromeTraceWriter w(out);

  // Process/thread metadata: one trace process per simulated node, one
  // thread per rank, so Perfetto's grouping mirrors the machine layout.
  const int nodes = spec_.node_of(nranks_ - 1) + 1;
  for (int n = 0; n < nodes; ++n) {
    w.meta("process_name", n, 0, false, "node " + std::to_string(n));
  }
  for (int r = 0; r < nranks_; ++r) {
    w.meta("thread_name", spec_.node_of(r), r, true,
           "rank " + std::to_string(r));
  }

  for (int r = 0; r < nranks_; ++r) {
    const int pid = spec_.node_of(r);

    // Complete ("X") span events with telemetry args.
    for (const TraceEvent& e : traces_[static_cast<std::size_t>(r)]) {
      w.begin_event();
      std::string name;
      obs::append_json_string(name, e.name);
      out << "{\"name\":" << name << ",\"cat\":\"" << span_kind_name(e.kind)
          << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << r
          << ",\"ts\":" << e.t0 * 1e6 << ",\"dur\":" << (e.t1 - e.t0) * 1e6
          << ",\"args\":{\"bytes\":" << e.bytes << ",\"seq\":" << e.seq
          << ",\"group\":" << e.group << ",\"live_tensor_bytes\":"
          << e.live_bytes << "}}";
    }

    // Flow starts at each wire send, plus the cumulative byte counter track.
    std::int64_t intra = 0;
    std::int64_t inter = 0;
    for (const FlowSend& f : flow_sends_[static_cast<std::size_t>(r)]) {
      w.begin_event();
      out << "{\"name\":\"wire\",\"cat\":\"wire\",\"ph\":\"s\",\"id\":" << f.id
          << ",\"pid\":" << pid << ",\"tid\":" << r << ",\"ts\":" << f.t * 1e6
          << ",\"args\":{\"bytes\":" << f.bytes << ",\"dst\":" << f.dst
          << "}}";
      (f.inter_node ? inter : intra) += f.bytes;
      w.begin_event();
      out << "{\"name\":\"wire bytes (rank " << r
          << ")\",\"ph\":\"C\",\"pid\":" << pid << ",\"tid\":" << r
          << ",\"ts\":" << f.t * 1e6 << ",\"args\":{\"intra_node\":" << intra
          << ",\"inter_node\":" << inter << "}}";
    }

    // Flow ends at the matching receives.
    for (const FlowRecv& f : flow_recvs_[static_cast<std::size_t>(r)]) {
      w.begin_event();
      out << "{\"name\":\"wire\",\"cat\":\"wire\",\"ph\":\"f\",\"bp\":\"e\","
             "\"id\":" << f.id << ",\"pid\":" << pid << ",\"tid\":" << r
          << ",\"ts\":" << f.t * 1e6 << ",\"args\":{\"src\":" << f.src
          << ",\"blocked\":" << (f.blocked ? "true" : "false") << "}}";
    }

    // Live-tensor gauge sampled at span completion times.
    for (const TraceEvent& e : traces_[static_cast<std::size_t>(r)]) {
      w.begin_event();
      out << "{\"name\":\"live tensor bytes (rank " << r
          << ")\",\"ph\":\"C\",\"pid\":" << pid << ",\"tid\":" << r
          << ",\"ts\":" << e.t1 * 1e6 << ",\"args\":{\"bytes\":"
          << e.live_bytes << "}}";
    }
  }
  w.finish();
  return static_cast<bool>(out);
}

Communicator World::comm(int rank) {
  check(rank >= 0 && rank < nranks_, "World::comm: rank out of range");
  auto group = std::make_shared<std::vector<int>>();
  group->reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) group->push_back(r);
  return Communicator(this, std::move(group), rank, /*comm_id=*/1);
}

double World::max_sim_time() const {
  double t = 0.0;
  for (const rt::SimClock& c : clocks_) t = std::max(t, c.now());
  return t;
}

void World::reset_clocks() {
  for (rt::SimClock& c : clocks_) c.reset();
}

void World::reset_stats() {
  for (CommStats& s : stats_) s.reset();
}

CommStats World::total_stats() const {
  CommStats total;
  for (const CommStats& s : stats_) total.merge(s);
  return total;
}

void World::poison(const std::string& why) {
  for (auto& mb : mailboxes_) mb->poison(why);
}

void World::enable_live(obs::LiveConfig cfg) {
  // The header states exactly which experiment the timeline watched: the
  // installed plan's fingerprint, not the process-global sticky one (which
  // could belong to an earlier World in the same process).
  cfg.fault_plan =
      injector_ != nullptr ? fault::plan_fingerprint(injector_->plan()) : "none";
  live_ = std::make_unique<obs::LiveSampler>(std::move(cfg), nranks_);
}

void World::finish_live() {
  if (live_ != nullptr) live_->finish(metrics_enabled_ ? &metrics_ : nullptr);
}

void World::run(const std::function<void(Communicator&)>& fn) {
  rendezvous_.reset();
  // Distinguish the originating failure from the secondary "poisoned"
  // unwinds of peers blocked in collectives, so the caller sees the cause.
  std::vector<std::exception_ptr> primary(static_cast<std::size_t>(nranks_));
  std::vector<std::exception_ptr> secondary(static_cast<std::size_t>(nranks_));
  const rt::SchedulerStats sched_before =
      metrics_enabled_ ? rt::scheduler_stats() : rt::SchedulerStats{};
  rt::run_spmd(nranks_, [&](int r) {
    Communicator c = comm(r);
    bool killed = false;
    try {
      fn(c);
    } catch (const fault::RankKilled& e) {
      killed = true;
      // Injected kill: record the death and post the structured failure so
      // every survivor's next receive throws PeerFailure with the same
      // dead-rank set (instead of hanging or tripping the watchdog). The
      // victim itself unwinds quietly — the failure surfaces through the
      // survivors, as it would on a real cluster.
      if (injector_ != nullptr) {
        poison_failure(injector_->mark_dead(e.rank()));
      } else {
        primary[static_cast<std::size_t>(r)] = std::current_exception();
        poison("rank " + std::to_string(r) + " failed: " + e.what());
      }
    } catch (const fault::PeerFailure&) {
      // Survivor unwinding from a peer's injected death: secondary, so a
      // genuine primary error (if any) still wins the rethrow.
      secondary[static_cast<std::size_t>(r)] = std::current_exception();
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()).rfind("Mailbox poisoned", 0) == 0) {
        secondary[static_cast<std::size_t>(r)] = std::current_exception();
      } else {
        primary[static_cast<std::size_t>(r)] = std::current_exception();
        poison("rank " + std::to_string(r) + " failed: " + e.what());
      }
    } catch (...) {
      primary[static_cast<std::size_t>(r)] = std::current_exception();
      poison("rank " + std::to_string(r) + " failed");
    }
    if (live_ != nullptr) {
      // Retire the rank from the sampler so pending windows can complete
      // (a killed rank's final sample is flagged dead and carried forward).
      if (killed) {
        live_->mark_rank_dead(r);
      } else {
        live_->rank_done(r, clocks_[static_cast<std::size_t>(r)].now());
      }
    }
  });
  if (metrics_enabled_) {
    // Scheduler deltas attributable to this run (process-global counters, so
    // concurrent Worlds see combined numbers — fine for the single-World
    // benchmarking these feed).
    const rt::SchedulerStats after = rt::scheduler_stats();
    metrics_.gauge_set("runtime.scheduler.workers",
                       static_cast<double>(run_config().workers));
    // metric: kernel.variant
    // Index of the active kernel variant in registry order (0 = scalar), so
    // a metrics dump records which micro-kernel produced this run's math.
    metrics_.gauge_set("kernel.variant",
                       static_cast<double>(active_kernel_variant_index()));
    metrics_.counter_add("runtime.scheduler.resumes",
                         static_cast<std::int64_t>(after.resumes -
                                                   sched_before.resumes));
    metrics_.counter_add(
        "runtime.scheduler.local_wakes",
        static_cast<std::int64_t>(after.local_wakes -
                                  sched_before.local_wakes));
    metrics_.counter_add(
        "runtime.scheduler.cross_wakes",
        static_cast<std::int64_t>(after.cross_wakes -
                                  sched_before.cross_wakes));
    metrics_.counter_add(
        "runtime.scheduler.parks",
        static_cast<std::int64_t>(after.parks - sched_before.parks));
    if (after.deadlocks != sched_before.deadlocks) {
      metrics_.counter_add(
          "runtime.scheduler.deadlocks",
          static_cast<std::int64_t>(after.deadlocks -
                                    sched_before.deadlocks));
    }
  }
  for (const std::exception_ptr& e : primary) {
    if (e) std::rethrow_exception(e);
  }
  for (const std::exception_ptr& e : secondary) {
    if (e) std::rethrow_exception(e);
  }
}

// ---------------------------------------------------------------------------
// Communicator
// ---------------------------------------------------------------------------

Communicator::Communicator(World* world,
                           std::shared_ptr<const std::vector<int>> group,
                           int grank, std::uint32_t comm_id)
    : world_(world), group_(std::move(group)), grank_(grank), comm_id_(comm_id) {}

std::uint64_t Communicator::collective_tag(std::uint64_t seq) const {
  return (static_cast<std::uint64_t>(comm_id_) << 32) |
         ((seq & 0x7FFFFFFFULL) << 1);
}

std::uint64_t Communicator::next_tag() { return collective_tag(seq_++); }

std::uint64_t Communicator::user_tag(std::uint64_t tag) const {
  return (static_cast<std::uint64_t>(comm_id_) << 32) |
         ((tag & 0x7FFFFFFFULL) << 1) | 1ULL;
}

void Communicator::send_msg(int dst_grank, std::uint64_t tag, const float* data,
                            std::int64_t count, std::int64_t wire_bytes) {
  PayloadPtr payload;
  if (data != nullptr) {
    payload = world_->pool(world_rank()).acquire();
    payload->assign(data, data + count);
  }
  send_msg(dst_grank, tag, std::move(payload), wire_bytes);
}

void Communicator::send_msg(int dst_grank, std::uint64_t tag,
                            PayloadPtr payload,
                            std::int64_t wire_bytes) {
  if (record_ != nullptr) {
    record_->push_back(WireOp{wire_bytes, dst_grank, /*send=*/true});
    return;
  }
  const int src_w = world_rank();
  const int dst_w = world_rank_of(dst_grank);
  world_->rendezvous().log_message(src_w);
  fault::Injector* inj = world_->fault_injector();
  if (inj != nullptr) inj->tick(src_w, clock().now());
  Message m;
  m.src = src_w;
  m.tag = tag;
  m.wire_bytes = wire_bytes;
  m.payload = std::move(payload);
  // Timing model: the sender's NIC is occupied for bytes * beta
  // (serialization), so back-to-back sends queue behind each other; the
  // message then lands alpha later. For a single message this reduces to
  // the classic alpha + n*beta.
  const topo::LinkType link = world_->spec().link(src_w, dst_w);
  if (link != topo::LinkType::Self) {
    topo::LinkParams params = world_->spec().params(link);
    if (inj != nullptr && inj->has_link_faults()) {
      inj->adjust_link(src_w, dst_w, &params);
    }
    clock().advance(static_cast<double>(wire_bytes) * params.beta);
    m.arrival_time = clock().now() + params.alpha;
  } else {
    m.arrival_time = clock().now();
  }
  if (inj != nullptr && inj->has_msg_faults()) {
    inj->on_message(src_w, dst_w, &m);
  }
  stats().record_msg(wire_bytes, link == topo::LinkType::InterNode);
  if (world_->tracing()) {
    m.flow_id = world_->next_flow_id();
    world_->record_flow_send(
        src_w, FlowSend{m.flow_id, clock().now(), dst_w, wire_bytes,
                        link == topo::LinkType::InterNode,
                        m.payload == nullptr});
  }
  if (obs::LiveSampler* live = world_->live()) {
    live->on_send(src_w, clock().now(), wire_bytes);
  }
  world_->mailbox(dst_w).push(std::move(m));
}

void Communicator::recycle(PayloadPtr payload) {
  world_->pool(world_rank()).recycle(std::move(payload));
}

Message Communicator::recv_msg(int src_grank, std::uint64_t tag) {
  if (record_ != nullptr) {
    record_->push_back(WireOp{0, src_grank, /*send=*/false});
    return Message{};
  }
  world_->rendezvous().log_message(world_rank());
  fault::Injector* inj = world_->fault_injector();
  if (inj != nullptr) inj->tick(world_rank(), clock().now());
  Message m = world_->mailbox(world_rank()).pop(world_rank_of(src_grank), tag);
  const double before = clock().now();
  clock().advance_to(m.arrival_time);
  if (m.flow_id != 0 && world_->tracing()) {
    world_->record_flow_recv(
        world_rank(), FlowRecv{m.flow_id, clock().now(), m.src, m.arrival_time,
                               m.arrival_time > before, before});
  }
  if (world_->metrics_enabled() && clock().now() > before) {
    // Wait-time accounting at the mailbox pop: the stretch this rank's clock
    // was dragged forward by a message that had not arrived yet.
    obs::Registry& reg = world_->metrics();
    reg.histogram_observe("comm.recv.wait_sim_seconds", clock().now() - before);
    reg.counter_add("comm.recv.blocked");
  }
  if (obs::LiveSampler* live = world_->live()) {
    live->on_recv(world_rank(), before, clock().now());
  }
  return m;
}

template <class Impl>
void Communicator::phantom_collective(CollectiveKind kind, int root,
                                      std::int64_t bytes,
                                      std::int64_t logical_bytes,
                                      Impl&& impl) {
  if (size() == 1 || !world_->per_collective_phantoms()) {
    impl();
    return;
  }
  Rendezvous& rdv = world_->rendezvous();
  if (meetings_ == nullptr) meetings_ = &rdv.meetings(comm_id_, group_);
  Rendezvous::Collective& collective =
      rdv.collective(*meetings_, grank_, kind, root, bytes);
  const std::vector<WireOp>* ops = nullptr;
  if (!Rendezvous::records(collective)) {
    // All the impl does besides its wire operations.
    stats().record_collective(kind, logical_bytes);
    ++seq_;
  } else {
    std::vector<WireOp>& recorded = rdv.recorder(world_rank());
    recorded.clear();
    record_ = &recorded;
    try {
      impl();
    } catch (...) {  // impl's argument checks may throw
      record_ = nullptr;
      throw;
    }
    record_ = nullptr;
    ops = &recorded;
  }
  if (rdv.arrive(*meetings_, collective, grank_, ops)) {
    (void)world_->mailbox(world_rank()).pop(world_rank(), Rendezvous::kWakeTag);
  }
}

void Communicator::charge(double seconds) {
  clock().advance(seconds);
  world_->rendezvous().log_charge(world_rank(), seconds);
}

void Communicator::repeat(int times, const std::function<void()>& body) {
  Rendezvous& rdv = world_->rendezvous();
  const int me = world_rank();
  if (times <= 2 || !world_->per_collective_phantoms() ||
      size() != world_->size() || rdv.logging(me)) {
    for (int i = 0; i < times; ++i) body();
    return;
  }
  CommStats before;
  try {
    rdv.start_log(me);
    body();
    rdv.start_check(me);
    before = stats();
    body();
  } catch (...) {
    rdv.stop_log(me);
    throw;
  }
  if (rdv.run_segment(me, times - 2)) {
    const CommStats iteration = stats().since(before);
    for (int i = 2; i < times; ++i) stats().merge(iteration);
    return;
  }
  for (int i = 2; i < times; ++i) body();
}

// ---- Group construction ----------------------------------------------------

Communicator Communicator::split(int color, int key) {
  const int g = size();
  // All-gather (color, key, world_rank) triples, then build groups locally.
  std::vector<float> local = {static_cast<float>(color), static_cast<float>(key),
                              static_cast<float>(world_rank())};
  std::vector<float> all(static_cast<std::size_t>(3 * g));
  const std::uint64_t salt = seq_;  // symmetric across members pre-all_gather
  all_gather(local, all);

  struct Entry {
    int key;
    int world_rank;
  };
  std::vector<Entry> members;
  for (int r = 0; r < g; ++r) {
    const int c = static_cast<int>(all[static_cast<std::size_t>(3 * r)]);
    if (c != color) continue;
    members.push_back(
        Entry{static_cast<int>(all[static_cast<std::size_t>(3 * r + 1)]),
              static_cast<int>(all[static_cast<std::size_t>(3 * r + 2)])});
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.world_rank < b.world_rank;
  });
  auto new_group = std::make_shared<std::vector<int>>();
  int my_index = -1;
  for (const Entry& e : members) {
    if (e.world_rank == world_rank()) {
      my_index = static_cast<int>(new_group->size());
    }
    new_group->push_back(e.world_rank);
  }
  check(my_index >= 0, "Communicator::split: caller missing from its color");
  const std::uint32_t id =
      derive_comm_id(comm_id_, salt, static_cast<std::uint64_t>(color) + 1);
  return Communicator(world_, std::move(new_group), my_index, id);
}

Communicator Communicator::subgroup(const std::vector<int>& world_ranks) const {
  check(!world_ranks.empty(), "Communicator::subgroup: empty group");
  int my_index = -1;
  for (std::size_t i = 0; i < world_ranks.size(); ++i) {
    if (world_ranks[i] == world_rank()) my_index = static_cast<int>(i);
  }
  check(my_index >= 0, "Communicator::subgroup: caller not in group");
  const std::uint32_t id =
      derive_comm_id(comm_id_, /*salt=*/0xAB, hash_ranks(world_ranks));
  return Communicator(world_,
                      std::make_shared<std::vector<int>>(world_ranks), my_index,
                      id);
}

// ---- Point-to-point ----------------------------------------------------------

void Communicator::send(int dst, std::uint64_t tag, std::span<const float> data) {
  send_msg(dst, user_tag(tag), data.data(), static_cast<std::int64_t>(data.size()),
           static_cast<std::int64_t>(data.size() * sizeof(float)));
}

Payload Communicator::recv(int src, std::uint64_t tag) {
  Message m = recv_msg(src, user_tag(tag));
  check(m.payload != nullptr, "Communicator::recv: phantom message received");
  return std::move(*m.payload);
}

void Communicator::sendrecv(int dst, std::span<const float> send_data, int src,
                            std::span<float> recv_data, std::uint64_t tag) {
  const std::int64_t bytes =
      static_cast<std::int64_t>(send_data.size() * sizeof(float));
  // Span + logical record mirror phantom_sendrecv exactly, keeping the
  // real/phantom statistics parity the replay harness depends on.
  TraceSpan span(this, "sendrecv", bytes);
  stats().record_collective(CollectiveKind::Sendrecv, bytes);
  send(dst, tag, send_data);
  Message m = recv_msg(src, user_tag(tag));
  check(m.payload != nullptr && m.payload->size() == recv_data.size(),
        "sendrecv: size mismatch");
  std::copy(m.payload->begin(), m.payload->end(), recv_data.begin());
  recycle(std::move(m.payload));
}

// ---- Collectives ----------------------------------------------------------

void Communicator::barrier() {
  TraceSpan span(this, "barrier");
  const int g = size();
  if (g == 1) return;
  const std::uint64_t tag = next_tag();
  stats().record_collective(CollectiveKind::Barrier, 0);
  // Dissemination barrier: ceil(log2 g) rounds of zero-byte exchanges.
  for (int dist = 1; dist < g; dist <<= 1) {
    static const float dummy = 0.0f;
    send_msg((grank_ + dist) % g, tag, &dummy, 0, 0);
    Message m = recv_msg((grank_ - dist + g) % g, tag);
    recycle(std::move(m.payload));
  }
}

void Communicator::broadcast_impl(float* data, std::int64_t count,
                                  std::int64_t total_bytes, int root) {
  TraceSpan span(this, "broadcast", total_bytes);
  const int g = size();
  check(root >= 0 && root < g, "broadcast: root out of range");
  const std::uint64_t tag = next_tag();
  stats().record_collective(CollectiveKind::Broadcast, total_bytes);
  if (g == 1) return;

  if (total_bytes >= kPipelinedCollectiveBytes) {
    // Bandwidth-optimal van de Geijn broadcast: the root scatters g chunks,
    // then a ring all-gather circulates them. Large weight panels in the
    // SUMMA/Tesseract loops take this path, as they would under NCCL.
    const bool real = data != nullptr;
    auto ccount = [&](int c) { return real ? chunk_size(count, g, c) : 0; };
    auto coffset = [&](int c) { return real ? chunk_offset(count, g, c) : 0; };
    auto cbytes = [&](int c) {
      return real ? ccount(c) * static_cast<std::int64_t>(sizeof(float))
                  : chunk_size(total_bytes / 4, g, c) * 4 +
                        (c == 0 ? total_bytes % 4 : 0);
    };
    // Phase 1 — scatter: rank c receives chunk c. The received buffer stays
    // live as this rank's first ring payload ("carry").
    PayloadPtr carry;
    if (grank_ == root) {
      for (int c = 0; c < g; ++c) {
        if (c == root) continue;
        send_msg(c, tag, real ? data + coffset(c) : nullptr, ccount(c),
                 cbytes(c));
      }
      if (real) {
        carry = world_->pool(world_rank()).acquire();
        carry->assign(data + coffset(grank_),
                      data + coffset(grank_) + ccount(grank_));
      }
    } else {
      Message m = recv_msg(root, tag);
      carry = std::move(m.payload);
      if (real && carry != nullptr) {
        std::copy(carry->begin(), carry->end(), data + coffset(grank_));
      }
    }
    // Phase 2 — ring all-gather of the chunks, zero-copy: the chunk received
    // at step s is exactly the chunk sent at step s+1, so each message buffer
    // is copied once into `data` and then forwarded as-is.
    const int right = (grank_ + 1) % g;
    const int left = (grank_ - 1 + g) % g;
    for (int s = 0; s < g - 1; ++s) {
      const int recv_c = (grank_ - s - 1 + 2 * g) % g;
      send_msg(right, tag, std::move(carry), cbytes((grank_ - s + 2 * g) % g));
      Message m = recv_msg(left, tag);
      carry = std::move(m.payload);
      if (real && carry != nullptr) {
        std::copy(carry->begin(), carry->end(), data + coffset(recv_c));
      }
    }
    recycle(std::move(carry));
    return;
  }

  const int vr = (grank_ - root + g) % g;  // relative rank; root -> 0
  auto abs_rank = [&](int relative) { return (relative + root) % g; };

  // Every payload has exactly one holder at a time, so whoever holds it last
  // may recycle it with no other rank still reading (BufferPool::recycle).
  // The root fills one buffer; a rank forwards a fresh copy to each child
  // but the last, which receives the buffer itself. With one child per rank
  // (two-member groups, the deepest edge of every tree) nothing is copied.
  PayloadPtr buf;
  if (data != nullptr && vr == 0) {
    buf = world_->pool(world_rank()).acquire();
    buf->assign(data, data + count);
  }
  // Receive phase: wait for the parent in the binomial tree.
  int mask = 1;
  while (mask < g) {
    if (vr & mask) {
      Message m = recv_msg(abs_rank(vr - mask), tag);
      buf = std::move(m.payload);
      if (data != nullptr && buf != nullptr) {
        check(static_cast<std::int64_t>(buf->size()) == count,
              "broadcast: payload size mismatch");
        std::copy(buf->begin(), buf->end(), data);
      }
      break;
    }
    mask <<= 1;
  }
  // Send phase: forward to children at decreasing bit positions; the
  // mask-1 child, when present, is the last one.
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < g) {
      PayloadPtr out;
      if (mask == 1 || buf == nullptr) {
        out = std::move(buf);
      } else {
        out = world_->pool(world_rank()).acquire();
        out->assign(buf->begin(), buf->end());
      }
      send_msg(abs_rank(vr + mask), tag, std::move(out), total_bytes);
    }
    mask >>= 1;
  }
  recycle(std::move(buf));
}

void Communicator::broadcast(std::span<float> data, int root) {
  broadcast_impl(data.data(), static_cast<std::int64_t>(data.size()),
                 static_cast<std::int64_t>(data.size() * sizeof(float)), root);
}

void Communicator::phantom_broadcast(int root, std::int64_t bytes) {
  phantom_collective(CollectiveKind::Broadcast, root, bytes, bytes,
                     [&] { broadcast_impl(nullptr, 0, bytes, root); });
}

void Communicator::reduce_impl(float* data, std::int64_t count,
                               std::int64_t total_bytes, int root, ReduceOp op) {
  TraceSpan span(this, "reduce", total_bytes);
  const int g = size();
  check(root >= 0 && root < g, "reduce: root out of range");
  const std::uint64_t tag = next_tag();
  stats().record_collective(CollectiveKind::Reduce, total_bytes);
  if (g == 1) return;

  if (total_bytes >= kPipelinedCollectiveBytes) {
    // Bandwidth-optimal reduce: ring reduce-scatter (rank r ends owning the
    // fully reduced chunk r), then every rank ships its chunk to the root.
    const bool real = data != nullptr;
    auto ccount = [&](int c) { return real ? chunk_size(count, g, c) : 0; };
    auto coffset = [&](int c) { return real ? chunk_offset(count, g, c) : 0; };
    auto cbytes = [&](int c) {
      return real ? ccount(c) * static_cast<std::int64_t>(sizeof(float))
                  : chunk_size(total_bytes / 4, g, c) * 4 +
                        (c == 0 ? total_bytes % 4 : 0);
    };
    // Ring reduce-scatter, zero-copy: partial sums accumulate in the
    // circulating message buffers (operand order per hop matches the
    // in-place form bit-for-bit), so non-root `data` is never written.
    const int right = (grank_ + 1) % g;
    const int left = (grank_ - 1 + g) % g;
    PayloadPtr carry;
    if (real) {
      const int first_c = (grank_ - 1 + g) % g;
      carry = world_->pool(world_rank()).acquire();
      carry->assign(data + coffset(first_c),
                    data + coffset(first_c) + ccount(first_c));
    }
    for (int s = 0; s < g - 1; ++s) {
      const int send_c = (grank_ - s - 1 + 2 * g) % g;
      const int recv_c = (grank_ - s - 2 + 2 * g) % g;
      send_msg(right, tag, std::move(carry), cbytes(send_c));
      Message m = recv_msg(left, tag);
      carry = std::move(m.payload);
      if (real && carry != nullptr) {
        apply_reduce_into(op, carry->data(), data + coffset(recv_c),
                          ccount(recv_c));
      }
    }
    // Each rank now owns the fully reduced chunk grank_ in `carry`; ship the
    // buffers to the root as-is.
    if (grank_ == root) {
      if (real && carry != nullptr) {
        std::copy(carry->begin(), carry->end(), data + coffset(root));
      }
      recycle(std::move(carry));
      for (int c = 0; c < g; ++c) {
        if (c == root) continue;
        Message m = recv_msg(c, tag);
        if (real && m.payload != nullptr) {
          std::copy(m.payload->begin(), m.payload->end(), data + coffset(c));
        }
        recycle(std::move(m.payload));
      }
    } else {
      send_msg(root, tag, std::move(carry), cbytes(grank_));
    }
    return;
  }

  const int vr = (grank_ - root + g) % g;
  auto abs_rank = [&](int relative) { return (relative + root) % g; };

  // Reverse binomial tree: combine children, then forward to the parent.
  int mask = 1;
  while (mask < g) {
    if ((vr & mask) == 0) {
      const int src_vr = vr | mask;
      if (src_vr < g) {
        Message m = recv_msg(abs_rank(src_vr), tag);
        if (data != nullptr && m.payload != nullptr) {
          check(static_cast<std::int64_t>(m.payload->size()) == count,
                "reduce: payload size mismatch");
          apply_reduce(op, data, m.payload->data(), count);
        }
        recycle(std::move(m.payload));
      }
    } else {
      send_msg(abs_rank(vr & ~mask), tag, data, data != nullptr ? count : 0,
               total_bytes);
      break;
    }
    mask <<= 1;
  }
}

void Communicator::reduce(std::span<float> data, int root, ReduceOp op) {
  reduce_impl(data.data(), static_cast<std::int64_t>(data.size()),
              static_cast<std::int64_t>(data.size() * sizeof(float)), root, op);
}

void Communicator::phantom_reduce(int root, std::int64_t bytes) {
  phantom_collective(CollectiveKind::Reduce, root, bytes, bytes, [&] {
    reduce_impl(nullptr, 0, bytes, root, ReduceOp::Sum);
  });
}

void Communicator::all_reduce_impl(float* data, std::int64_t count,
                                   std::int64_t total_bytes, ReduceOp op) {
  TraceSpan span(this, "all_reduce", total_bytes);
  const int g = size();
  stats().record_collective(CollectiveKind::AllReduce, total_bytes);
  if (g == 1) return;
  const std::uint64_t tag = next_tag();
  const int right = (grank_ + 1) % g;
  const int left = (grank_ - 1 + g) % g;
  const bool real = data != nullptr;

  auto ccount = [&](int c) { return real ? chunk_size(count, g, c) : 0; };
  auto coffset = [&](int c) { return real ? chunk_offset(count, g, c) : 0; };
  // Phantom chunk sizes are computed in float elements so a replay with
  // bytes == 4 * count reproduces the real byte distribution exactly, even
  // when count does not divide the group size.
  auto cbytes = [&](int c) {
    return real ? ccount(c) * static_cast<std::int64_t>(sizeof(float))
                : chunk_size(total_bytes / 4, g, c) * 4 +
                      (c == 0 ? total_bytes % 4 : 0);
  };

  // Zero-copy ring: in both phases the chunk received at step s is exactly
  // the chunk sent at step s+1, so one "carry" buffer per rank circulates —
  // partial sums are computed into the incoming buffer (per-hop operand
  // order identical to the in-place form, hence bit-identical results) and
  // the buffer itself is forwarded instead of being copied into a new
  // message.
  //
  // Phase 1 — ring reduce-scatter: after step s, the chunk received is
  // (rank - s - 1) mod g; rank r ends owning the fully-reduced chunk (r+1)%g.
  PayloadPtr carry;
  if (real) {
    carry = world_->pool(world_rank()).acquire();
    carry->assign(data + coffset(grank_),
                  data + coffset(grank_) + ccount(grank_));
  }
  for (int s = 0; s < g - 1; ++s) {
    const int send_c = (grank_ - s + 2 * g) % g;
    const int recv_c = (grank_ - s - 1 + 2 * g) % g;
    send_msg(right, tag, std::move(carry), cbytes(send_c));
    Message m = recv_msg(left, tag);
    carry = std::move(m.payload);
    if (real && carry != nullptr) {
      apply_reduce_into(op, carry->data(), data + coffset(recv_c),
                        ccount(recv_c));
    }
  }
  // The owned chunk exists only in `carry`; land it in `data` before phase 2.
  if (real && carry != nullptr) {
    std::copy(carry->begin(), carry->end(), data + coffset((grank_ + 1) % g));
  }
  // Phase 2 — ring all-gather of the owned chunks.
  for (int s = 0; s < g - 1; ++s) {
    const int send_c = (grank_ + 1 - s + 2 * g) % g;
    const int recv_c = (grank_ - s + 2 * g) % g;
    send_msg(right, tag, std::move(carry), cbytes(send_c));
    Message m = recv_msg(left, tag);
    carry = std::move(m.payload);
    if (real && carry != nullptr) {
      check(static_cast<std::int64_t>(carry->size()) == ccount(recv_c),
            "all_reduce: chunk size mismatch");
      std::copy(carry->begin(), carry->end(), data + coffset(recv_c));
    }
  }
  recycle(std::move(carry));
}

void Communicator::all_reduce(std::span<float> data, ReduceOp op) {
  all_reduce_impl(data.data(), static_cast<std::int64_t>(data.size()),
                  static_cast<std::int64_t>(data.size() * sizeof(float)), op);
}

void Communicator::phantom_all_reduce(std::int64_t bytes) {
  phantom_collective(CollectiveKind::AllReduce, 0, bytes, bytes, [&] {
    all_reduce_impl(nullptr, 0, bytes, ReduceOp::Sum);
  });
}

void Communicator::all_reduce_compressed(std::span<float> data, ReduceOp op) {
  float* d = data.data();
  const std::int64_t count = static_cast<std::int64_t>(data.size());
  // bf16 wire format: exactly 2 bytes per element, half of fp32.
  const std::int64_t wire_total = 2 * count;
  TraceSpan span(this, "all_reduce_compressed", wire_total);
  const int g = size();
  stats().record_collective(CollectiveKind::AllReduceCompressed, wire_total);
  if (g == 1) return;
  const std::uint64_t tag = next_tag();
  const int right = (grank_ + 1) % g;
  const int left = (grank_ - 1 + g) % g;

  auto ccount = [&](int c) { return chunk_size(count, g, c); };
  auto coffset = [&](int c) { return chunk_offset(count, g, c); };
  auto cbytes = [&](int c) { return 2 * ccount(c); };

  // Same zero-copy ring schedule as all_reduce_impl, but the circulating
  // carry holds bf16 codes (two per float slot). Each reduce hop decodes
  // into `scratch`, accumulates in fp32 with the LOCAL operand first (the
  // operand order of apply_reduce), and re-encodes. The fully-reduced chunk
  // is encoded exactly once after its last hop; phase 2 forwards those same
  // encoded bits to every rank, so all ranks decode identical values no
  // matter the backend or worker count.
  PayloadPtr carry = world_->pool(world_rank()).acquire();
  carry->resize(static_cast<std::size_t>(bf16_packed_count(ccount(grank_))));
  bf16_compress(d + coffset(grank_), ccount(grank_), carry->data());
  PayloadPtr scratch = world_->pool(world_rank()).acquire();

  // Phase 1 — ring reduce-scatter over encoded chunks.
  for (int s = 0; s < g - 1; ++s) {
    const int send_c = (grank_ - s + 2 * g) % g;
    const int recv_c = (grank_ - s - 1 + 2 * g) % g;
    send_msg(right, tag, std::move(carry), cbytes(send_c));
    Message m = recv_msg(left, tag);
    carry = std::move(m.payload);
    const std::int64_t n = ccount(recv_c);
    scratch->resize(static_cast<std::size_t>(n));
    bf16_decompress(carry->data(), n, scratch->data());
    apply_reduce_into(op, scratch->data(), d + coffset(recv_c), n);
    carry->resize(static_cast<std::size_t>(bf16_packed_count(n)));
    bf16_compress(scratch->data(), n, carry->data());
  }
  // The owned chunk exists only as codes in `carry`; land its decoded form
  // before circulating the codes themselves.
  const int own = (grank_ + 1) % g;
  bf16_decompress(carry->data(), ccount(own), d + coffset(own));

  // Phase 2 — ring all-gather of the encoded owned chunks.
  for (int s = 0; s < g - 1; ++s) {
    const int send_c = (grank_ + 1 - s + 2 * g) % g;
    const int recv_c = (grank_ - s + 2 * g) % g;
    send_msg(right, tag, std::move(carry), cbytes(send_c));
    Message m = recv_msg(left, tag);
    carry = std::move(m.payload);
    bf16_decompress(carry->data(), ccount(recv_c), d + coffset(recv_c));
  }
  recycle(std::move(carry));
  recycle(std::move(scratch));
}

void Communicator::all_gather_impl(const float* local, float* out,
                                   std::int64_t chunk_count,
                                   std::int64_t chunk_bytes) {
  TraceSpan span(this, "all_gather", chunk_bytes * size());
  const int g = size();
  stats().record_collective(CollectiveKind::AllGather, chunk_bytes * g);
  const bool real = out != nullptr;
  if (real) {
    std::memcpy(out + grank_ * chunk_count, local,
                static_cast<std::size_t>(chunk_count) * sizeof(float));
  }
  if (g == 1) return;
  const std::uint64_t tag = next_tag();
  const int right = (grank_ + 1) % g;
  const int left = (grank_ - 1 + g) % g;
  // Zero-copy ring: each received chunk is copied once into `out` and the
  // buffer itself is forwarded at the next step (it is the next send chunk).
  PayloadPtr carry;
  if (real) {
    carry = world_->pool(world_rank()).acquire();
    carry->assign(local, local + chunk_count);
  }
  for (int s = 0; s < g - 1; ++s) {
    const int recv_c = (grank_ - s - 1 + 2 * g) % g;
    send_msg(right, tag, std::move(carry), chunk_bytes);
    Message m = recv_msg(left, tag);
    carry = std::move(m.payload);
    if (real && carry != nullptr) {
      std::copy(carry->begin(), carry->end(), out + recv_c * chunk_count);
    }
  }
  recycle(std::move(carry));
}

void Communicator::all_gather(std::span<const float> local,
                              std::span<float> out) {
  check(out.size() == local.size() * static_cast<std::size_t>(size()),
        "all_gather: output must be size() * local chunk");
  all_gather_impl(local.data(), out.data(),
                  static_cast<std::int64_t>(local.size()),
                  static_cast<std::int64_t>(local.size() * sizeof(float)));
}

void Communicator::phantom_all_gather(std::int64_t bytes_per_rank) {
  phantom_collective(
      CollectiveKind::AllGather, 0, bytes_per_rank, bytes_per_rank * size(),
      [&] { all_gather_impl(nullptr, nullptr, 0, bytes_per_rank); });
}

void Communicator::reduce_scatter_impl(const float* data, float* out,
                                       std::int64_t count,
                                       std::int64_t total_bytes, ReduceOp op) {
  TraceSpan span(this, "reduce_scatter", total_bytes);
  const int g = size();
  stats().record_collective(CollectiveKind::ReduceScatter, total_bytes);
  const bool real = data != nullptr;
  if (g == 1) {
    if (real) {
      std::memcpy(out, data, static_cast<std::size_t>(count) * sizeof(float));
    }
    return;
  }
  const std::uint64_t tag = next_tag();
  const int right = (grank_ + 1) % g;
  const int left = (grank_ - 1 + g) % g;
  auto ccount = [&](int c) { return real ? chunk_size(count, g, c) : 0; };
  auto coffset = [&](int c) { return real ? chunk_offset(count, g, c) : 0; };
  // Same phantom chunk-size convention as all_reduce_impl: sizes derive from
  // the float-element split, remainder bytes ride on chunk 0, so a phantom
  // replay charges exactly total_bytes — including the remainder the old
  // total_bytes/size() formula dropped.
  auto cbytes = [&](int c) {
    return real ? ccount(c) * static_cast<std::int64_t>(sizeof(float))
                : chunk_size(total_bytes / 4, g, c) * 4 +
                      (c == 0 ? total_bytes % 4 : 0);
  };
  // Zero-copy ring shifted so rank r ends owning chunk r: partial sums
  // accumulate in the circulating buffers (per-hop operand order matches the
  // old in-place form bit-for-bit) and the final hop writes `out` directly,
  // so the caller's `data` is never modified.
  PayloadPtr carry;
  if (real) {
    const int first_c = (grank_ - 1 + g) % g;
    carry = world_->pool(world_rank()).acquire();
    carry->assign(data + coffset(first_c),
                  data + coffset(first_c) + ccount(first_c));
  }
  for (int s = 0; s < g - 1; ++s) {
    const int send_c = (grank_ - s - 1 + 2 * g) % g;
    const int recv_c = (grank_ - s - 2 + 2 * g) % g;
    send_msg(right, tag, std::move(carry), cbytes(send_c));
    Message m = recv_msg(left, tag);
    carry = std::move(m.payload);
    if (real && carry != nullptr) {
      if (s == g - 2) {
        // Last hop: recv_c == grank_; reduce straight into the output chunk.
        apply_reduce_out(op, out, data + coffset(recv_c), carry->data(),
                         ccount(recv_c));
      } else {
        apply_reduce_into(op, carry->data(), data + coffset(recv_c),
                          ccount(recv_c));
      }
    }
  }
  recycle(std::move(carry));
}

void Communicator::reduce_scatter(std::span<const float> data,
                                  std::span<float> out, ReduceOp op) {
  check(static_cast<std::int64_t>(out.size()) ==
            chunk_size(static_cast<std::int64_t>(data.size()), size(), grank_),
        "reduce_scatter: output must be this rank's chunk of the input");
  reduce_scatter_impl(data.data(), out.data(),
                      static_cast<std::int64_t>(data.size()),
                      static_cast<std::int64_t>(data.size() * sizeof(float)),
                      op);
}

void Communicator::phantom_reduce_scatter(std::int64_t total_bytes) {
  phantom_collective(CollectiveKind::ReduceScatter, 0, total_bytes,
                     total_bytes, [&] {
    reduce_scatter_impl(nullptr, nullptr, 0, total_bytes, ReduceOp::Sum);
  });
}

void Communicator::gather(std::span<const float> local, std::span<float> out,
                          int root) {
  TraceSpan span(this, "gather",
                 static_cast<std::int64_t>(local.size() * sizeof(float)) * size());
  const int g = size();
  check(root >= 0 && root < g, "gather: root out of range");
  const std::uint64_t tag = next_tag();
  stats().record_collective(CollectiveKind::Gather,
                            static_cast<std::int64_t>(local.size() * sizeof(float)) * g);
  if (grank_ == root) {
    check(out.size() == local.size() * static_cast<std::size_t>(g),
          "gather: output must be size() * local chunk");
    std::copy(local.begin(), local.end(),
              out.begin() + static_cast<std::ptrdiff_t>(root * local.size()));
    for (int r = 0; r < g; ++r) {
      if (r == root) continue;
      Message m = recv_msg(r, tag);
      check(m.payload != nullptr && m.payload->size() == local.size(),
            "gather: contribution size mismatch");
      std::copy(m.payload->begin(), m.payload->end(),
                out.begin() + static_cast<std::ptrdiff_t>(r) *
                                  static_cast<std::ptrdiff_t>(local.size()));
      recycle(std::move(m.payload));
    }
  } else {
    send_msg(root, tag, local.data(), static_cast<std::int64_t>(local.size()),
             static_cast<std::int64_t>(local.size() * sizeof(float)));
  }
}

void Communicator::scatter(std::span<const float> in, std::span<float> local,
                           int root) {
  TraceSpan span(this, "scatter",
                 static_cast<std::int64_t>(local.size() * sizeof(float)) * size());
  const int g = size();
  check(root >= 0 && root < g, "scatter: root out of range");
  const std::uint64_t tag = next_tag();
  stats().record_collective(CollectiveKind::Scatter,
                            static_cast<std::int64_t>(local.size() * sizeof(float)) * g);
  if (grank_ == root) {
    check(in.size() == local.size() * static_cast<std::size_t>(g),
          "scatter: input must be size() * local chunk");
    for (int r = 0; r < g; ++r) {
      if (r == root) continue;
      send_msg(r, tag, in.data() + static_cast<std::ptrdiff_t>(r) *
                                       static_cast<std::ptrdiff_t>(local.size()),
               static_cast<std::int64_t>(local.size()),
               static_cast<std::int64_t>(local.size() * sizeof(float)));
    }
    std::copy(in.begin() + static_cast<std::ptrdiff_t>(root * local.size()),
              in.begin() + static_cast<std::ptrdiff_t>((root + 1) * local.size()),
              local.begin());
  } else {
    Message m = recv_msg(root, tag);
    check(m.payload != nullptr && m.payload->size() == local.size(),
          "scatter: chunk size mismatch");
    std::copy(m.payload->begin(), m.payload->end(), local.begin());
    recycle(std::move(m.payload));
  }
}

void Communicator::all_to_all(std::span<const float> in, std::span<float> out) {
  TraceSpan span(this, "all_to_all",
                 static_cast<std::int64_t>(in.size() * sizeof(float)));
  const int g = size();
  check(in.size() == out.size() && in.size() % static_cast<std::size_t>(g) == 0,
        "all_to_all: sizes must match and divide the group size");
  const std::size_t chunk = in.size() / static_cast<std::size_t>(g);
  stats().record_collective(CollectiveKind::AllToAll,
                            static_cast<std::int64_t>(in.size() * sizeof(float)));
  const std::uint64_t tag = next_tag();
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(grank_ * chunk),
            in.begin() + static_cast<std::ptrdiff_t>((grank_ + 1) * chunk),
            out.begin() + static_cast<std::ptrdiff_t>(grank_ * chunk));
  // Pairwise exchange: at step s, send to rank+s and receive from rank-s.
  for (int s = 1; s < g; ++s) {
    const int dst = (grank_ + s) % g;
    const int src = (grank_ - s + g) % g;
    send_msg(dst, tag, in.data() + static_cast<std::ptrdiff_t>(dst) *
                                       static_cast<std::ptrdiff_t>(chunk),
             static_cast<std::int64_t>(chunk),
             static_cast<std::int64_t>(chunk * sizeof(float)));
    Message m = recv_msg(src, tag);
    check(m.payload != nullptr && m.payload->size() == chunk,
          "all_to_all: chunk size mismatch");
    std::copy(m.payload->begin(), m.payload->end(),
              out.begin() + static_cast<std::ptrdiff_t>(src) *
                                static_cast<std::ptrdiff_t>(chunk));
    recycle(std::move(m.payload));
  }
}

void Communicator::phantom_sendrecv(int dst, int src, std::int64_t bytes) {
  TraceSpan span(this, "sendrecv", bytes);
  const std::uint64_t tag = next_tag();
  stats().record_collective(CollectiveKind::Sendrecv, bytes);
  send_msg(dst, tag, nullptr, 0, bytes);
  (void)recv_msg(src, tag);
}

}  // namespace tsr::comm
