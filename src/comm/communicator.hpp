// NCCL/MPI-style communicator over the virtual cluster.
//
// A World owns the per-rank mailboxes, simulated clocks and statistics for a
// cluster of N ranks; a Communicator is a rank's handle onto an ordered
// group of world ranks. Collectives are implemented with the classic
// algorithms (binomial trees for broadcast/reduce, rings for all-reduce /
// all-gather / reduce-scatter, dissemination barrier), so both the byte
// counters and the emergent simulated time have the same structure as a real
// NCCL schedule on the paper's testbed.
//
// Every collective also has a *phantom* twin that charges a declared byte
// count without moving data: the same wire schedule and counters — same
// trees, same rings, same per-link alpha-beta costs — simulated per
// collective (comm/rendezvous.hpp) unless the run is traced, metered, live
// or faulted, in which case the empty messages cross the mailboxes. The
// benchmark harness uses phantoms to replay paper-scale (h = 3072...8192)
// schedules exactly without allocating paper-scale tensors.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <atomic>

#include "comm/buffer_pool.hpp"
#include "comm/mailbox.hpp"
#include "comm/rendezvous.hpp"
#include "comm/stats.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "runtime/sim_clock.hpp"
#include "tensor/tensor.hpp"
#include "topology/machine_spec.hpp"

namespace tsr::fault {
class Injector;
struct FaultPlan;
}  // namespace tsr::fault

namespace tsr::comm {

enum class ReduceOp { Sum, Max };

class Communicator;

/// What a trace span measured: a collective's wall span on its rank, a
/// charged compute kernel, or a user-defined marker.
enum class SpanKind { Collective, Kernel, Marker };

const char* span_kind_name(SpanKind kind);

/// One span on a rank's simulated timeline (a collective, a GEMM, ...).
struct TraceEvent {
  const char* name;           // static strings only (collective/kernel names)
  double t0 = 0.0;            // simulated seconds
  double t1 = 0.0;
  std::int64_t bytes = 0;     // logical payload bytes of the op (0 if none)
  SpanKind kind = SpanKind::Collective;
  std::uint64_t seq = 0;      // per-rank emission index (dense, from 0)
  int group = 0;              // communicator size for collectives, else 0
  std::int64_t live_bytes = 0;  // process-wide live tensor bytes at record
};

/// Wire edge endpoints: one FlowSend on the sender's timeline pairs with the
/// FlowRecv of equal id on the receiver's. Recorded only while tracing.
struct FlowSend {
  std::uint64_t id = 0;
  double t = 0.0;  ///< send completion (clock after NIC serialization)
  int dst = 0;     ///< destination world rank
  std::int64_t bytes = 0;
  bool inter_node = false;
  bool phantom = false;  ///< payload-free message (declared bytes only)
};

struct FlowRecv {
  std::uint64_t id = 0;
  double t = 0.0;        ///< receiver's clock after the matching pop
  int src = 0;           ///< source world rank
  double arrival = 0.0;  ///< modeled arrival time of the message
  bool blocked = false;  ///< true when the arrival advanced the receiver
  /// Receiver's clock when the pop started: [wait_from, t] is the stretch
  /// this rank sat blocked on the wire (empty unless `blocked`). Recorded
  /// verbatim so run-report attribution tiles the timeline exactly.
  double wait_from = 0.0;
};

/// Shared state of one virtual cluster: mailboxes, clocks, stats, machine.
class World {
 public:
  explicit World(int nranks,
                 topo::MachineSpec spec = topo::MachineSpec::zero_cost());
  ~World();  // out of line: unique_ptr<fault::Injector> needs the full type

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return nranks_; }
  const topo::MachineSpec& spec() const { return spec_; }

  Mailbox& mailbox(int rank) { return *mailboxes_[static_cast<std::size_t>(rank)]; }
  /// Rank-private payload buffer pool; only rank's own thread may touch it.
  BufferPool& pool(int rank) { return pools_[static_cast<std::size_t>(rank)]; }
  rt::SimClock& clock(int rank) { return clocks_[static_cast<std::size_t>(rank)]; }
  const rt::SimClock& clock(int rank) const {
    return clocks_[static_cast<std::size_t>(rank)];
  }
  CommStats& stats(int rank) { return stats_[static_cast<std::size_t>(rank)]; }

  /// World communicator (all ranks) for the given rank.
  Communicator comm(int rank);

  /// Largest simulated clock across ranks: the makespan of the run so far.
  double max_sim_time() const;
  void reset_clocks();
  void reset_stats();
  /// Sum of all ranks' statistics.
  CommStats total_stats() const;

  /// Wakes every blocked receiver with an error (peer-failure handling).
  void poison(const std::string& why);

  // ---- Fault injection ------------------------------------------------------
  // The World constructor installs RunConfig::fault, which a bench or tool
  // main fills from TESSERACT_FAULT_* (config_from_env), so such a run is a
  // fault experiment with no code change. install_fault_plan() is the
  // programmatic path (perf::EvalConfig::fault and tests use it).

  /// Installs a fault plan: sets every mailbox's receive timeout to the
  /// plan's. A non-empty plan also replaces the injector and the straggler
  /// clock slowdowns: the ranks it lists get its scale, every other rank
  /// 1.0. A plan whose empty() is true installs nothing else, leaving every
  /// other code path byte-identical to a faultless World.
  void install_fault_plan(const fault::FaultPlan& plan);

  /// Active injector, or nullptr when no (non-empty) plan is installed.
  fault::Injector* fault_injector() { return injector_.get(); }
  const fault::Injector* fault_injector() const { return injector_.get(); }

  /// Posts a structured peer failure to every mailbox so all survivors'
  /// receives throw fault::PeerFailure with the same dead-rank set.
  void poison_failure(std::shared_ptr<const std::vector<int>> failed_ranks);

  // ---- Simulated-timeline tracing -----------------------------------------
  // When enabled, every collective and charged kernel records a span on its
  // rank's simulated clock; write_chrome_trace() dumps the whole cluster
  // timeline in the chrome://tracing / Perfetto JSON format — pipeline
  // bubbles, SUMMA broadcast waves and all-reduce rings become visible.

  void enable_tracing() { tracing_ = true; }
  bool tracing() const { return tracing_; }
  /// Appends a span to `rank`'s timeline (called by the rank's own thread).
  /// Stamps the per-rank sequence id and samples the live-tensor gauge.
  void record_span(int rank, const char* name, double t0, double t1,
                   SpanKind kind = SpanKind::Collective, std::int64_t bytes = 0,
                   int group = 0);
  const std::vector<TraceEvent>& trace(int rank) const {
    return traces_[static_cast<std::size_t>(rank)];
  }
  /// Clears all recorded spans and wire flow events (not the enable flags).
  /// perf::measure calls this so back-to-back measurements on one World do
  /// not splice stale spans from before the clock reset into the timeline.
  void reset_traces();

  // Wire-edge records for the trace exporter and critical-path analyzer.
  std::uint64_t next_flow_id() { return 1 + flow_counter_.fetch_add(1); }
  void record_flow_send(int rank, FlowSend f) {
    flow_sends_[static_cast<std::size_t>(rank)].push_back(f);
  }
  void record_flow_recv(int rank, FlowRecv f) {
    flow_recvs_[static_cast<std::size_t>(rank)].push_back(f);
  }
  const std::vector<FlowSend>& flow_sends(int rank) const {
    return flow_sends_[static_cast<std::size_t>(rank)];
  }
  const std::vector<FlowRecv>& flow_recvs(int rank) const {
    return flow_recvs_[static_cast<std::size_t>(rank)];
  }

  /// Writes the Chrome trace-event JSON; returns false on I/O failure.
  /// One trace process per simulated node, one thread per rank; spans carry
  /// bytes/kind/seq args, wire sends and receives are linked by flow events,
  /// and per-rank counter tracks report cumulative intra-/inter-node wire
  /// bytes plus the live-tensor-bytes gauge.
  bool write_chrome_trace(const std::string& path) const;

  // ---- Metrics ------------------------------------------------------------
  // Shared metrics registry for the cluster. Recording sites check
  // metrics_enabled() first, so a disabled World pays one branch and the
  // simulated results are bit-identical with telemetry on or off.

  void enable_metrics() { metrics_enabled_ = true; }
  bool metrics_enabled() const { return metrics_enabled_; }
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

  // ---- Live telemetry -------------------------------------------------------
  // An attached LiveSampler watches the run online: collectives, charged
  // kernels, sends and receives report to it from the rank threads, and the
  // sampler streams completed windows to a TIMELINE file (see obs/live.hpp).
  // Like tracing and metrics, hooks cost one branch when disabled and never
  // change the simulated results.

  /// Attaches a live sampler. cfg.fault_plan is overwritten with the
  /// fingerprint of the installed fault plan ("none" without one), so the
  /// TIMELINE header always states the experiment it watched. Call before
  /// run(); replaces any previous sampler.
  void enable_live(obs::LiveConfig cfg);
  obs::LiveSampler* live() { return live_.get(); }
  const obs::LiveSampler* live() const { return live_.get(); }
  /// Completes pending windows, writes the TIMELINE summary line and closes
  /// the stream; records the runtime.live.* / obs.expect.* counters into the
  /// metrics registry when metrics are enabled. Idempotent; the sampler
  /// stays readable (ring, drift events) afterwards.
  void finish_live();

  // ---- Phantom collectives ------------------------------------------------

  /// True when phantom collectives may be simulated per collective: nothing
  /// observes individual messages (no tracing, metrics, live sampler or
  /// fault injector). Otherwise they take the message path.
  bool per_collective_phantoms() const {
    return !tracing_ && !metrics_enabled_ && live_ == nullptr &&
           injector_ == nullptr;
  }
  Rendezvous& rendezvous() { return rendezvous_; }

  /// Runs fn on every rank via the SPMD cluster; if a rank throws, the world
  /// is poisoned so peers blocked in collectives unwind, and the original
  /// exception is rethrown.
  void run(const std::function<void(Communicator&)>& fn);

 private:
  int nranks_;
  topo::MachineSpec spec_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<BufferPool> pools_;
  std::vector<rt::SimClock> clocks_;
  std::vector<CommStats> stats_;
  bool tracing_ = false;
  bool metrics_enabled_ = false;
  std::vector<std::vector<TraceEvent>> traces_;  // per rank, owner-written
  std::vector<std::vector<FlowSend>> flow_sends_;  // per rank, owner-written
  std::vector<std::vector<FlowRecv>> flow_recvs_;  // per rank, owner-written
  std::atomic<std::uint64_t> flow_counter_{0};
  obs::Registry metrics_;
  std::unique_ptr<fault::Injector> injector_;
  std::unique_ptr<obs::LiveSampler> live_;
  Rendezvous rendezvous_{*this};
};

/// A rank's handle on an ordered process group.
///
/// Cheap to copy. All group members must call each collective the same
/// number of times in the same order (standard SPMD contract); internal
/// sequence numbers derive matching message tags from that contract.
class Communicator {
 public:
  /// Invalid communicator; must be assigned from World::comm / split /
  /// subgroup before use. Exists so grid bundles can be value members.
  Communicator() = default;

  /// True once assigned from a real communicator.
  bool valid() const { return world_ != nullptr; }

  int rank() const { return grank_; }
  int size() const { return static_cast<int>(group_->size()); }
  int world_rank() const { return (*group_)[static_cast<std::size_t>(grank_)]; }
  int world_rank_of(int grank) const {
    return (*group_)[static_cast<std::size_t>(grank)];
  }
  const std::vector<int>& group() const { return *group_; }

  World& world() const { return *world_; }
  rt::SimClock& clock() const { return world_->clock(world_rank()); }
  CommStats& stats() const { return world_->stats(world_rank()); }

  // ---- Group construction ------------------------------------------------

  /// MPI_Comm_split: collective over this communicator. Ranks with equal
  /// `color` form a new group, ordered by (key, world rank).
  Communicator split(int color, int key);

  /// Deterministic local construction: every member passes the identical
  /// `world_ranks` list (e.g. a row of the [q,q,d] grid). No communication.
  /// The calling rank must appear in the list.
  Communicator subgroup(const std::vector<int>& world_ranks) const;

  // ---- Point-to-point ------------------------------------------------------

  /// Buffered (non-rendezvous) send; `tag` is a user tag scoped to this
  /// communicator. dst/src are group ranks.
  void send(int dst, std::uint64_t tag, std::span<const float> data);
  Payload recv(int src, std::uint64_t tag);
  /// Simultaneous shift: sends to `dst` and receives from `src` (both group
  /// ranks). Send is buffered, so exchanges cannot deadlock.
  void sendrecv(int dst, std::span<const float> send_data, int src,
                std::span<float> recv_data, std::uint64_t tag);

  // ---- Collectives (in place) ---------------------------------------------

  void barrier();
  void broadcast(std::span<float> data, int root);
  /// Reduces into `root`'s buffer. Non-root buffers are left in an
  /// unspecified state (MPI_IN_PLACE-style: the latency-optimal tree path
  /// clobbers them with partial sums, the bandwidth-optimal pipelined path
  /// leaves them untouched).
  void reduce(std::span<float> data, int root, ReduceOp op = ReduceOp::Sum);
  void all_reduce(std::span<float> data, ReduceOp op = ReduceOp::Sum);
  /// Gathers equally-sized contributions: out.size() == size() * local.size().
  void all_gather(std::span<const float> local, std::span<float> out);
  /// Group rank r receives reduced chunk r. Chunks may be ragged: chunk r is
  /// chunk_size(data.size(), size(), r) elements (remainder to low ranks), so
  /// out.size() must equal the calling rank's chunk. The input is preserved
  /// (reduction happens in the circulating message buffers, never in `data`).
  void reduce_scatter(std::span<const float> data, std::span<float> out,
                      ReduceOp op = ReduceOp::Sum);
  /// all_reduce with bf16-compressed wire chunks (comm/compress.hpp): the
  /// ring schedule of all_reduce, but every hop carries bf16 codes — half
  /// the wire bytes — decoded and accumulated in fp32 at each step. All
  /// ranks decode the same encoded bits, so the result is identical on
  /// every rank and across scheduler backends; it differs from the
  /// uncompressed reduction by bf16 storage rounding only.
  void all_reduce_compressed(std::span<float> data, ReduceOp op = ReduceOp::Sum);
  void gather(std::span<const float> local, std::span<float> out, int root);
  void scatter(std::span<const float> in, std::span<float> local, int root);
  /// in/out sized size() * chunk; chunk for group rank r at offset r*chunk.
  void all_to_all(std::span<const float> in, std::span<float> out);

  // ---- Tensor conveniences --------------------------------------------------
  // A phantom tensor (Tensor::phantom) runs the phantom twin below with its
  // nbytes(), so a layer written once on Tensors runs real or phantom.

  void broadcast(Tensor& t, int root) {
    if (t.is_phantom()) return phantom_broadcast(root, t.nbytes());
    broadcast(t.span(), root);
  }
  void all_reduce(Tensor& t, ReduceOp op = ReduceOp::Sum) {
    if (t.is_phantom()) return phantom_all_reduce(t.nbytes());
    all_reduce(t.span(), op);
  }
  void reduce(Tensor& t, int root, ReduceOp op = ReduceOp::Sum) {
    if (t.is_phantom()) return phantom_reduce(root, t.nbytes());
    reduce(t.span(), root, op);
  }
  /// The bf16 wire carries 2 bytes per element whatever t's element size.
  void all_reduce_compressed(Tensor& t, ReduceOp op = ReduceOp::Sum) {
    if (t.is_phantom()) return phantom_all_reduce_compressed(t.numel());
    all_reduce_compressed(t.span(), op);
  }

  // ---- Phantom collectives (timing + stats only) ---------------------------
  // The real collectives' wire schedules with declared byte counts and no
  // payload. Simulated per collective when World::per_collective_phantoms();
  // clocks and CommStats are bit-identical to the message path either way.

  void phantom_broadcast(int root, std::int64_t bytes);
  void phantom_reduce(int root, std::int64_t bytes);
  void phantom_all_reduce(std::int64_t bytes);
  /// all_reduce_compressed of `count` elements: 2 wire bytes per element,
  /// chunked by element as the real call is.
  void phantom_all_reduce_compressed(std::int64_t count);
  void phantom_all_gather(std::int64_t bytes_per_rank);
  void phantom_reduce_scatter(std::int64_t total_bytes);
  void phantom_sendrecv(int dst, int src, std::int64_t bytes);

  // ---- Local work and repeated segments --------------------------------------

  /// Charges `seconds` of local work to this rank's clock (scaled by its
  /// slowdown), the way pdg::charge_gemm and charge_memory_bound do; a
  /// repeat() logs it.
  void charge(double seconds);

  /// Runs `body` `times` times. SPMD over the whole World: every rank calls
  /// it, and `body` makes the same phantom collectives and charges in every
  /// iteration. When phantoms are simulated per collective and times > 2,
  /// the first two iterations run and are logged; the rest run as one flat
  /// segment program on the World's clocks with no meeting or fiber switch
  /// (comm/rendezvous.hpp), and each rank adds the second iteration's
  /// CommStats once per skipped iteration. Otherwise, or when the logs
  /// cannot make a program (a message crossed a mailbox, the two iterations
  /// differ), it is a plain loop. Clocks, CommStats and PhantomCounts are
  /// identical either way. Skipped iterations do not advance the tag
  /// sequence of the communicators `body` calls, so tags and split() ids
  /// after a segment program differ from a plain loop's; they still agree
  /// across members and reuse no earlier value.
  void repeat(int times, const std::function<void()>& body);

 private:
  friend class World;

  Communicator(World* world, std::shared_ptr<const std::vector<int>> group,
               int grank, std::uint32_t comm_id);

  std::uint64_t collective_tag(std::uint64_t seq) const;
  std::uint64_t next_tag();
  std::uint64_t user_tag(std::uint64_t tag) const;

  // Runs the phantom collective (kind, root, bytes), which logs
  // `logical_bytes` in CommStats. Per collective when the World allows it:
  // until the key's plan is compiled (the member's first call, which
  // compiles it) the impl runs in record mode; once it is, the member only
  // logs the call and draws its tag, as the impl would. Either way it then
  // meets its group in the World's Rendezvous and, unless it arrived last or
  // receives nothing, waits on its mailbox until the last member has
  // simulated the collective.
  template <class Impl>
  void phantom_collective(CollectiveKind kind, int root, std::int64_t bytes,
                          std::int64_t logical_bytes, Impl&& impl);

  // Records [construction, destruction) of the enclosing collective as a
  // span on this rank's simulated timeline when tracing is enabled, and a
  // per-op duration/byte sample in the world metrics registry when enabled.
  struct TraceSpan {
    Communicator* c;
    const char* name;
    double t0;
    std::int64_t bytes;
    TraceSpan(Communicator* comm, const char* n, std::int64_t payload_bytes = 0)
        : c(comm), name(n), t0(comm->clock().now()), bytes(payload_bytes) {}
    ~TraceSpan() {
      if (c->world_->tracing()) {
        c->world_->record_span(c->world_rank(), name, t0, c->clock().now(),
                               SpanKind::Collective, bytes, c->size());
      }
      if (c->world_->metrics_enabled()) {
        obs::Registry& reg = c->world_->metrics();
        // metric: comm.<op>.sim_seconds
        // metric: comm.<op>.bytes
        const std::string key = std::string("comm.") + name;
        reg.histogram_observe(key + ".sim_seconds", c->clock().now() - t0);
        if (bytes > 0) reg.counter_add(key + ".bytes", bytes);
      }
      if (obs::LiveSampler* live = c->world_->live()) {
        live->on_collective(c->world_rank(), t0, c->clock().now());
      }
    }
  };

  // Wire primitives. data may be null (phantom); count is the float count
  // carried (0 for phantom), wire_bytes the modeled size. The copying form
  // fills a pooled buffer; the payload form moves an existing buffer into
  // the message (zero copy — how ring collectives forward chunks).
  void send_msg(int dst_grank, std::uint64_t tag, const float* data,
                std::int64_t count, std::int64_t wire_bytes);
  void send_msg(int dst_grank, std::uint64_t tag, PayloadPtr payload,
                std::int64_t wire_bytes);
  Message recv_msg(int src_grank, std::uint64_t tag);
  // Returns a consumed payload to this rank's buffer pool.
  void recycle(PayloadPtr payload);

  // Shared implementations of the real/phantom twins. For real calls,
  // data != nullptr and wire bytes derive from counts; for phantom calls,
  // data == nullptr and `total_bytes` drives the per-message sizes.
  void broadcast_impl(float* data, std::int64_t count, std::int64_t total_bytes,
                      int root);
  void reduce_impl(float* data, std::int64_t count, std::int64_t total_bytes,
                   int root, ReduceOp op);
  void all_reduce_impl(float* data, std::int64_t count,
                       std::int64_t total_bytes, ReduceOp op);
  // count elements either way; data == nullptr for the phantom call.
  void all_reduce_compressed_impl(float* data, std::int64_t count, ReduceOp op);
  void all_gather_impl(const float* local, float* out, std::int64_t chunk_count,
                       std::int64_t chunk_bytes);
  void reduce_scatter_impl(const float* data, float* out, std::int64_t count,
                           std::int64_t total_bytes, ReduceOp op);

  World* world_ = nullptr;
  std::shared_ptr<const std::vector<int>> group_;
  int grank_ = 0;
  std::uint32_t comm_id_ = 0;
  std::uint64_t seq_ = 0;
  // Non-null while phantom_collective records: send_msg / recv_msg append
  // here instead of touching the mailbox.
  std::vector<WireOp>* record_ = nullptr;
  // This communicator's meetings in the World's Rendezvous; looked up by
  // the first per-collective phantom call.
  Rendezvous::Meetings* meetings_ = nullptr;
};

/// Accumulates src into dst according to op.
void apply_reduce(ReduceOp op, float* dst, const float* src, std::int64_t n);

}  // namespace tsr::comm
