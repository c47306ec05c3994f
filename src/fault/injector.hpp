// The active side of a FaultPlan: a World with a non-empty plan owns one
// Injector, and the communicator's wire primitives consult it on every
// operation. All hook methods are called on the issuing rank's own thread,
// so the per-rank and per-link state needs no locking; only the dead-rank
// set (written by World::run's failure handler, read by survivors) and the
// cumulative counters are shared.
//
// Hook placement (see comm/communicator.cpp):
//   * tick(rank, now)     — entry of send_msg / recv_msg; fires kill triggers.
//   * adjust_link(...)    — before the serialization charge; degraded links.
//   * on_message(...)     — after arrival stamping; seeded delays.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/mailbox.hpp"
#include "fault/fault.hpp"
#include "topology/machine_spec.hpp"

namespace tsr::comm {
class World;
}

namespace tsr::fault {

class Injector {
 public:
  /// `world` must outlive the injector (the World owns it).
  Injector(FaultPlan plan, comm::World* world);

  const FaultPlan& plan() const { return plan_; }

  // ---- Hooks (issuing rank's thread) ---------------------------------------

  /// Advances rank's op counter and fires any matching kill trigger by
  /// throwing RankKilled. Called at the top of every wire operation.
  void tick(int rank, double sim_now);

  /// Applies slow-link scaling for (src, dst) to the alpha/beta parameters
  /// the sender is about to charge. No-op when no link fault matches.
  void adjust_link(int src, int dst, topo::LinkParams* params) const;

  /// Applies the plan's delays to a stamped message: each matching spec
  /// adds its fixed seconds plus a seeded jitter draw to the arrival time.
  void on_message(int src, int dst, comm::Message* msg);

  /// Fast gates so the faultless majority of sends skip the fault scans.
  bool has_kills() const { return !plan_.kills.empty(); }
  bool has_msg_faults() const { return !plan_.delays.empty(); }
  bool has_link_faults() const { return !plan_.slow_links.empty(); }

  // ---- Failure state --------------------------------------------------------

  /// Records `rank` dead (idempotent) and returns the updated sorted set as
  /// a shared snapshot suitable for Mailbox::poison_failure.
  std::shared_ptr<const std::vector<int>> mark_dead(int rank);

  /// Sorted world ranks killed so far (copy).
  std::vector<int> dead_ranks() const;

  /// Cumulative activity counters plus the dead-rank set.
  FaultReport report() const;

 private:
  std::uint64_t draw(int src, int dst, std::uint64_t msg_idx,
                     std::uint64_t salt) const;

  FaultPlan plan_;
  comm::World* world_;
  int nranks_;

  // Per-rank wire-op counters and kill latches; each entry is touched only
  // by its own rank's thread.
  std::vector<std::int64_t> ops_;
  std::vector<char> kill_fired_;
  // Per-(src,dst) message index, row-owned by the sender's thread.
  std::vector<std::uint64_t> link_seq_;

  mutable std::mutex dead_mu_;
  std::vector<int> dead_;

  std::atomic<std::int64_t> kills_{0};
  std::atomic<std::int64_t> delayed_{0};
  std::atomic<double> delay_seconds_{0.0};
};

}  // namespace tsr::fault
