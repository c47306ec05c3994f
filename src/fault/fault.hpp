// Deterministic fault-injection plans for the virtual cluster.
//
// The paper's Tesseract schedule ran on a real 64-GPU cluster where slow
// links, jittery kernels and dying ranks are facts of life; the simulator's
// default world is perfectly reliable and perfectly uniform. A FaultPlan
// describes a set of deliberate departures from that ideal — rank kills,
// seeded per-message delays, per-rank compute stragglers and degraded
// links — which comm::World threads through the communicator and runtime
// when a plan is installed (World::install_fault_plan, or RunConfig::fault,
// which bench and tool mains read from the TESSERACT_FAULT_* environment;
// see docs/fault_injection.md).
//
// Two hard guarantees:
//   * An empty plan is indistinguishable from no plan: no injector is
//     created and every rank output, byte counter and simulated clock is
//     byte-identical to a faultless run.
//   * Plans are deterministic. Every probabilistic draw is a pure function
//     of (plan seed, link, per-link message index); kill triggers count a
//     rank's own communication ops or its own simulated clock. The same
//     plan on the same program produces the same faults on every backend
//     (fibers or threads) and every worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace tsr::fault {

// ---- Structured failures ---------------------------------------------------

/// Thrown by the injector on the killed rank's own thread at the trigger
/// point. World::run treats an injected kill as an expected event: the rank
/// is marked dead, every mailbox is poisoned with the failed-rank set, and
/// the RankKilled itself is not rethrown to the caller.
class RankKilled : public std::runtime_error {
 public:
  RankKilled(int rank, std::int64_t op, double sim_time);
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// Surfaced by every surviving rank blocked on (or subsequently entering) a
/// receive after a peer died: the structured counterpart of the free-text
/// "Mailbox poisoned" error. All survivors observe the same failed-rank set,
/// so an application (or test) can produce one consistent failure report per
/// rank instead of hanging or tripping the deadlock machinery.
class PeerFailure : public std::runtime_error {
 public:
  explicit PeerFailure(std::vector<int> failed_ranks);
  /// World ranks known dead, sorted ascending.
  const std::vector<int>& failed_ranks() const { return failed_ranks_; }

 private:
  std::vector<int> failed_ranks_;
};

/// A blocking receive exceeded the plan's recv_timeout_ms with no message
/// and no known-dead peer (e.g. a receive no rank ever sends to). Distinct
/// from PeerFailure so callers can tell "peer died" from "peer silent".
class RecvTimeout : public std::runtime_error {
 public:
  RecvTimeout(int src, std::uint64_t tag, int timeout_ms);
  int src() const { return src_; }

 private:
  int src_;
};

// ---- Fault specifications --------------------------------------------------
// In every spec a rank field of -1 is a wildcard ("any rank"). Link faults
// never apply to self-sends (those bypass the wire entirely).

/// Kills a rank: the rank throws RankKilled at the first communication op
/// where a trigger holds. `at_op` counts the rank's own wire operations
/// (sends + receives since the World was created, 0-based); `at_time` fires
/// once the rank's simulated clock reaches the given seconds. Either may be
/// left unset (-1 / negative); at least one must be set for the kill to fire.
struct KillSpec {
  int rank = -1;
  std::int64_t at_op = -1;
  double at_time = -1.0;
};

/// Adds latency to matching messages: a fixed `seconds` plus a seeded
/// uniform draw in [0, jitter). `probability` < 1 delays only a seeded
/// subset; `count` >= 0 limits the fault to the first `count` matching
/// messages on each (src, dst) link.
struct DelaySpec {
  int src = -1;
  int dst = -1;
  double seconds = 0.0;
  double jitter = 0.0;
  double probability = 1.0;
  std::int64_t count = -1;
};

/// Compute straggler: every local time charge on `rank` (kernel work and
/// NIC serialization alike) runs `scale`x slower on the simulated clock.
/// scale 1.25 models a 25% straggler.
struct SlowRankSpec {
  int rank = -1;
  double scale = 1.0;
};

/// Degraded link: scales the alpha/beta parameters of matching (src, dst)
/// pairs. beta_scale 2.0 halves the link bandwidth.
struct SlowLinkSpec {
  int src = -1;
  int dst = -1;
  double alpha_scale = 1.0;
  double beta_scale = 1.0;
};

// ---- The plan ---------------------------------------------------------------

struct FaultPlan {
  /// Seed of every probabilistic draw (delay jitter, probability gates).
  std::uint64_t seed = 1;
  /// Host-milliseconds bound on blocking receives (threads backend; the
  /// fiber backend detects stalls instantly through its quiescence scan).
  /// On expiry the receive throws PeerFailure when dead ranks are known,
  /// RecvTimeout otherwise. 0 disables the bound.
  int recv_timeout_ms = 0;

  std::vector<KillSpec> kills;
  std::vector<DelaySpec> delays;
  std::vector<SlowRankSpec> slow_ranks;
  std::vector<SlowLinkSpec> slow_links;

  /// True when the plan changes nothing (no fault of any kind and no
  /// receive timeout); World::install_fault_plan ignores empty plans.
  bool empty() const;

  /// JSON round trip; see docs/fault_injection.md for the schema. from_json
  /// rejects any key the schema does not name, at the top level and inside
  /// every spec, so a typo cannot silently leave a fault out.
  obs::JsonValue to_json() const;
  static FaultPlan from_json(const obs::JsonValue& v, std::string* error = nullptr);
  static FaultPlan from_json_text(const std::string& text,
                                  std::string* error = nullptr);
};

/// Stable fingerprint of a plan: "none" for an empty plan, else 16 hex
/// digits hashing the canonical JSON serialization (FNV-1a 64). Two plans
/// fingerprint equal iff their JSON round-trips are byte-identical, so the
/// run-report envelope can stamp which fault experiment produced a document
/// and diffs of runs under different plans fail loudly instead of reading
/// as mysterious numeric drift.
std::string plan_fingerprint(const FaultPlan& plan);

/// Process-wide fingerprint of the most recently installed (non-empty)
/// fault plan, "none" until one is installed. World::install_fault_plan
/// records it; perf::stamp_envelope reads it so every exported document
/// carries the active experiment. Sticky by design: reports are typically
/// built right after the instrumented run, and a stale value still names a
/// *different* plan than a clean run would, which is exactly the mismatch
/// the envelope exists to expose.
void note_installed_plan(const FaultPlan& plan);
std::string active_plan_fingerprint();

/// Cumulative injector activity, for tests and reports. All counts are
/// exact and deterministic for a given plan + program.
struct FaultReport {
  std::int64_t kills = 0;
  std::int64_t delayed_msgs = 0;
  double injected_delay_seconds = 0.0;  ///< total arrival-time slip added
  std::vector<int> dead_ranks;          ///< sorted world ranks killed so far
};

}  // namespace tsr::fault
