// Configuration evaluator: produces the forward / backward / throughput /
// inference numbers of the paper's Tables 1 and 2 for any parallelization
// scheme and problem size on a simulated MeluXina-like cluster, by running
// the real layers of parallel/ with phantom weights on phantom activations
// (Tensor::phantom): their own collectives and charges, with no arithmetic
// and no paper-scale allocation. tests/test_perf.cpp checks that phantom and
// real runs give equal clocks and CommStats under every flag.
#pragma once

#include <string>

#include "comm/communicator.hpp"
#include "comm/rendezvous.hpp"
#include "comm/stats.hpp"
#include "fault/fault.hpp"
#include "obs/expect.hpp"
#include "topology/machine_spec.hpp"

namespace tsr::perf {

/// Problem dimensions of one encoder layer (paper notation: b, s, h, n).
struct LayerDims {
  std::int64_t batch = 0;
  std::int64_t seq = 0;
  std::int64_t hidden = 0;
  std::int64_t heads = 0;
  std::int64_t expansion = 4;
  /// Bytes per activation/weight element: the phantom tensors' element
  /// size. 4 = fp32 (the real float layers); 2 = fp16 mixed precision as in
  /// the paper's Megatron-style training setups.
  std::int64_t elem_bytes = 4;
};

enum class Scheme { Megatron1D, Optimus2D, Tesseract };

std::string scheme_name(Scheme s);

struct EvalConfig {
  Scheme scheme = Scheme::Tesseract;
  /// Grid shape. Megatron uses p ranks; Optimus uses q*q (d forced to 1);
  /// Tesseract uses q*q*d.
  int p = 0;  // Megatron only
  int q = 0;
  int d = 1;
  LayerDims dims{};
  /// Encoder layers replayed per batch (the paper's N).
  int layers = 8;
  topo::MachineSpec spec = topo::MachineSpec::meluxina();
  /// Fault experiment to run the replay under (straggler / degraded-link
  /// sensitivity studies). The default empty plan changes nothing.
  fault::FaultPlan fault{};

  int total_ranks() const;
  /// "[4,4,2]" / "[8,8]" / "[16]" — the GPU-shape notation of the tables.
  std::string shape_string() const;
};

struct EvalResult {
  double fwd_seconds = 0.0;   ///< forward time / batch
  double bwd_seconds = 0.0;   ///< backward time / batch
  double throughput = 0.0;    ///< iterations / s: 1 / (fwd + bwd)
  double inference = 0.0;     ///< iterations / s: 1 / fwd
  comm::CommStats fwd_stats;  ///< aggregate comm of one forward pass
  comm::CommStats bwd_stats;
  /// How the replay simulated its phantom collectives (host-side counts).
  comm::PhantomCounts phantom;
};

/// Runs the phantom replay and derives the table metrics the way the
/// paper's printed numbers do (1/(fwd+bwd) and 1/fwd — see the note in
/// cost_model.cpp on the text-vs-numbers discrepancy).
EvalResult evaluate(const EvalConfig& cfg);

/// Replays cfg's full layer schedule (cfg.layers layers, forward or
/// backward) on `c` — the shared body of evaluate() and the autotune search
/// (perf/autotune.hpp), which replays per-stage slices of a candidate and
/// appends its own optimizer phase. `c` must have exactly cfg.total_ranks()
/// ranks. The Tesseract/Optimus input is [ceil(b/(d*q)), s, h/q]: a batch
/// that does not divide d*q runs padded (Table 1's [4,4,2] row runs batch
/// 12, 1.5 samples per slice). A backward runs with no forward before it.
/// Throws std::invalid_argument when h or n does not divide over the grid.
void replay_schedule(const EvalConfig& cfg, comm::Communicator& c,
                     bool backward);

/// Derives a live-telemetry expectation profile (obs/expect.hpp) from the
/// cost model: phantom-replays cfg's schedule (forward + backward per layer)
/// on a fresh metered World and condenses the result into predicted op rate
/// and busy/wait fractions. cfg.fault is deliberately IGNORED — the profile
/// is what a *healthy* cluster should do; drift from it is the signal the
/// ExpectationMonitor looks for.
obs::ExpectationProfile expectation_from_cost_model(const EvalConfig& cfg);

}  // namespace tsr::perf
