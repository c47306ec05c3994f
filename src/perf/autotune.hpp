// Cost-model-driven auto-parallelization search (the DistIR idea applied to
// this repository's own simulator): instead of evaluating ONE [q, q, d]
// arrangement, enumerate every legal mapping of a model onto a GPU budget —
// Tesseract grids with q*q*d == P, the Megatron-LM / Optimus baselines,
// GPipe pipeline-stage counts and ZeRO-1 optimizer sharding — and score each
// candidate with the phantom replay. No real GEMM runs: every number is
// simulated time, modeled bytes or a replayed fault experiment, so a full
// 64-GPU search completes in well under a second of host time and is
// bit-reproducible on every scheduler backend.
//
// Three scoring axes, one Pareto front:
//   * step_seconds  — predicted fwd + bwd (+ pipeline bubble + optimizer)
//   * peak_bytes    — modeled per-rank peak live tensor bytes
//   * straggler_inflation — step-time inflation when rank 0 runs 50% slow
//     (a canned fault::SlowRankSpec plan re-evaluated through the same replay)
//
// `tools/tsr_plan` fronts this module; bench_autotune sweeps it in CI;
// docs/planning.md documents the search space, the scoring model and the
// BENCH_autotune.json schema.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "perf/cost_model.hpp"
#include "perf/run_report.hpp"

namespace tsr {
struct RunConfig;
}  // namespace tsr

namespace tsr::perf {

/// One point of the search space: a parallelization scheme plus the hybrid
/// axes the paper's Section 3.4 stacks on top of it.
struct PlanCandidate {
  Scheme scheme = Scheme::Tesseract;
  int p = 0;  ///< Megatron only: ranks of the 1-D group
  int q = 0;
  int d = 1;
  /// GPipe pipeline stages; each stage owns layers/stages encoder layers on
  /// its own grid of grid_ranks() ranks. 1 = no pipelining.
  int stages = 1;
  /// ZeRO-1 optimizer-state sharding across the depth group (the d ranks
  /// holding the same B-layout weight block). Only meaningful when d > 1.
  bool zero = false;

  /// Ranks of one pipeline stage's grid (p, q*q, or q*q*d).
  int grid_ranks() const;
  /// Ranks the whole candidate occupies: grid_ranks() * stages.
  int total_ranks() const { return grid_ranks() * stages; }
  /// Human/JSON key: "tesseract[4,4,4]", "tesseract[2,2,4] pp2 zero", ...
  std::string label() const;
  /// Per-stage replay configuration (micro-batch dims when stages > 1).
  EvalConfig eval_config(const struct AutotuneConfig& cfg) const;
};

/// Everything the scorer predicted about one candidate. All seconds are
/// simulated; all bytes are modeled (docs/planning.md gives every formula).
struct PlanScore {
  double step_seconds = 0.0;   ///< fwd + bwd + bubble + opt: one training step
  double fwd_seconds = 0.0;    ///< all micro-batches through one stage
  double bwd_seconds = 0.0;
  double bubble_seconds = 0.0; ///< GPipe (stages-1) bubble + boundary hops
  double opt_seconds = 0.0;    ///< Adam update (+ ZeRO value all-gather)

  double peak_bytes = 0.0;       ///< weight + grad + opt_state + activation
  double weight_bytes = 0.0;     ///< per-rank parameter storage
  double opt_state_bytes = 0.0;  ///< Adam moments (/d under ZeRO)
  double activation_bytes = 0.0; ///< forward caches at the in-flight peak

  double straggler_seconds = 0.0;   ///< step time under the canned +50% plan
  double straggler_inflation = 0.0; ///< straggler_seconds / step_seconds

  comm::CommStats fwd_stats;  ///< aggregate phantom comm of the fwd replay
  comm::CommStats bwd_stats;
};

struct ScoredCandidate {
  PlanCandidate cand;
  PlanScore score;
  bool pareto = false;  ///< member of the Pareto front
};

/// The search problem: model, GPU budget, interconnect, search knobs.
/// from() overlays the RunConfig planner knobs (TESSERACT_PLAN_*) so
/// `tsr_plan` and bench_autotune share one configuration surface.
struct AutotuneConfig {
  int gpus = 64;
  LayerDims dims{16, 512, 3072, 64};
  int layers = 8;
  /// Micro-batches per step for pipelined candidates (GPipe M).
  int micros = 4;
  /// Upper bound on enumerated pipeline stage counts.
  int max_stages = 8;
  /// Canned straggler: rank 0 of every candidate runs at this clock scale
  /// for the resilience axis (1.5 = the issue's +50% experiment).
  double straggler_scale = 1.5;
  topo::MachineSpec spec = topo::MachineSpec::meluxina();

  /// Defaults overridden by the planner knobs of `run` that are set
  /// (RunConfig::plan_*, read from TESSERACT_PLAN_* by config_from_env; see
  /// docs/planning.md).
  static AutotuneConfig from(const RunConfig& run);
};

/// Enumerates the candidate set for cfg, deterministically ordered:
/// Megatron [P] and Optimus [sqrt(P), sqrt(P)] baselines first (when the
/// model dimensions divide), then every Tesseract (q, d, stages, zero) with
/// q*q*d*stages == P, hidden % q == 0, heads % q == 0, layers % stages == 0
/// and stages <= max_stages; the zero=true twin exists for every grid with
/// d > 1. No candidate appears twice.
std::vector<PlanCandidate> enumerate_candidates(const AutotuneConfig& cfg);

/// Scores one candidate via the phantom replay (healthy + canned-straggler
/// runs). Performs no real tensor math.
PlanScore score_candidate(const AutotuneConfig& cfg, const PlanCandidate& cand);

/// Pareto-minimal rows of a (minimize, minimize, minimize) objective table:
/// out[i] is true iff no j strictly dominates i (<= on every axis and < on
/// at least one). Duplicate points are all kept. Separately testable against
/// a hand-computed oracle.
std::vector<bool> pareto_front(
    const std::vector<std::array<double, 3>>& points);

/// The whole search: enumerate, score, mark the Pareto front over
/// (step_seconds, peak_bytes, straggler_inflation).
std::vector<ScoredCandidate> autotune(const AutotuneConfig& cfg);

/// Serializes a search as the BENCH_autotune.json document: the shared
/// stamp_envelope header, the search configuration, one case per candidate
/// and the Pareto front labels. Schema in docs/planning.md.
obs::JsonValue autotune_to_json(const AutotuneConfig& cfg,
                                const std::vector<ScoredCandidate>& results);

/// Traced single-candidate evaluation for `tsr_plan explain`: replays one
/// full step (fwd + bwd + optimizer) on a traced + metered World and returns
/// the same RunReport (per-rank compute/wire/wait/idle attribution, comm
/// matrix, collective rollups) that tsr_report builds — the planner's
/// numbers and the profiler's numbers come from one machinery. When
/// `score_out` is non-null it also receives the candidate's search score.
RunReport explain_candidate(const AutotuneConfig& cfg,
                            const PlanCandidate& cand,
                            PlanScore* score_out = nullptr);

}  // namespace tsr::perf
