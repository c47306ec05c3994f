// Closed-form per-layer time model for the three parallelization schemes.
//
// Two performance planes exist in this repository: the phantom replay
// (perf/cost_model.hpp) executes the exact message schedule on the virtual
// cluster — slow-ish but exact; this analytic model evaluates alpha-beta
// expressions in closed form — instant, so sweeps over thousands of
// [q, q, d] candidates (auto-tuning, as in example_grid_explorer) are free.
// bench_model_validation reports the analytic-vs-replay error across the
// Table 1 configurations; tests pin it within a tolerance band.
//
// The breakdown separates the terms the paper's Section 3.1 discussion
// reasons about: weight-panel communication (the h^2/q terms), activation
// communication (the b*s*h terms that depth d divides), latency (per-step
// alphas), and local compute.
#pragma once

#include "perf/cost_model.hpp"
#include "topology/machine_spec.hpp"

namespace tsr::perf {

struct AnalyticBreakdown {
  double compute = 0.0;
  double weight_comm = 0.0;      ///< weight-panel broadcasts / dW reduces
  double activation_comm = 0.0;  ///< activation panels / all-reduces
  double other = 0.0;            ///< layernorm stats, bias movement, ...

  double total() const { return compute + weight_comm + activation_comm + other; }
};

/// One encoder layer, forward pass, Tesseract [q, q, d] (Optimus at d = 1).
AnalyticBreakdown analytic_tesseract_forward(const topo::MachineSpec& spec,
                                             int q, int d,
                                             const LayerDims& dims);
/// Backward pass (dX + dW + the depth all-reduce of Section 3.1).
AnalyticBreakdown analytic_tesseract_backward(const topo::MachineSpec& spec,
                                              int q, int d,
                                              const LayerDims& dims);

/// One encoder layer, Megatron-LM 1-D on p ranks.
AnalyticBreakdown analytic_megatron_forward(const topo::MachineSpec& spec,
                                            int p, const LayerDims& dims);
AnalyticBreakdown analytic_megatron_backward(const topo::MachineSpec& spec,
                                             int p, const LayerDims& dims);

/// Convenience: total forward seconds for an EvalConfig (layers included),
/// comparable to evaluate(cfg).fwd_seconds.
double analytic_forward_seconds(const EvalConfig& cfg);
double analytic_backward_seconds(const EvalConfig& cfg);

}  // namespace tsr::perf
