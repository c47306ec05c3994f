#include "perf/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "pdgemm/block.hpp"
#include "perf/export.hpp"
#include "perf/trace.hpp"
#include "runtime/config.hpp"
#include "tensor/tensor.hpp"

namespace tsr::perf {
namespace {

/// Parameter elements of one encoder layer, matching nn::TransformerLayer:
/// ln1 (gamma+beta) + attention (qkv h->3h and proj h->h, with biases) +
/// ln2 + feed-forward (h->e*h and e*h->h, with biases).
std::int64_t layer_param_elems(const LayerDims& dims) {
  const std::int64_t h = dims.hidden;
  const std::int64_t e = dims.expansion;
  const std::int64_t attn = h * 3 * h + 3 * h + h * h + h;
  const std::int64_t ffn = h * e * h + e * h + e * h * h + h;
  const std::int64_t ln = 2 * (2 * h);
  return attn + ffn + ln;
}

/// Adam touches grad (read), param / m / v (read + write) per element, in
/// fp32: 7 float accesses, rounded to 8 for the update's temporaries.
constexpr std::int64_t kAdamBytesPerElem = 8 * 4;

/// Phantom replay of the optimizer phase of one step on the candidate's
/// (per-stage) grid: the Adam arithmetic is charged as a memory-bound kernel
/// over the elements this rank updates, and ZeRO-1 adds the value all-gather
/// that rebuilds the full replica from the depth-sharded updates. The
/// gradient depth all-reduce is already part of the backward replay (under
/// ZeRO it would be a reduce-scatter of equal ring volume — the model keeps
/// the all-reduce and charges only the extra all-gather; see
/// docs/planning.md).
void replay_optimizer(const AutotuneConfig& cfg, const PlanCandidate& cand,
                      comm::Communicator& c) {
  const std::int64_t elems =
      static_cast<std::int64_t>(cfg.layers / cand.stages) *
      layer_param_elems(cfg.dims);
  if (cand.scheme == Scheme::Megatron1D) {
    pdg::charge_memory_bound(c, (elems / cand.p) * kAdamBytesPerElem);
    return;
  }
  const int d = cand.scheme == Scheme::Optimus2D ? 1 : cand.d;
  pdg::TesseractComms tc = pdg::TesseractComms::create(c, cand.q, d);
  const std::int64_t shard = elems / (cand.q * cand.q);  // replicated over d
  if (cand.zero && d > 1) {
    const std::int64_t owned = (shard + d - 1) / d;
    pdg::charge_memory_bound(tc.grid, owned * kAdamBytesPerElem);
    tc.depth.phantom_all_gather(owned * 4);  // fp32 master values
  } else {
    pdg::charge_memory_bound(tc.grid, shard * kAdamBytesPerElem);
  }
}

/// The canned straggler experiment of the resilience axis: rank 0 of every
/// candidate runs at cfg.straggler_scale (1.5 = +50%).
fault::FaultPlan straggler_plan(const AutotuneConfig& cfg) {
  fault::FaultPlan plan;
  plan.slow_ranks.push_back(fault::SlowRankSpec{0, cfg.straggler_scale});
  return plan;
}

/// One stage's grid as an evaluator config: where a candidate's rank count
/// and shape string come from.
EvalConfig grid_of(const PlanCandidate& cand) {
  EvalConfig ec;
  ec.scheme = cand.scheme;
  ec.p = cand.p;
  ec.q = cand.q;
  ec.d = cand.d;
  return ec;
}

/// Fills the modeled memory fields. Formulas in docs/planning.md; every
/// number is a prediction of per-rank peak live tensor bytes, not a
/// measurement (the replay allocates nothing).
void fill_memory(const AutotuneConfig& cfg, const PlanCandidate& cand,
                 PlanScore* s) {
  const double F = static_cast<double>(cfg.dims.elem_bytes);
  const double h = static_cast<double>(cfg.dims.hidden);
  const double e = static_cast<double>(cfg.dims.expansion);
  const double seq = static_cast<double>(cfg.dims.seq);
  const int stage_layers = cfg.layers / cand.stages;
  const double per_layer = static_cast<double>(layer_param_elems(cfg.dims));

  double weight_elems = 0.0;     // per rank, one stage
  double act_per_layer = 0.0;    // cached forward bytes per layer per rank
  const EvalConfig ec = cand.eval_config(cfg);
  if (cand.scheme == Scheme::Megatron1D) {
    weight_elems = stage_layers * per_layer / cand.p;
    const double rows =
        static_cast<double>(ec.dims.batch) * seq;  // activations replicated
    act_per_layer =
        rows * (2.0 * h + (4.0 + e) * h / cand.p +
                2.0 * (static_cast<double>(cfg.dims.heads) / cand.p) * seq) *
        F;
  } else {
    const int d = cand.scheme == Scheme::Optimus2D ? 1 : cand.d;
    const int q = cand.q;
    weight_elems = stage_layers * per_layer / (q * q);  // replicated over d
    const double dq = static_cast<double>(d) * q;
    const double rows =
        std::ceil(static_cast<double>(ec.dims.batch) / dq) * seq;
    const double lh = h / q;
    const double nl = static_cast<double>(cfg.dims.heads) / q;
    act_per_layer = rows * ((6.0 + e) * lh + 2.0 * nl * seq) * F;
  }
  // GPipe keeps every in-flight micro-batch's forward caches resident.
  const int in_flight = cand.stages > 1 ? std::max(1, cfg.micros) : 1;
  const int zero_div =
      cand.zero && cand.scheme == Scheme::Tesseract ? cand.d : 1;
  s->weight_bytes = weight_elems * 4.0;
  s->opt_state_bytes = 2.0 * s->weight_bytes / zero_div;
  s->activation_bytes = stage_layers * act_per_layer * in_flight;
  // Gradients mirror the weights one-for-one.
  s->peak_bytes = 2.0 * s->weight_bytes + s->opt_state_bytes +
                  s->activation_bytes;
}

/// One full evaluation of a candidate under `plan`: fwd / bwd / optimizer
/// replays on the per-stage grid, composed by the GPipe schedule when
/// stages > 1. Returns the predicted step time; fills the phase breakdown
/// and comm stats when `detail` is non-null.
double eval_step(const AutotuneConfig& cfg, const PlanCandidate& cand,
                 const fault::FaultPlan& plan, PlanScore* detail) {
  const EvalConfig ec = cand.eval_config(cfg);
  comm::World world(cand.grid_ranks(), cfg.spec);
  world.install_fault_plan(plan);  // no-op for the default empty plan
  const Measurement fwd = measure(world, [&](comm::Communicator& c) {
    replay_schedule(ec, c, /*backward=*/false);
  });
  const Measurement bwd = measure(world, [&](comm::Communicator& c) {
    replay_schedule(ec, c, /*backward=*/true);
  });
  const Measurement opt = measure(world, [&](comm::Communicator& c) {
    replay_optimizer(cfg, cand, c);
  });

  const int S = cand.stages;
  const int M = S > 1 ? std::max(1, cfg.micros) : 1;
  double bubble = 0.0;
  if (S > 1) {
    // The classic GPipe decomposition: (M + S - 1) slots of per-micro work
    // is M slots of useful work plus an (S - 1)-slot bubble — plus one
    // activation-shard hop per crossed stage boundary, forward and backward.
    bubble = (S - 1) * (fwd.sim_seconds + bwd.sim_seconds);
    const std::int64_t dq =
        static_cast<std::int64_t>(cand.d) * cand.q;
    const std::int64_t rows =
        ((ec.dims.batch + dq - 1) / dq) * ec.dims.seq;
    const std::int64_t hop_bytes =
        rows * (ec.dims.hidden / cand.q) * ec.dims.elem_bytes;
    const double hop =
        cfg.spec.transfer_time(0, cand.grid_ranks(), hop_bytes);
    bubble += 2.0 * M * (S - 1) * hop;
  }
  const double step =
      M * (fwd.sim_seconds + bwd.sim_seconds) + bubble + opt.sim_seconds;
  if (detail != nullptr) {
    detail->fwd_seconds = M * fwd.sim_seconds;
    detail->bwd_seconds = M * bwd.sim_seconds;
    detail->bubble_seconds = bubble;
    detail->opt_seconds = opt.sim_seconds;
    detail->fwd_stats = fwd.total_stats;
    detail->bwd_stats = bwd.total_stats;
  }
  return step;
}

}  // namespace

int PlanCandidate::grid_ranks() const { return grid_of(*this).total_ranks(); }

std::string PlanCandidate::label() const {
  std::ostringstream os;
  os << scheme_name(scheme) << ' ' << grid_of(*this).shape_string();
  if (stages > 1) os << " pp" << stages;
  if (zero) os << " zero";
  return os.str();
}

EvalConfig PlanCandidate::eval_config(const AutotuneConfig& cfg) const {
  EvalConfig ec = grid_of(*this);
  ec.dims = cfg.dims;
  if (stages > 1) {
    const int m = std::max(1, cfg.micros);
    ec.dims.batch = (cfg.dims.batch + m - 1) / m;  // micro-batch rows
  }
  ec.layers = cfg.layers / stages;
  ec.spec = cfg.spec;
  return ec;
}

AutotuneConfig AutotuneConfig::from(const RunConfig& run) {
  AutotuneConfig cfg;
  if (run.plan_gpus > 0) cfg.gpus = run.plan_gpus;
  if (run.plan_micros > 0) cfg.micros = run.plan_micros;
  if (run.plan_max_stages > 0) cfg.max_stages = run.plan_max_stages;
  if (run.plan_straggler_scale > 0) {
    cfg.straggler_scale = run.plan_straggler_scale;
  }
  return cfg;
}

std::vector<PlanCandidate> enumerate_candidates(const AutotuneConfig& cfg) {
  const int P = cfg.gpus;
  check(P >= 1, "enumerate_candidates: GPU budget must be positive");
  check(cfg.layers >= 1, "enumerate_candidates: need at least one layer");
  std::vector<PlanCandidate> out;

  // Baselines first, whenever the model dimensions divide their grids.
  if (cfg.dims.hidden % P == 0 && cfg.dims.heads % P == 0) {
    PlanCandidate mega;
    mega.scheme = Scheme::Megatron1D;
    mega.p = P;
    out.push_back(mega);
  }
  int root = 1;
  while ((root + 1) * (root + 1) <= P) ++root;
  if (root * root == P && cfg.dims.hidden % root == 0 &&
      cfg.dims.heads % root == 0) {
    PlanCandidate opti;
    opti.scheme = Scheme::Optimus2D;
    opti.q = root;
    out.push_back(opti);
  }

  // Tesseract grids x pipeline stages x ZeRO. Batch divisibility is not
  // required: the replay ceil-divides the batch over d*q exactly like the
  // paper's Table 1 runs [4,4,2] at batch 12 (padded-batch cost).
  for (int stages = 1; stages <= cfg.max_stages; ++stages) {
    if (P % stages != 0 || cfg.layers % stages != 0) continue;
    const int grid = P / stages;
    for (int q = 1; q * q <= grid; ++q) {
      if (grid % (q * q) != 0) continue;
      if (cfg.dims.hidden % q != 0 || cfg.dims.heads % q != 0) continue;
      const int d = grid / (q * q);
      PlanCandidate cand;
      cand.scheme = Scheme::Tesseract;
      cand.q = q;
      cand.d = d;
      cand.stages = stages;
      out.push_back(cand);
      if (d > 1) {
        cand.zero = true;
        out.push_back(cand);
      }
    }
  }
  return out;
}

PlanScore score_candidate(const AutotuneConfig& cfg,
                          const PlanCandidate& cand) {
  check(cand.total_ranks() >= 1, "score_candidate: candidate has no ranks");
  PlanScore s;
  s.step_seconds = eval_step(cfg, cand, fault::FaultPlan{}, &s);
  s.straggler_seconds = eval_step(cfg, cand, straggler_plan(cfg), nullptr);
  s.straggler_inflation =
      s.step_seconds > 0.0 ? s.straggler_seconds / s.step_seconds : 1.0;
  fill_memory(cfg, cand, &s);
  return s;
}

std::vector<bool> pareto_front(
    const std::vector<std::array<double, 3>>& points) {
  const std::size_t n = points.size();
  std::vector<bool> front(n, true);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const auto& a = points[j];
      const auto& b = points[i];
      const bool leq =
          a[0] <= b[0] && a[1] <= b[1] && a[2] <= b[2];
      const bool strict = a[0] < b[0] || a[1] < b[1] || a[2] < b[2];
      if (leq && strict) {
        front[i] = false;
        break;
      }
    }
  }
  return front;
}

std::vector<ScoredCandidate> autotune(const AutotuneConfig& cfg) {
  std::vector<ScoredCandidate> results;
  for (const PlanCandidate& cand : enumerate_candidates(cfg)) {
    results.push_back({cand, score_candidate(cfg, cand), false});
  }
  std::vector<std::array<double, 3>> points;
  points.reserve(results.size());
  for (const ScoredCandidate& r : results) {
    points.push_back({r.score.step_seconds, r.score.peak_bytes,
                      r.score.straggler_inflation});
  }
  const std::vector<bool> front = pareto_front(points);
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].pareto = front[i];
  }
  return results;
}

obs::JsonValue autotune_to_json(const AutotuneConfig& cfg,
                                const std::vector<ScoredCandidate>& results) {
  BenchReport report("autotune");
  // The envelope's fault_plan normally fingerprints the last plan installed
  // process-wide, which after a search is whichever candidate's canned
  // straggler ran last. Stamp it explicitly from the search's own plan so
  // the document is self-describing and independent of install order.
  report.root()["fault_plan"] = fault::plan_fingerprint(straggler_plan(cfg));
  obs::JsonValue config = obs::JsonValue::object();
  config["gpus"] = static_cast<std::int64_t>(cfg.gpus);
  config["batch"] = cfg.dims.batch;
  config["seq"] = cfg.dims.seq;
  config["hidden"] = cfg.dims.hidden;
  config["heads"] = cfg.dims.heads;
  config["expansion"] = cfg.dims.expansion;
  config["elem_bytes"] = cfg.dims.elem_bytes;
  config["layers"] = static_cast<std::int64_t>(cfg.layers);
  config["micros"] = static_cast<std::int64_t>(cfg.micros);
  config["max_stages"] = static_cast<std::int64_t>(cfg.max_stages);
  config["straggler_scale"] = cfg.straggler_scale;
  report.root()["config"] = std::move(config);

  obs::JsonValue pareto = obs::JsonValue::array();
  for (const ScoredCandidate& r : results) {
    obs::JsonValue& c = report.add_case(r.cand.label());
    c["scheme"] = scheme_name(r.cand.scheme);
    c["shape"] = grid_of(r.cand).shape_string();
    c["q"] = static_cast<std::int64_t>(r.cand.q);
    c["d"] = static_cast<std::int64_t>(r.cand.d);
    c["stages"] = static_cast<std::int64_t>(r.cand.stages);
    c["zero"] = r.cand.zero;
    c["gpus"] = static_cast<std::int64_t>(r.cand.total_ranks());
    c["step_seconds"] = r.score.step_seconds;
    c["throughput"] =
        r.score.step_seconds > 0.0 ? 1.0 / r.score.step_seconds : 0.0;
    c["fwd_seconds"] = r.score.fwd_seconds;
    c["bwd_seconds"] = r.score.bwd_seconds;
    c["bubble_seconds"] = r.score.bubble_seconds;
    c["opt_seconds"] = r.score.opt_seconds;
    c["peak_bytes"] = r.score.peak_bytes;
    c["weight_bytes"] = r.score.weight_bytes;
    c["opt_state_bytes"] = r.score.opt_state_bytes;
    c["activation_bytes"] = r.score.activation_bytes;
    c["straggler_seconds"] = r.score.straggler_seconds;
    c["straggler_inflation"] = r.score.straggler_inflation;
    c["fwd_stats"] = stats_to_json(r.score.fwd_stats);
    c["bwd_stats"] = stats_to_json(r.score.bwd_stats);
    c["pareto"] = r.pareto;
    if (r.pareto) pareto.push_back(r.cand.label());
  }
  report.root()["pareto"] = std::move(pareto);
  return report.root();
}

RunReport explain_candidate(const AutotuneConfig& cfg,
                            const PlanCandidate& cand, PlanScore* score_out) {
  if (score_out != nullptr) *score_out = score_candidate(cfg, cand);
  const EvalConfig ec = cand.eval_config(cfg);
  comm::World world(cand.grid_ranks(), cfg.spec);
  world.enable_tracing();
  world.enable_metrics();
  world.run([&](comm::Communicator& c) {
    replay_schedule(ec, c, /*backward=*/false);
    replay_schedule(ec, c, /*backward=*/true);
    replay_optimizer(cfg, cand, c);
  });
  return build_run_report(world, cand.label());
}

}  // namespace tsr::perf
