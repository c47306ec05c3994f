// The auto-parallelization search (perf/autotune.hpp) swept over the GPU
// budgets the paper's tables use, plus the interconnect question the planner
// exists to answer: on 64 GPUs whose inter-node fabric is 4x slower than
// MeluXina's, which mapping wins and why?
//
// Every number is phantom-replayed — no real GEMM runs — so the full
// three-search sweep costs well under a second and is bit-reproducible on
// every scheduler backend. The bench re-checks that contract itself: the
// 64-GPU search runs twice and the two serialized documents must be
// byte-identical, the Pareto front must be non-empty and consistent with a
// recomputed dominance pass, and any violation exits nonzero (the CI gate).
//
// Output: paper-style text tables plus BENCH_autotune.json (64 GPUs,
// standard fabric — the same document `tsr_plan plan --gpus 64` writes),
// BENCH_autotune_16.json and BENCH_autotune_slow.json (the degraded-fabric
// search behind the worked example in docs/planning.md).
#include <cstdio>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "perf/autotune.hpp"
#include "runtime/config.hpp"

using namespace tsr;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_autotune: SELF-CHECK FAILED: %s\n", what);
    ++g_failures;
  }
}

void print_table(const char* title,
                 const std::vector<perf::ScoredCandidate>& results) {
  std::printf("=== %s ===\n", title);
  std::printf("  %-28s %10s %10s %10s %14s %9s\n", "candidate", "step(s)",
              "fwd(s)", "bwd(s)", "peak(MiB)", "strag(x)");
  for (const perf::ScoredCandidate& r : results) {
    std::printf("%c %-28s %10.6f %10.6f %10.6f %14.1f %9.3f\n",
                r.pareto ? '*' : ' ', r.cand.label().c_str(),
                r.score.step_seconds, r.score.fwd_seconds, r.score.bwd_seconds,
                r.score.peak_bytes / (1024.0 * 1024.0),
                r.score.straggler_inflation);
  }
  std::printf("(* = Pareto front over step time, peak bytes, straggler "
              "inflation)\n\n");
}

/// Runs one search, prints it, verifies the Pareto invariants and writes the
/// serialized document to `path`.
std::vector<perf::ScoredCandidate> run_search(const char* title,
                                              const perf::AutotuneConfig& cfg,
                                              const char* path) {
  const std::vector<perf::ScoredCandidate> results = perf::autotune(cfg);
  print_table(title, results);

  expect(!results.empty(), "candidate set is empty");
  std::size_t front = 0;
  for (const perf::ScoredCandidate& r : results) front += r.pareto ? 1 : 0;
  expect(front > 0, "Pareto front is empty");

  // Recompute dominance from the scores and compare against the flags.
  std::vector<std::array<double, 3>> pts;
  for (const perf::ScoredCandidate& r : results) {
    pts.push_back({r.score.step_seconds, r.score.peak_bytes,
                   r.score.straggler_inflation});
  }
  const std::vector<bool> recomputed = perf::pareto_front(pts);
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect(results[i].pareto == recomputed[i],
           "stored Pareto flag disagrees with recomputed dominance");
  }

  const obs::JsonValue doc = perf::autotune_to_json(cfg, results);
  expect(doc.find("pareto") != nullptr, "document lacks the pareto list");
  if (!obs::write_json_file(path, doc)) {
    std::fprintf(stderr, "bench_autotune: cannot write %s\n", path);
    ++g_failures;
  } else {
    std::printf("wrote %s\n\n", path);
  }
  return results;
}

}  // namespace

int main() {
  perf::AutotuneConfig base = perf::AutotuneConfig::from(config_from_env());

  // 16 GPUs: the paper's Table 1 budget.
  perf::AutotuneConfig cfg16 = base;
  cfg16.gpus = 16;
  run_search("Search: 16 GPUs, MeluXina fabric", cfg16,
             "BENCH_autotune_16.json");

  // 64 GPUs: the headline budget. This document is the cross-backend
  // determinism artifact: CI regenerates it under every scheduler backend
  // and diffs the results with `tsr_plan diff`.
  perf::AutotuneConfig cfg64 = base;
  cfg64.gpus = 64;
  const std::vector<perf::ScoredCandidate> run_a = run_search(
      "Search: 64 GPUs, MeluXina fabric", cfg64, "BENCH_autotune.json");

  // Same 64 GPUs behind an inter-node fabric with 4x less bandwidth — the
  // worked example of docs/planning.md. Slower links punish the schemes
  // whose collectives cross nodes with full activations.
  perf::AutotuneConfig slow = cfg64;
  slow.spec.inter_node.beta *= 4.0;
  const std::vector<perf::ScoredCandidate> slow_res = run_search(
      "Search: 64 GPUs, inter-node bandwidth / 4", slow,
      "BENCH_autotune_slow.json");

  // Winners head-to-head, for the text table CI logs show.
  const auto best = [](const std::vector<perf::ScoredCandidate>& rs) {
    std::size_t arg = 0;
    for (std::size_t i = 1; i < rs.size(); ++i) {
      if (rs[i].score.step_seconds < rs[arg].score.step_seconds) arg = i;
    }
    return rs[arg];
  };
  if (!run_a.empty() && !slow_res.empty()) {
    const perf::ScoredCandidate fast = best(run_a);
    const perf::ScoredCandidate deg = best(slow_res);
    std::printf("fastest @64, standard fabric : %s (%.6f s/step)\n",
                fast.cand.label().c_str(), fast.score.step_seconds);
    std::printf("fastest @64, 4x slower fabric: %s (%.6f s/step)\n\n",
                deg.cand.label().c_str(), deg.score.step_seconds);
  }

  // Bit-reproducibility self-check: a fresh identical search must serialize
  // to the identical document (same candidate order, same doubles, same
  // Pareto set). This is the same-seed gate CI relies on.
  const std::vector<perf::ScoredCandidate> run_b = perf::autotune(cfg64);
  const std::string dump_a = perf::autotune_to_json(cfg64, run_a).dump(2);
  const std::string dump_b = perf::autotune_to_json(cfg64, run_b).dump(2);
  expect(dump_a == dump_b, "repeated 64-GPU search is not byte-identical");
  std::printf("same-config repeat byte-identical: %s\n",
              dump_a == dump_b ? "yes" : "NO (BUG)");

  if (g_failures > 0) {
    std::fprintf(stderr, "bench_autotune: %d self-check failure(s)\n",
                 g_failures);
    return 1;
  }
  return 0;
}
