// tsr_plan: the auto-parallelization planner front-end (perf/autotune.hpp).
//
//   tsr_plan plan [--gpus P] [--layers N] [--micros M] [--max-stages S]
//                 [--straggler-scale F] [--batch B] [--seq L] [--hidden H]
//                 [--heads N] [--out FILE]
//       Enumerates every legal mapping of the model onto P GPUs (Tesseract
//       [q,q,d] grids, Megatron-LM / Optimus baselines, pipeline stages,
//       ZeRO-1), scores each via phantom replay, prints the candidate table
//       sorted by predicted step time with the Pareto front starred, and
//       writes the full BENCH_autotune.json document (schema:
//       docs/planning.md). Defaults come from the TESSERACT_PLAN_*
//       environment; flags win over the environment.
//   tsr_plan explain (--megatron P | --optimus Q | --tesseract Q D)
//                    [--stages S] [--zero] [model flags] [--out FILE]
//       Scores ONE candidate and prints its full cost breakdown plus the
//       per-rank run report (the same compute/wire/wait/idle attribution and
//       collective rollups tsr_report prints) from a traced replay of one
//       training step. --out writes the report document as JSON.
//   tsr_plan diff <a.json> <b.json> [--threshold F]
//       Field-by-field comparison of two planner documents, ignoring the
//       environment envelope — the CI gate proving the search is
//       bit-reproducible across scheduler backends.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "perf/autotune.hpp"
#include "perf/run_report.hpp"
#include "runtime/config.hpp"

using namespace tsr;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: tsr_plan <subcommand>\n"
      "  plan [--gpus P] [--layers N] [--micros M] [--max-stages S]\n"
      "       [--straggler-scale F] [--batch B] [--seq L] [--hidden H]\n"
      "       [--heads N] [--out FILE]\n"
      "  explain (--megatron P | --optimus Q | --tesseract Q D)\n"
      "          [--stages S] [--zero] [model flags] [--out FILE]\n"
      "  diff <a.json> <b.json> [--threshold F]\n");
  return 2;
}

bool load_json(const char* path, obs::JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "tsr_plan: cannot open %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  *out = obs::json_parse(ss.str(), &err);
  if (!err.empty()) {
    std::fprintf(stderr, "tsr_plan: %s: %s\n", path, err.c_str());
    return false;
  }
  return true;
}

bool parse_int_flag(const char* flag, const char* value, int* out) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || v < 1) {
    std::fprintf(stderr, "tsr_plan: %s wants a positive integer, got %s\n",
                 flag, value);
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool parse_i64_flag(const char* flag, const char* value, std::int64_t* out) {
  int v = 0;
  if (!parse_int_flag(flag, value, &v)) return false;
  *out = v;
  return true;
}

/// Shared model / search-knob flags of `plan` and `explain`. Returns the
/// number of argv slots consumed (0 = not a model flag, -1 = parse error).
int parse_model_flag(perf::AutotuneConfig* cfg, int argc, char** argv, int i) {
  const char* a = argv[i];
  const bool has_value = i + 1 < argc;
  auto want = [&](const char* name) {
    return std::strcmp(a, name) == 0 && has_value;
  };
  if (want("--gpus")) {
    return parse_int_flag(a, argv[i + 1], &cfg->gpus) ? 2 : -1;
  }
  if (want("--layers")) {
    return parse_int_flag(a, argv[i + 1], &cfg->layers) ? 2 : -1;
  }
  if (want("--micros")) {
    return parse_int_flag(a, argv[i + 1], &cfg->micros) ? 2 : -1;
  }
  if (want("--max-stages")) {
    return parse_int_flag(a, argv[i + 1], &cfg->max_stages) ? 2 : -1;
  }
  if (want("--straggler-scale")) {
    cfg->straggler_scale = std::strtod(argv[i + 1], nullptr);
    if (cfg->straggler_scale < 1.0) {
      std::fprintf(stderr, "tsr_plan: --straggler-scale wants >= 1\n");
      return -1;
    }
    return 2;
  }
  if (want("--batch")) {
    return parse_i64_flag(a, argv[i + 1], &cfg->dims.batch) ? 2 : -1;
  }
  if (want("--seq")) {
    return parse_i64_flag(a, argv[i + 1], &cfg->dims.seq) ? 2 : -1;
  }
  if (want("--hidden")) {
    return parse_i64_flag(a, argv[i + 1], &cfg->dims.hidden) ? 2 : -1;
  }
  if (want("--heads")) {
    return parse_i64_flag(a, argv[i + 1], &cfg->dims.heads) ? 2 : -1;
  }
  return 0;
}

std::string human_bytes(double bytes) {
  char buf[32];
  if (bytes >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  bytes / (1024.0 * 1024.0 * 1024.0));
  } else if (bytes >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", bytes / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

void print_score(const perf::PlanCandidate& cand, const perf::PlanScore& s) {
  std::printf("candidate      %s  (%d GPUs)\n", cand.label().c_str(),
              cand.total_ranks());
  std::printf("  step         %.6f s   (%.3f steps/s)\n", s.step_seconds,
              s.step_seconds > 0 ? 1.0 / s.step_seconds : 0.0);
  std::printf("    forward    %.6f s\n", s.fwd_seconds);
  std::printf("    backward   %.6f s\n", s.bwd_seconds);
  std::printf("    bubble     %.6f s\n", s.bubble_seconds);
  std::printf("    optimizer  %.6f s\n", s.opt_seconds);
  std::printf("  peak memory  %s / rank\n", human_bytes(s.peak_bytes).c_str());
  std::printf("    weights    %s   gradients %s\n",
              human_bytes(s.weight_bytes).c_str(),
              human_bytes(s.weight_bytes).c_str());
  std::printf("    opt state  %s   activations %s\n",
              human_bytes(s.opt_state_bytes).c_str(),
              human_bytes(s.activation_bytes).c_str());
  std::printf("  straggler    %.6f s under rank-0 slowdown (x%.3f)\n",
              s.straggler_seconds, s.straggler_inflation);
  std::printf("  fwd comm     %lld msgs, %lld wire bytes\n",
              static_cast<long long>(s.fwd_stats.msgs_sent),
              static_cast<long long>(s.fwd_stats.bytes_sent));
  std::printf("  bwd comm     %lld msgs, %lld wire bytes\n",
              static_cast<long long>(s.bwd_stats.msgs_sent),
              static_cast<long long>(s.bwd_stats.bytes_sent));
}

int cmd_plan(int argc, char** argv) {
  perf::AutotuneConfig cfg = perf::AutotuneConfig::from(run_config());
  std::string out_path = "BENCH_autotune.json";
  for (int i = 0; i < argc;) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[i + 1];
      i += 2;
      continue;
    }
    const int used = parse_model_flag(&cfg, argc, argv, i);
    if (used <= 0) return used < 0 ? 1 : usage();
    i += used;
  }

  const std::vector<perf::ScoredCandidate> results = perf::autotune(cfg);
  if (results.empty()) {
    std::fprintf(stderr,
                 "tsr_plan: no legal mapping of hidden=%lld heads=%lld onto "
                 "%d GPUs\n",
                 static_cast<long long>(cfg.dims.hidden),
                 static_cast<long long>(cfg.dims.heads), cfg.gpus);
    return 1;
  }

  std::vector<std::size_t> order(results.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return results[a].score.step_seconds <
                            results[b].score.step_seconds;
                   });

  std::printf(
      "%d GPUs, %d layers, batch %lld x seq %lld x hidden %lld (%lld heads)\n",
      cfg.gpus, cfg.layers, static_cast<long long>(cfg.dims.batch),
      static_cast<long long>(cfg.dims.seq),
      static_cast<long long>(cfg.dims.hidden),
      static_cast<long long>(cfg.dims.heads));
  std::printf("%zu candidates; * = Pareto front "
              "(step time, peak bytes, straggler inflation)\n\n",
              results.size());
  std::printf("  %-28s %10s %10s %10s %12s %9s\n", "candidate", "step(s)",
              "fwd(s)", "bwd(s)", "peak/rank", "strag(x)");
  for (std::size_t idx : order) {
    const perf::ScoredCandidate& r = results[idx];
    std::printf("%c %-28s %10.6f %10.6f %10.6f %12s %9.3f\n",
                r.pareto ? '*' : ' ', r.cand.label().c_str(),
                r.score.step_seconds, r.score.fwd_seconds, r.score.bwd_seconds,
                human_bytes(r.score.peak_bytes).c_str(),
                r.score.straggler_inflation);
  }

  const obs::JsonValue doc = perf::autotune_to_json(cfg, results);
  if (!obs::write_json_file(out_path, doc)) {
    std::fprintf(stderr, "tsr_plan: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

int cmd_explain(int argc, char** argv) {
  perf::AutotuneConfig cfg = perf::AutotuneConfig::from(run_config());
  perf::PlanCandidate cand;
  bool have_scheme = false;
  std::string out_path;
  for (int i = 0; i < argc;) {
    if (std::strcmp(argv[i], "--megatron") == 0 && i + 1 < argc) {
      cand.scheme = perf::Scheme::Megatron1D;
      if (!parse_int_flag("--megatron", argv[i + 1], &cand.p)) return 1;
      have_scheme = true;
      i += 2;
    } else if (std::strcmp(argv[i], "--optimus") == 0 && i + 1 < argc) {
      cand.scheme = perf::Scheme::Optimus2D;
      if (!parse_int_flag("--optimus", argv[i + 1], &cand.q)) return 1;
      have_scheme = true;
      i += 2;
    } else if (std::strcmp(argv[i], "--tesseract") == 0 && i + 2 < argc) {
      cand.scheme = perf::Scheme::Tesseract;
      if (!parse_int_flag("--tesseract", argv[i + 1], &cand.q) ||
          !parse_int_flag("--tesseract", argv[i + 2], &cand.d)) {
        return 1;
      }
      have_scheme = true;
      i += 3;
    } else if (std::strcmp(argv[i], "--stages") == 0 && i + 1 < argc) {
      if (!parse_int_flag("--stages", argv[i + 1], &cand.stages)) return 1;
      i += 2;
    } else if (std::strcmp(argv[i], "--zero") == 0) {
      cand.zero = true;
      i += 1;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[i + 1];
      i += 2;
    } else {
      const int used = parse_model_flag(&cfg, argc, argv, i);
      if (used <= 0) return used < 0 ? 1 : usage();
      i += used;
    }
  }
  if (!have_scheme) return usage();
  cfg.gpus = cand.total_ranks();
  if (cfg.layers % cand.stages != 0) {
    std::fprintf(stderr, "tsr_plan: %d layers do not split into %d stages\n",
                 cfg.layers, cand.stages);
    return 1;
  }

  perf::PlanScore score;
  const perf::RunReport rep = perf::explain_candidate(cfg, cand, &score);
  print_score(cand, score);
  std::printf("\n%s", rep.to_string().c_str());
  if (!out_path.empty()) {
    if (!obs::write_json_file(out_path, rep.to_json())) {
      std::fprintf(stderr, "tsr_plan: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc < 2) return usage();
  double threshold = 0.0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::strtod(argv[++i], nullptr);
    } else {
      return usage();
    }
  }
  obs::JsonValue a, b;
  if (!load_json(argv[0], &a) || !load_json(argv[1], &b)) return 1;
  const perf::ReportDiffResult res = perf::diff_run_reports(a, b, threshold);
  std::printf("%s", res.to_string().c_str());
  if (res.failed()) {
    std::fprintf(stderr, "tsr_plan: diff FAILED (threshold %g)\n", threshold);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    tsr::config_from_env();
    if (cmd == "plan") return cmd_plan(argc - 2, argv + 2);
    if (cmd == "explain") return cmd_explain(argc - 2, argv + 2);
    if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsr_plan: %s\n", e.what());
    return 1;
  }
  return usage();
}
