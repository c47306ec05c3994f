// tsr_report: inspect, render and regression-gate Tesseract run reports.
//
//   tsr_report gen <name> [--seed S] [--straggler R:SCALE]
//       Runs the reference workload — one Tesseract [2,2,2] Transformer-layer
//       forward + backward on 8 simulated ranks — with tracing, metrics and
//       live telemetry on, and writes REPORT_<name>.json + REPORT_<name>.html
//       + TIMELINE_<name>.json into the current directory. The run is
//       deterministic: two invocations with the same seed produce reports
//       and timelines that `diff` clean, on any scheduler backend.
//   tsr_report summarize <report.json>
//       Prints the human-readable summary of a report.
//   tsr_report html <report.json> <out.html>
//       Renders a report document to the self-contained HTML page.
//   tsr_report diff <a.json> <b.json> [--threshold F]
//       Compares two reports field by field, ignoring the environment
//       envelope. Exits nonzero when any numeric field moved by more than
//       the relative threshold (default 0: equality up to float-accumulation
//       noise) or the documents differ structurally. This is the CI
//       determinism / regression gate.
//   tsr_report flame <name> [--seed S] [--straggler R:SCALE]
//       Re-runs the reference workload and writes FLAME_<name>.folded: the
//       per-rank span tree collapsed into flamegraph folded stacks (counts
//       in simulated seconds). `gen` writes the same file alongside its
//       report, so `flame` exists for regenerating one without the
//       report/timeline churn. Byte-identical across scheduler backends.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "fault/fault.hpp"
#include "obs/expect.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "parallel/dist.hpp"
#include "parallel/tesseract_transformer.hpp"
#include "perf/flame.hpp"
#include "perf/run_report.hpp"
#include "runtime/config.hpp"
#include "tensor/init.hpp"

using namespace tsr;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tsr_report <subcommand>\n"
               "  gen <name> [--seed S] [--straggler R:SCALE]\n"
               "  summarize <report.json>\n"
               "  html <report.json> <out.html>\n"
               "  diff <a.json> <b.json> [--threshold F]\n"
               "  flame <name> [--seed S] [--straggler R:SCALE]\n");
  return 2;
}

bool load_json(const char* path, obs::JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "tsr_report: cannot open %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  *out = obs::json_parse(ss.str(), &err);
  if (!err.empty()) {
    std::fprintf(stderr, "tsr_report: %s: %s\n", path, err.c_str());
    return false;
  }
  return true;
}

struct GenArgs {
  std::string name;
  std::uint64_t seed = 7;
  int straggler_rank = -2;
  double straggler_scale = 1.0;
};

bool parse_gen_args(int argc, char** argv, GenArgs* out) {
  if (argc < 1) return false;
  out->name = argv[0];
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      out->seed =
          static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--straggler") == 0 && i + 1 < argc) {
      const char* spec = argv[++i];
      char* colon = nullptr;
      out->straggler_rank = static_cast<int>(std::strtol(spec, &colon, 10));
      if (colon == nullptr || *colon != ':') return false;
      out->straggler_scale = std::strtod(colon + 1, nullptr);
    } else {
      return false;
    }
  }
  return true;
}

// The reference workload behind `gen` and `flame`: one Tesseract [2,2,2]
// Transformer-layer forward + backward on 8 ranks — small enough to run in
// well under a second, rich enough that the report has nonzero compute,
// wire and wait buckets on every rank. `monitor` (with the live plane) is
// only attached when `live` is set; tracing and metrics are always on.
std::unique_ptr<comm::World> run_reference(const GenArgs& args, bool live,
                                           obs::ExpectationMonitor* monitor) {
  constexpr std::int64_t kBatch = 4, kSeq = 8, kHidden = 64, kHeads = 4;
  Rng data_rng(args.seed);
  Tensor x = random_normal({kBatch, kSeq, kHidden}, data_rng);
  Tensor dy = random_normal({kBatch, kSeq, kHidden}, data_rng);

  auto world =
      std::make_unique<comm::World>(8, topo::MachineSpec::meluxina());
  world->enable_tracing();
  world->enable_metrics();
  if (args.straggler_rank >= -1) {
    fault::FaultPlan plan;
    plan.slow_ranks.push_back({args.straggler_rank, args.straggler_scale});
    world->install_fault_plan(plan);
  }
  if (live) {
    obs::LiveConfig live_cfg;
    live_cfg.interval = 2e-5;  // workload spans ~1ms: tens of windows
    live_cfg.label = args.name;
    live_cfg.path = "TIMELINE_" + args.name + ".json";
    world->enable_live(live_cfg);
    world->live()->set_monitor(monitor);
  }
  world->run([&](comm::Communicator& c) {
    par::TesseractContext ctx(c, 2, 2);
    Rng wrng(args.seed + 1);
    par::TesseractTransformerLayer layer(ctx, kHidden, kHeads, wrng);
    Tensor xl = par::distribute_activation(ctx.comms(), x);
    Tensor dyl = par::distribute_activation(ctx.comms(), dy);
    (void)layer.forward(xl);
    (void)layer.backward(dyl);
  });
  if (live) world->finish_live();
  return world;
}

int cmd_gen(int argc, char** argv) {
  GenArgs args;
  if (!parse_gen_args(argc, argv, &args)) return usage();
  // Peer-relative drift detection only (no cost-model profile for this
  // hand-built workload): flags the --straggler rank, silent otherwise.
  obs::ExpectationMonitor monitor(obs::ExpectationProfile{}, obs::DriftConfig{},
                                  8);
  const auto world = run_reference(args, /*live=*/true, &monitor);
  const std::string& name = args.name;

  if (!perf::write_run_report(*world, name)) {
    std::fprintf(stderr, "tsr_report: failed to write REPORT_%s.{json,html}\n",
                 name.c_str());
    return 1;
  }
  if (!perf::write_flamegraph(*world, "FLAME_" + name + ".folded")) {
    std::fprintf(stderr, "tsr_report: failed to write FLAME_%s.folded\n",
                 name.c_str());
    return 1;
  }
  const perf::RunReport rep = perf::build_run_report(*world, name);
  std::printf("%s", rep.to_string().c_str());
  std::printf(
      "\nwrote REPORT_%s.json, REPORT_%s.html, TIMELINE_%s.json and "
      "FLAME_%s.folded\n",
      name.c_str(), name.c_str(), name.c_str(), name.c_str());
  return 0;
}

int cmd_flame(int argc, char** argv) {
  GenArgs args;
  if (!parse_gen_args(argc, argv, &args)) return usage();
  const auto world = run_reference(args, /*live=*/false, nullptr);
  const std::string path = "FLAME_" + args.name + ".folded";
  if (!perf::write_flamegraph(*world, path)) {
    std::fprintf(stderr, "tsr_report: failed to write %s\n", path.c_str());
    return 1;
  }
  const std::vector<perf::FoldedLine> lines = perf::fold_traces(*world);
  std::printf("wrote %s (%zu stacks over %d ranks)\n", path.c_str(),
              lines.size(), world->size());
  return 0;
}

int cmd_summarize(int argc, char** argv) {
  if (argc != 1) return usage();
  obs::JsonValue doc;
  if (!load_json(argv[0], &doc)) return 1;
  std::printf("%s", perf::RunReport::run_report_summary(doc).c_str());
  return 0;
}

int cmd_html(int argc, char** argv) {
  if (argc != 2) return usage();
  obs::JsonValue doc;
  if (!load_json(argv[0], &doc)) return 1;
  std::ofstream out(argv[1]);
  if (!out) {
    std::fprintf(stderr, "tsr_report: cannot write %s\n", argv[1]);
    return 1;
  }
  out << perf::RunReport::run_report_html(doc);
  std::printf("wrote %s\n", argv[1]);
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
    std::fprintf(stderr, "tsr_report: diff FAILED (threshold %g)\n", threshold);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tsr::config_from_env();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "gen") return cmd_gen(argc - 2, argv + 2);
  if (cmd == "summarize") return cmd_summarize(argc - 2, argv + 2);
  if (cmd == "html") return cmd_html(argc - 2, argv + 2);
  if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
  if (cmd == "flame") return cmd_flame(argc - 2, argv + 2);
  return usage();
}
