// Serving front-end: SLO-aware continuous batching over the simulated
// cluster.
//
// Sweeps three arrival processes (Poisson, bursty, diurnal) across two
// parallelism schemes (serial 1-rank decode vs a [2,2,1] Tesseract grid) and
// reports the latency/goodput picture a capacity planner cares about: p50,
// p99, goodput (SLO-met completions per sim-second), shed rate and token
// throughput. A straggler row reruns the Tesseract/Poisson cell with rank 0
// slowed 3x under the fault plane — with tracing, metrics and the live
// telemetry stream enabled — and writes the attributed run report
// (REPORT_serving.json/.html) plus the TIMELINE_serving.json stream that
// `tsr_top replay` renders.
//
// Everything is simulated-clock deterministic: the same seed produces
// bit-identical results on every scheduler backend, which this bench
// re-checks on its own workload before writing BENCH_serving.json.
#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/live.hpp"
#include "perf/export.hpp"
#include "perf/run_report.hpp"
#include "runtime/config.hpp"
#include "serve/batcher.hpp"
#include "topology/machine_spec.hpp"

using namespace tsr;
using serve::ArrivalPattern;
using serve::ServingConfig;
using serve::ServingResult;

namespace {

struct SchemeCfg {
  const char* name;
  int nranks;
  int q;
  int d;
};

ServingConfig base_config(ArrivalPattern pattern, const SchemeCfg& s) {
  ServingConfig cfg;
  cfg.model.vocab = 32;
  cfg.model.seq = 32;  // KV capacity; prompt_max + decode_max must fit
  cfg.model.hidden = 32;
  cfg.model.heads = 4;
  cfg.model.layers = 2;
  cfg.q = s.q;
  cfg.d = s.d;
  cfg.slots = 4;
  cfg.queue_depth = 64;
  cfg.workload.pattern = pattern;
  cfg.workload.rate = 160.0;
  cfg.workload.duration = 0.25;
  cfg.workload.slo_latency = 0.05;
  cfg.workload.seed = 1;
  return cfg;
}

ServingResult run_cell(const SchemeCfg& s, const ServingConfig& cfg) {
  comm::World world(s.nranks, topo::MachineSpec::meluxina());
  return serve::run_serving(world, cfg);
}

void fill_case(obs::JsonValue& c, const ServingResult& r) {
  c["offered"] = r.offered;
  c["completed"] = static_cast<std::int64_t>(r.completed.size());
  c["shed_queue_full"] = r.shed.queue_full;
  c["shed_deadline"] = r.shed.deadline_expired;
  c["shed_rate"] = r.shed_rate;
  c["p50_seconds"] = r.p50;
  c["p99_seconds"] = r.p99;
  c["goodput_per_second"] = r.goodput;
  c["makespan_seconds"] = r.makespan;
  c["steps"] = r.steps;
  c["tokens_generated"] = r.tokens_generated;
}

// Full byte-level fingerprint of a result (%a: exact double bits) for the
// same-seed determinism self-check; mirrors the test suite's gate.
std::string result_bytes(const ServingResult& r) {
  char buf[128];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "off=%lld shed=%lld/%lld steps=%lld tok=%lld ",
                static_cast<long long>(r.offered),
                static_cast<long long>(r.shed.queue_full),
                static_cast<long long>(r.shed.deadline_expired),
                static_cast<long long>(r.steps),
                static_cast<long long>(r.tokens_generated));
  out += buf;
  std::snprintf(buf, sizeof(buf), "mk=%a p50=%a p99=%a gp=%a ", r.makespan,
                r.p50, r.p99, r.goodput);
  out += buf;
  for (const serve::CompletionRecord& c : r.completed) {
    std::snprintf(buf, sizeof(buf), "%lld:%a:%d;",
                  static_cast<long long>(c.id), c.latency, c.slo_ok ? 1 : 0);
    out += buf;
  }
  return out;
}

}  // namespace

int main() {
  tsr::config_from_env();
  const SchemeCfg schemes[] = {
      {"serial [1]", 1, 1, 1},
      {"tesseract [2,2,1]", 4, 2, 1},
  };
  const ArrivalPattern patterns[] = {ArrivalPattern::Poisson,
                                     ArrivalPattern::Bursty,
                                     ArrivalPattern::Diurnal};

  perf::BenchReport report("serving");

  std::printf("=== SLO-aware serving: 3 arrival patterns x 2 schemes ===\n");
  std::printf("(rate 160/s for 0.25 sim-s, SLO 50ms, 4 decode slots)\n");
  std::printf("%-18s %-8s %5s %5s %5s %9s %9s %9s %7s\n", "scheme", "pattern",
              "off", "done", "shed", "p50(ms)", "p99(ms)", "goodput/s",
              "tok");
  for (const SchemeCfg& s : schemes) {
    for (ArrivalPattern p : patterns) {
      const ServingConfig cfg = base_config(p, s);
      const ServingResult r = run_cell(s, cfg);
      std::printf("%-18s %-8s %5lld %5lld %5lld %9.3f %9.3f %9.1f %7lld\n",
                  s.name, serve::pattern_name(p),
                  static_cast<long long>(r.offered),
                  static_cast<long long>(r.completed.size()),
                  static_cast<long long>(r.shed.total()), r.p50 * 1e3,
                  r.p99 * 1e3, r.goodput,
                  static_cast<long long>(r.tokens_generated));
      obs::JsonValue& c = report.add_case(std::string(s.name) + " / " +
                                          serve::pattern_name(p));
      fill_case(c, r);
    }
  }

  // Straggler under load: rank 0 of the Tesseract grid 3x slow. The faulted
  // world runs with metrics + tracing + live telemetry on, so the run report
  // attributes the tail amplification to the injected fault and the timeline
  // stream replays in tsr_top.
  std::printf("\n=== Straggler under load (tesseract/poisson, rank 0 3x) ===\n");
  const SchemeCfg& tess = schemes[1];
  const ServingConfig scfg = base_config(ArrivalPattern::Poisson, tess);
  const ServingResult clean = run_cell(tess, scfg);

  comm::World faulted(tess.nranks, topo::MachineSpec::meluxina());
  fault::FaultPlan plan;
  plan.slow_ranks.push_back(fault::SlowRankSpec{0, 3.0});
  faulted.install_fault_plan(plan);
  faulted.enable_metrics();
  faulted.enable_tracing();
  obs::LiveConfig live;
  live.interval = 1e-3;
  live.path = "TIMELINE_serving.json";
  live.label = "serving straggler";
  faulted.enable_live(live);
  const ServingResult slow = serve::run_serving(faulted, scfg);

  const double p99_amp = clean.p99 > 0.0 ? slow.p99 / clean.p99 : 0.0;
  const double mk_amp =
      clean.makespan > 0.0 ? slow.makespan / clean.makespan : 0.0;
  std::printf("%-10s p99 %9.3fms  makespan %9.3fms  goodput %9.1f/s\n",
              "clean", clean.p99 * 1e3, clean.makespan * 1e3, clean.goodput);
  std::printf("%-10s p99 %9.3fms  makespan %9.3fms  goodput %9.1f/s\n",
              "straggler", slow.p99 * 1e3, slow.makespan * 1e3, slow.goodput);
  std::printf("tail amplification: p99 %.3fx, makespan %.3fx\n", p99_amp,
              mk_amp);
  obs::JsonValue& sc = report.add_case("straggler: tesseract / poisson");
  fill_case(sc, slow);
  sc["clean_p99_seconds"] = clean.p99;
  sc["clean_makespan_seconds"] = clean.makespan;
  sc["p99_amplification"] = p99_amp;
  sc["makespan_amplification"] = mk_amp;

  if (!perf::write_run_report(faulted, "serving")) {
    std::fprintf(stderr, "failed to write REPORT_serving\n");
    return 1;
  }
  std::printf("wrote REPORT_serving.json / REPORT_serving.html / %s\n",
              live.path.c_str());

  // Same-seed determinism self-check on the bursty/Tesseract cell: two fresh
  // worlds must produce byte-identical results, a different workload seed a
  // different stream.
  ServingConfig dcfg = base_config(ArrivalPattern::Bursty, tess);
  const std::string run_a = result_bytes(run_cell(tess, dcfg));
  const std::string run_b = result_bytes(run_cell(tess, dcfg));
  dcfg.workload.seed = 7;
  const std::string run_c = result_bytes(run_cell(tess, dcfg));
  const bool reproducible = run_a == run_b;
  const bool seed_sensitive = run_a != run_c;
  std::printf("\nsame-seed reproducible: %s; seed-sensitive: %s\n",
              reproducible ? "yes" : "NO (BUG)",
              seed_sensitive ? "yes" : "NO (BUG)");
  obs::JsonValue& det = report.add_case("determinism: same-seed byte diff");
  det["reproducible"] = reproducible;
  det["seed_sensitive"] = seed_sensitive;

  const char* out = "BENCH_serving.json";
  if (report.write(out)) {
    std::printf("wrote %s\n", out);
  } else {
    std::fprintf(stderr, "failed to write %s\n", out);
    return 1;
  }
  return reproducible && seed_sensitive ? 0 : 1;
}
