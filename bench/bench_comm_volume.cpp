// Reproduces the communication-volume claims of Sections 1 and 3.1:
//   * analytic transmission counts (Cannon 2p^{3/2}-2p^{1/2},
//     2.5-D 2p-2p^{1/3}, Tesseract 2p^{2/3}) with the p = 64 ratios
//     31.5x / 3.75x quoted in the introduction;
//   * MEASURED bytes moved by the actual implementations of Cannon, SUMMA,
//     2.5-D and Tesseract for one C = A*B at equal processor count.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "comm/communicator.hpp"
#include "pdgemm/cannon.hpp"
#include "pdgemm/solomonik25d.hpp"
#include "pdgemm/summa.hpp"
#include "pdgemm/tesseract_mm.hpp"
#include "perf/critical_path.hpp"
#include "perf/export.hpp"
#include "perf/run_report.hpp"
#include "perf/formulas.hpp"
#include "runtime/config.hpp"
#include "tensor/init.hpp"

using namespace tsr;

namespace {

struct Measured {
  std::int64_t bytes = 0;
  std::int64_t msgs = 0;
  double sim_us = 0.0;
};

Measured finish(comm::World& world) {
  return Measured{world.total_stats().bytes_sent, world.total_stats().msgs_sent,
                  world.max_sim_time() * 1e6};
}

Measured measure_tesseract(int q, int d, const Tensor& a, const Tensor& b) {
  comm::World world(q * q * d, topo::MachineSpec::meluxina());
  world.run([&](comm::Communicator& c) {
    pdg::TesseractComms tc = pdg::TesseractComms::create(c, q, d);
    Tensor ab = pdg::distribute_a_layout(tc, a);  // local slicing, no comm
    Tensor bb = pdg::distribute_b_layout(tc, b);
    (void)pdg::tesseract_ab_local(tc, ab, bb);
  });
  return finish(world);
}

Measured measure_25d(int q, int d, const Tensor& a, const Tensor& b) {
  comm::World world(q * q * d, topo::MachineSpec::meluxina());
  world.run([&](comm::Communicator& c) {
    pdg::TesseractComms tc = pdg::TesseractComms::create(c, q, d);
    Tensor ab = pdg::block_of(a, q, q, tc.i, tc.j);
    Tensor bb = pdg::block_of(b, q, q, tc.i, tc.j);
    (void)pdg::solomonik25d_local(tc, std::move(ab), std::move(bb));
  });
  return finish(world);
}

Measured measure_cannon(int q, const Tensor& a, const Tensor& b) {
  comm::World world(q * q, topo::MachineSpec::meluxina());
  world.run([&](comm::Communicator& c) {
    pdg::Grid2DComms g = pdg::Grid2DComms::create(c, q);
    Tensor ab = pdg::block_of(a, q, q, g.i, g.j);
    Tensor bb = pdg::block_of(b, q, q, g.i, g.j);
    (void)pdg::cannon_local(g, std::move(ab), std::move(bb));
  });
  return finish(world);
}

Measured measure_summa(int q, const Tensor& a, const Tensor& b) {
  comm::World world(q * q, topo::MachineSpec::meluxina());
  world.run([&](comm::Communicator& c) {
    pdg::Grid2DComms g = pdg::Grid2DComms::create(c, q);
    Tensor ab = pdg::block_of(a, q, q, g.i, g.j);
    Tensor bb = pdg::block_of(b, q, q, g.i, g.j);
    (void)pdg::summa_ab_local(g, ab, bb);
  });
  return finish(world);
}

// Depth-reduction volume of Tesseract's A^T*B (the backward-pass shape whose
// B' all-reduce the bf16 compression targets), with the collective's own
// byte accounting split out from the total.
struct DepthMeasured {
  std::int64_t total_bytes = 0;
  std::int64_t depth_bytes = 0;
  std::int64_t depth_calls = 0;
  double sim_us = 0.0;
};

DepthMeasured measure_atb_depth(int q, int d, bool compressed) {
  const bool configured = run_config().compress_depth;
  run_config().compress_depth = compressed;
  const std::int64_t rows = 1536, inner = 192, cols = 192;
  comm::World world(q * q * d, topo::MachineSpec::meluxina());
  world.run([&](comm::Communicator& c) {
    pdg::TesseractComms tc = pdg::TesseractComms::create(c, q, d);
    Tensor a({rows / (q * d), inner / q});
    Tensor b({rows / (q * d), cols / q});
    a.fill(0.25f + 0.5f * static_cast<float>(tc.k));
    b.fill(0.5f);
    (void)pdg::tesseract_atb_local(tc, a, b);
  });
  run_config().compress_depth = configured;
  DepthMeasured m;
  const comm::CommStats total = world.total_stats();
  m.total_bytes = total.bytes_sent;
  m.sim_us = world.max_sim_time() * 1e6;
  const auto it = total.collectives.find(compressed ? "all_reduce_compressed"
                                                    : "all_reduce");
  if (it != total.collectives.end()) {
    m.depth_bytes = it->second.bytes;
    m.depth_calls = it->second.calls;
  }
  return m;
}

}  // namespace

int main() {
  tsr::config_from_env();
  std::printf("=== Analytic transmission counts (Section 3.1) ===\n");
  std::printf("%8s %14s %14s %14s %12s %12s\n", "p", "Cannon", "2.5-D",
              "Tesseract", "Cannon/Tess", "2.5D/Tess");
  for (double p : {8.0, 27.0, 64.0, 125.0, 216.0, 512.0}) {
    const double ca = perf::cannon_transmissions(p);
    const double d25 = perf::d25_transmissions(p);
    const double te = perf::tesseract_transmissions(p);
    std::printf("%8.0f %14.1f %14.1f %14.1f %12.2f %12.2f\n", p, ca, d25, te,
                ca / te, d25 / te);
  }
  std::printf("\nPaper (introduction, p = 64): Cannon/Tesseract = 31.5x,"
              " 2.5D/Tesseract = 3.75x\n");

  std::printf("\n=== Measured wire bytes for one C = A*B (n = 96) ===\n");
  Rng rng(1);
  Tensor a = random_normal({96, 96}, rng);
  Tensor b = random_normal({96, 96}, rng);

  struct Row {
    const char* name;
    int ranks;
    Measured m;
  };
  Row rows[] = {
      {"Cannon   [2,2]    (p=4)", 4, measure_cannon(2, a, b)},
      {"SUMMA    [2,2]    (p=4)", 4, measure_summa(2, a, b)},
      {"Cannon   [4,4]    (p=16)", 16, measure_cannon(4, a, b)},
      {"SUMMA    [4,4]    (p=16)", 16, measure_summa(4, a, b)},
      {"2.5-D    [2,2,2]  (p=8)", 8, measure_25d(2, 2, a, b)},
      {"Tesseract[2,2,2]  (p=8)", 8, measure_tesseract(2, 2, a, b)},
      {"2.5-D    [4,4,2]  (p=32)", 32, measure_25d(4, 2, a, b)},
      {"Tesseract[4,4,2]  (p=32)", 32, measure_tesseract(4, 2, a, b)},
      {"2.5-D    [4,4,4]  (p=64)", 64, measure_25d(4, 4, a, b)},
      {"Tesseract[4,4,4]  (p=64)", 64, measure_tesseract(4, 4, a, b)},
  };
  std::printf("%-28s %8s %12s %10s %12s\n", "algorithm", "ranks", "bytes",
              "messages", "sim time us");
  for (const Row& r : rows) {
    std::printf("%-28s %8d %12lld %10lld %12.1f\n", r.name, r.ranks,
                static_cast<long long>(r.m.bytes),
                static_cast<long long>(r.m.msgs), r.m.sim_us);
  }

  // The deep-learning case the paper targets: A is a tall activation matrix
  // (rows = batch * seq >> hidden). 2.5-D must broadcast the whole of A
  // across depth and reduce the equally-tall C back; Tesseract gives each
  // depth layer its own row slice and never moves A or C between layers.
  std::printf("\n=== Tall activations: A[3072, 96] x B[96, 96] ===\n");
  Tensor a_tall = random_normal({3072, 96}, rng);
  Row tall[] = {
      {"2.5-D    [2,2,2]  (p=8)", 8, measure_25d(2, 2, a_tall, b)},
      {"Tesseract[2,2,2]  (p=8)", 8, measure_tesseract(2, 2, a_tall, b)},
      {"2.5-D    [4,4,4]  (p=64)", 64, measure_25d(4, 4, a_tall, b)},
      {"Tesseract[4,4,4]  (p=64)", 64, measure_tesseract(4, 4, a_tall, b)},
  };
  std::printf("%-28s %8s %12s %10s %12s\n", "algorithm", "ranks", "bytes",
              "messages", "sim time us");
  for (const Row& r : tall) {
    std::printf("%-28s %8d %12lld %10lld %12.1f\n", r.name, r.ranks,
                static_cast<long long>(r.m.bytes),
                static_cast<long long>(r.m.msgs), r.m.sim_us);
  }
  std::printf(
      "\nOn square matrices 2.5-D is competitive (fewer, larger shift steps).\n"
      "On the tall activation matrices of Transformer training — the paper's\n"
      "workload — Tesseract moves a fraction of 2.5-D's bytes because A and C\n"
      "never cross the depth dimension; this is the paper's Section 3.1\n"
      "argument, measured.\n");

  // The bf16-compressed depth all-reduce (TESSERACT_COMPRESS_DEPTH) on the
  // backward-pass A^T*B: the B' reduction is the only part that changes, so
  // its collective bytes halve while everything else stays put.
  std::printf("\n=== Compressed depth all-reduce, A^T*B [1536,192]x[1536,192] ===\n");
  struct DepthRow {
    const char* name;
    int q, d;
    bool compressed;
    DepthMeasured m;
  };
  DepthRow depth_rows[] = {
      {"fp32 depth  [2,2,2] (p=8)", 2, 2, false, measure_atb_depth(2, 2, false)},
      {"bf16 depth  [2,2,2] (p=8)", 2, 2, true, measure_atb_depth(2, 2, true)},
      {"fp32 depth  [4,4,2] (p=32)", 4, 2, false, measure_atb_depth(4, 2, false)},
      {"bf16 depth  [4,4,2] (p=32)", 4, 2, true, measure_atb_depth(4, 2, true)},
  };
  std::printf("%-28s %14s %12s %12s\n", "configuration", "depth bytes",
              "total bytes", "sim time us");
  for (const DepthRow& r : depth_rows) {
    std::printf("%-28s %14lld %12lld %12.1f\n", r.name,
                static_cast<long long>(r.m.depth_bytes),
                static_cast<long long>(r.m.total_bytes), r.m.sim_us);
  }
  for (std::size_t i = 0; i + 1 < std::size(depth_rows); i += 2) {
    std::printf("  %s: depth wire bytes ratio fp32/bf16 = %.2fx\n",
                depth_rows[i + 1].name,
                static_cast<double>(depth_rows[i].m.depth_bytes) /
                    static_cast<double>(depth_rows[i + 1].m.depth_bytes));
  }

  // Where does the Tesseract[2,2,2] time actually go? Re-run the p = 8 GEMM
  // with tracing on and walk the chain of spans and wire hops that determined
  // the makespan. Tracing never advances a simulated clock, so the makespan
  // here matches the untraced row above.
  std::printf("\n=== Critical path, Tesseract[2,2,2] on A[96,96] x B[96,96] ===\n");
  comm::World cp_world(8, topo::MachineSpec::meluxina());
  cp_world.enable_tracing();
  cp_world.enable_metrics();
  cp_world.run([&](comm::Communicator& c) {
    pdg::TesseractComms tc = pdg::TesseractComms::create(c, 2, 2);
    Tensor ab = pdg::distribute_a_layout(tc, a);
    Tensor bb = pdg::distribute_b_layout(tc, b);
    (void)pdg::tesseract_ab_local(tc, ab, bb);
  });
  const perf::CriticalPathReport cp = perf::analyze_critical_path(cp_world);
  std::printf("%s", cp.to_string().c_str());

  // The same traced run, viewed as a full run report: every rank's makespan
  // attribution plus the p2p communication matrix, as JSON + HTML artifacts.
  if (perf::write_run_report(cp_world, "comm_volume")) {
    std::printf("\nwrote REPORT_comm_volume.json and REPORT_comm_volume.html\n");
  } else {
    std::fprintf(stderr, "failed to write REPORT_comm_volume.{json,html}\n");
  }

  // Machine-readable twin of everything above.
  perf::BenchReport report("comm_volume");
  for (const Row& r : rows) {
    obs::JsonValue& c = report.add_case(r.name);
    c["ranks"] = static_cast<std::int64_t>(r.ranks);
    c["bytes"] = r.m.bytes;
    c["messages"] = r.m.msgs;
    c["sim_us"] = r.m.sim_us;
  }
  for (const Row& r : tall) {
    obs::JsonValue& c = report.add_case(std::string("tall: ") + r.name);
    c["ranks"] = static_cast<std::int64_t>(r.ranks);
    c["bytes"] = r.m.bytes;
    c["messages"] = r.m.msgs;
    c["sim_us"] = r.m.sim_us;
  }
  obs::JsonValue& cpj = report.add_case("critical_path: Tesseract[2,2,2] n=96");
  cpj["critical_path"] = cp.to_json();
  const char* out = "BENCH_comm_volume.json";
  if (report.write(out)) {
    std::printf("\nwrote %s\n", out);
  } else {
    std::fprintf(stderr, "failed to write %s\n", out);
  }

  // The depth-compression rows ride in BENCH_kernel_variants.json alongside
  // the per-variant GEMM sweep (bench_pdgemm_micro writes that file first in
  // CI); when it is absent, start one with a fresh envelope.
  const char* kv_path = "BENCH_kernel_variants.json";
  obs::JsonValue kv_doc;
  bool have_doc = false;
  {
    std::ifstream in(obs::artifact_path(kv_path));
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      obs::JsonValue parsed = obs::json_parse(ss.str());
      const obs::JsonValue* cases = parsed.find("cases");
      if (cases != nullptr && cases->is_array()) {
        kv_doc = std::move(parsed);
        have_doc = true;
      }
    }
  }
  if (!have_doc) {
    perf::BenchReport fresh("kernel_variants");
    kv_doc = fresh.root();
  }
  for (const DepthRow& r : depth_rows) {
    obs::JsonValue c = obs::JsonValue::object();
    c["name"] = std::string("depth_allreduce: ") + r.name;
    c["q"] = static_cast<std::int64_t>(r.q);
    c["d"] = static_cast<std::int64_t>(r.d);
    c["compressed"] = r.compressed;
    c["depth_wire_bytes"] = r.m.depth_bytes;
    c["depth_collective_calls"] = r.m.depth_calls;
    c["total_wire_bytes"] = r.m.total_bytes;
    c["sim_us"] = r.m.sim_us;
    kv_doc["cases"].push_back(std::move(c));
  }
  if (obs::write_json_file(obs::artifact_path(kv_path), kv_doc)) {
    std::printf("appended depth-compression rows to %s\n", kv_path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", kv_path);
  }
  return 0;
}
