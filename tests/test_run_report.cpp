// Run-report analyzer: the per-rank attribution must tile the makespan
// exactly, the communication matrix must agree with the byte counters, and
// the diff gate must be clean across same-seed runs and loud on regressions.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "comm/communicator.hpp"
#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "parallel/dist.hpp"
#include "parallel/tesseract_transformer.hpp"
#include "perf/run_report.hpp"
#include "tensor/init.hpp"

namespace tsr::perf {
namespace {

constexpr std::int64_t kBatch = 4, kSeq = 8, kHidden = 64, kHeads = 4;

// One Tesseract [2,2,2] Transformer layer step (forward + backward) on 8
// simulated ranks — the same reference workload `tsr_report gen` runs.
void run_layer_step(comm::World& world, std::uint64_t seed) {
  Rng data_rng(seed);
  Tensor x = random_normal({kBatch, kSeq, kHidden}, data_rng);
  Tensor dy = random_normal({kBatch, kSeq, kHidden}, data_rng);
  world.run([&](comm::Communicator& c) {
    par::TesseractContext ctx(c, 2, 2);
    Rng wrng(seed + 1);
    par::TesseractTransformerLayer layer(ctx, kHidden, kHeads, wrng);
    Tensor xl = par::distribute_activation(ctx.comms(), x);
    Tensor dyl = par::distribute_activation(ctx.comms(), dy);
    (void)layer.forward(xl);
    (void)layer.backward(dyl);
  });
}

void expect_conservation(const RunReport& rep) {
  ASSERT_EQ(static_cast<int>(rep.ranks.size()), rep.nranks);
  for (const RankAttribution& a : rep.ranks) {
    EXPECT_NEAR(a.total(), rep.makespan, 1e-9)
        << "rank " << a.rank << ": " << a.compute << " + " << a.wire << " + "
        << a.wait << " + " << a.idle;
    EXPECT_GE(a.compute, 0.0);
    EXPECT_GE(a.wire, 0.0);
    EXPECT_GE(a.wait, 0.0);
    EXPECT_GE(a.idle, 0.0);
    EXPECT_LE(a.end_time, rep.makespan + 1e-12);
  }
}

TEST(RunReport, AttributionTilesMakespanOnTransformerStep) {
  comm::World world(8, topo::MachineSpec::meluxina());
  world.enable_tracing();
  world.enable_metrics();
  run_layer_step(world, 7);
  const RunReport rep = build_run_report(world, "test");
  EXPECT_GT(rep.makespan, 0.0);
  EXPECT_DOUBLE_EQ(rep.makespan, world.max_sim_time());
  expect_conservation(rep);
  // A GEMM-heavy SPMD step must show real compute and real blocked waits.
  for (const RankAttribution& a : rep.ranks) {
    EXPECT_GT(a.compute, 0.0) << "rank " << a.rank;
    EXPECT_GT(a.wait, 0.0) << "rank " << a.rank;
  }
}

TEST(RunReport, CommMatrixAgreesWithByteCounters) {
  comm::World world(8, topo::MachineSpec::meluxina());
  world.enable_tracing();
  run_layer_step(world, 7);
  const RunReport rep = build_run_report(world);
  const comm::CommStats total = world.total_stats();
  std::int64_t msgs = 0, bytes = 0, phantom_msgs = 0;
  for (const CommEdge& e : rep.matrix) {
    msgs += e.msgs;
    bytes += e.bytes;
    phantom_msgs += e.phantom_msgs;
  }
  EXPECT_EQ(msgs, total.msgs_sent);
  EXPECT_EQ(bytes, total.bytes_sent);
  EXPECT_EQ(phantom_msgs, 0);  // real payloads only in this workload
}

TEST(RunReport, PhantomTrafficIsSplitOut) {
  comm::World world(4, topo::MachineSpec::meluxina());
  world.enable_tracing();
  world.run([&](comm::Communicator& c) {
    std::vector<float> v(64, 1.0f);
    c.all_reduce(v);
    c.phantom_all_reduce(1 << 16);
  });
  const RunReport rep = build_run_report(world);
  std::int64_t real = 0, phantom = 0;
  for (const CommEdge& e : rep.matrix) {
    real += e.msgs;
    phantom += e.phantom_msgs;
  }
  EXPECT_GT(real, 0);
  EXPECT_GT(phantom, 0);
  // Diagonal stays empty: ranks never wire messages to themselves.
  for (int r = 0; r < rep.nranks; ++r) {
    EXPECT_EQ(rep.edge(r, r).total_msgs(), 0) << r;
  }
}

TEST(RunReport, UntracedWorldDegradesToAllIdle) {
  comm::World world(2, topo::MachineSpec::meluxina());
  world.run([&](comm::Communicator& c) {
    std::vector<float> v(64, 1.0f);
    c.all_reduce(v);
  });
  const RunReport rep = build_run_report(world);
  EXPECT_FALSE(rep.traced);
  EXPECT_GT(rep.makespan, 0.0);
  expect_conservation(rep);
  for (const RankAttribution& a : rep.ranks) {
    EXPECT_DOUBLE_EQ(a.compute, 0.0);
    EXPECT_DOUBLE_EQ(a.wire, 0.0);
  }
}

TEST(RunReport, RollupsCarryQuantilesAndBytes) {
  comm::World world(8, topo::MachineSpec::meluxina());
  world.enable_tracing();
  world.enable_metrics();
  run_layer_step(world, 7);
  const RunReport rep = build_run_report(world);
  ASSERT_FALSE(rep.collectives.empty());
  ASSERT_FALSE(rep.rollups.empty());
  bool saw_all_reduce = false;
  for (const OpRollup& r : rep.collectives) {
    EXPECT_GT(r.calls, 0);
    EXPECT_LE(r.p50, r.p95 + 1e-15);
    EXPECT_LE(r.p95, r.p99 + 1e-15);
    EXPECT_LE(r.p99, r.max + 1e-15);
    if (r.name == "all_reduce") {
      saw_all_reduce = true;
      EXPECT_GT(r.bytes, 0);
    }
  }
  EXPECT_TRUE(saw_all_reduce);
  // Rollups are sorted by descending total time.
  for (std::size_t i = 1; i < rep.rollups.size(); ++i) {
    EXPECT_GE(rep.rollups[i - 1].total_seconds, rep.rollups[i].total_seconds);
  }
}

TEST(RunReport, SameSeedRunsDiffClean) {
  obs::JsonValue docs[2];
  for (int i = 0; i < 2; ++i) {
    comm::World world(8, topo::MachineSpec::meluxina());
    world.enable_tracing();
    world.enable_metrics();
    run_layer_step(world, 21);
    docs[i] = build_run_report(world, i == 0 ? "a" : "b").to_json();
  }
  const ReportDiffResult res = diff_run_reports(docs[0], docs[1]);
  EXPECT_TRUE(res.clean()) << res.to_string();
  EXPECT_FALSE(res.failed());
}

TEST(RunReport, DiffFlagsRegressionBeyondThreshold) {
  comm::World world(2, topo::MachineSpec::meluxina());
  world.enable_tracing();
  world.run([&](comm::Communicator& c) {
    std::vector<float> v(128, 1.0f);
    c.all_reduce(v);
  });
  const obs::JsonValue a = build_run_report(world).to_json();
  obs::JsonValue b = a;
  b["makespan_sim_seconds"] = a.find("makespan_sim_seconds")->as_double() * 1.25;
  // 1.25x slower = 20% relative difference.
  const ReportDiffResult strict = diff_run_reports(a, b, 0.1);
  EXPECT_TRUE(strict.failed());
  EXPECT_EQ(strict.regressions, 1);
  const ReportDiffResult loose = diff_run_reports(a, b, 0.3);
  EXPECT_FALSE(loose.failed());  // moved, but within tolerance
  EXPECT_EQ(loose.deltas.size(), 1u);
  EXPECT_NEAR(loose.deltas[0].rel, 0.2, 1e-12);
  // Envelope fields are environment, not results: they never diff.
  obs::JsonValue c = a;
  c["backend"] = "threads";
  c["host_cores"] = static_cast<std::int64_t>(9999);
  EXPECT_TRUE(diff_run_reports(a, c).clean());
  // Structural breaks (missing fields) always fail, at any threshold.
  obs::JsonValue d = obs::JsonValue::object();
  d["makespan_sim_seconds"] = 1.0;
  const ReportDiffResult broken = diff_run_reports(a, d, 100.0);
  EXPECT_TRUE(broken.failed());
  EXPECT_FALSE(broken.structural.empty());
}

TEST(RunReport, StragglerPlanIsCharged) {
  comm::World world(8, topo::MachineSpec::meluxina());
  world.enable_tracing();
  world.enable_metrics();
  fault::FaultPlan plan;
  plan.slow_ranks.push_back({0, 2.0});
  world.install_fault_plan(plan);
  run_layer_step(world, 7);
  const RunReport rep = build_run_report(world);
  expect_conservation(rep);  // conservation holds under faults too
  ASSERT_TRUE(rep.fault_active);
  ASSERT_EQ(rep.stragglers.size(), 1u);
  EXPECT_EQ(rep.stragglers[0].rank, 0);
  EXPECT_DOUBLE_EQ(rep.stragglers[0].scale, 2.0);
  EXPECT_GT(rep.stragglers[0].extra_seconds, 0.0);
  // At scale 2 the surplus equals half the rank's local (compute+wire) time.
  const RankAttribution& r0 = rep.ranks[0];
  EXPECT_NEAR(rep.stragglers[0].extra_seconds, (r0.compute + r0.wire) / 2.0,
              1e-12);
  // The fault section survives the JSON round trip.
  std::string err;
  const obs::JsonValue round = obs::json_parse(rep.to_json().dump(2), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_NE(round.find("fault"), nullptr);
  EXPECT_EQ(round.find("fault")->find("stragglers")->size(), 1u);
}

TEST(RunReport, DegradedLinkPlanIsCharged) {
  comm::World world(4, topo::MachineSpec::meluxina());
  world.enable_tracing();
  fault::FaultPlan plan;
  plan.slow_links.push_back({-1, -1, 1.0, 3.0});  // all links, 1/3 bandwidth
  world.install_fault_plan(plan);
  world.run([&](comm::Communicator& c) {
    std::vector<float> v(1024, 1.0f);
    c.all_reduce(v);
  });
  const RunReport rep = build_run_report(world);
  ASSERT_TRUE(rep.fault_active);
  ASSERT_EQ(rep.degraded_links.size(), 1u);
  const DegradedLinkCharge& link = rep.degraded_links[0];
  EXPECT_GT(link.matched_msgs, 0);
  EXPECT_GT(link.matched_bytes, 0);
  EXPECT_GT(link.extra_seconds, 0.0);
}

TEST(RunReport, JsonRoundTripsAndHtmlRenders) {
  comm::World world(8, topo::MachineSpec::meluxina());
  world.enable_tracing();
  world.enable_metrics();
  run_layer_step(world, 7);
  const RunReport rep = build_run_report(world, "roundtrip");
  const obs::JsonValue doc = rep.to_json();
  std::string err;
  const obs::JsonValue round = obs::json_parse(doc.dump(2), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(round.find("kind")->as_string(), "run_report");
  EXPECT_GT(round.find("schema_version")->as_int(), 0);
  EXPECT_EQ(round.find("nranks")->as_int(), 8);
  EXPECT_EQ(round.find("attribution")->size(), 8u);
  EXPECT_EQ(round.find("comm_matrix")->find("bytes")->size(), 8u);
  // Renderers accept the parsed document (what the CLI sees).
  const std::string html = RunReport::run_report_html(round);
  EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(html.find("roundtrip"), std::string::npos);
  EXPECT_NE(html.find("communication matrix"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);  // self-contained, no JS
  const std::string summary = RunReport::run_report_summary(round);
  EXPECT_NE(summary.find("makespan"), std::string::npos);
  EXPECT_NE(summary.find("rank  0"), std::string::npos);
}

TEST(RunReport, WriteRunReportEmitsJsonAndHtml) {
  comm::World world(2, topo::MachineSpec::meluxina());
  world.enable_tracing();
  world.run([&](comm::Communicator& c) {
    std::vector<float> v(64, 1.0f);
    c.all_reduce(v);
  });
  ASSERT_TRUE(write_run_report(world, "unit_test_tmp"));
  // The writer lands in RunConfig::artifact_dir; read from the same place.
  const std::string json_path = obs::artifact_path("REPORT_unit_test_tmp.json");
  const std::string html_path = obs::artifact_path("REPORT_unit_test_tmp.html");
  std::ifstream json_in(json_path);
  std::ifstream html_in(html_path);
  EXPECT_TRUE(json_in.good());
  EXPECT_TRUE(html_in.good());
  std::stringstream ss;
  ss << json_in.rdbuf();
  std::string err;
  (void)obs::json_parse(ss.str(), &err);
  EXPECT_TRUE(err.empty()) << err;
  std::remove(json_path.c_str());
  std::remove(html_path.c_str());
}

}  // namespace
}  // namespace tsr::perf
