// Perf-history ledger: JSONL scanning, document ingestion, noise-band math
// and the regression gate (obs/ledger.*, plus the shared helpers the ledger
// and tsr_top both read JSONL through).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "scoped_config.hpp"

namespace {

using tsr::obs::classify_metric;
using tsr::obs::diff_deterministic;
using tsr::obs::gate_documents;
using tsr::obs::GateOptions;
using tsr::obs::GateReport;
using tsr::obs::higher_is_better;
using tsr::obs::ingest_document;
using tsr::obs::JsonlScan;
using tsr::obs::JsonValue;
using tsr::obs::Ledger;
using tsr::obs::LedgerRecord;
using tsr::obs::MetricClass;
using tsr::obs::noise_band;
using tsr::obs::NoiseBand;
using tsr::obs::scan_jsonl;

JsonValue parse(const std::string& text) {
  std::string err;
  JsonValue v = tsr::obs::json_parse(text, &err);
  EXPECT_EQ(err, "") << text;
  return v;
}

// A minimal BENCH-shaped document with an overridable metric value and
// envelope fields.
std::string bench_doc(double fwd_ms, double wall_ms,
                      const std::string& backend = "fibers",
                      const std::string& fault_plan = "none",
                      int schema_version = 1) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                R"({"schema_version":%d,"kind":"bench","backend":"%s",)"
                R"("workers":1,"host_cores":4,"kernel_variant":"scalar",)"
                R"("cpu_features":"sse2","fault_plan":"%s",)"
                R"("git_sha":"abcdef123456","git_dirty":false,)"
                R"("bench":"toy","cases":[{"name":"c0","fwd_ms":%.17g,)"
                R"("wall_ms":%.17g,"bit_identical":true}]})",
                schema_version, backend.c_str(), fault_plan.c_str(), fwd_ms,
                wall_ms);
  return buf;
}

// Unique-per-test scratch file, removed on destruction.
struct ScratchFile {
  std::string path;
  explicit ScratchFile(const std::string& name)
      : path("test_ledger_" + name + ".jsonl") {
    std::remove(path.c_str());
  }
  ~ScratchFile() { std::remove(path.c_str()); }
  void write(const std::string& content) const {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  std::string read() const {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
};

// ---- scan_jsonl -----------------------------------------------------------

TEST(ScanJsonl, ParsesCompleteLines) {
  std::vector<std::string> kinds;
  const JsonlScan scan =
      scan_jsonl("{\"a\":1}\n\n{\"b\":2}\n", [&](JsonValue v) {
        kinds.push_back(v.members().front().first);
      });
  EXPECT_EQ(scan.status, JsonlScan::Status::Ok);
  EXPECT_EQ(scan.consumed, 17u);
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], "a");
  EXPECT_EQ(kinds[1], "b");
}

TEST(ScanJsonl, TrailingBytesWithoutNewlineAreNotConsumed) {
  int lines = 0;
  const JsonlScan scan =
      scan_jsonl("{\"a\":1}\n{\"b\":", [&](JsonValue) { ++lines; });
  EXPECT_EQ(scan.status, JsonlScan::Status::Ok);
  EXPECT_EQ(scan.consumed, 8u);
  EXPECT_EQ(lines, 1);
}

TEST(ScanJsonl, TornTailOnFinalLine) {
  // The newline landed but the line body did not: exactly what a concurrent
  // writer produces mid-append.
  int lines = 0;
  const JsonlScan scan =
      scan_jsonl("{\"a\":1}\n{\"b\":\n", [&](JsonValue) { ++lines; });
  EXPECT_EQ(scan.status, JsonlScan::Status::TornTail);
  EXPECT_EQ(scan.consumed, 8u);
  EXPECT_EQ(lines, 1);
}

TEST(ScanJsonl, CorruptionMidStream) {
  int lines = 0;
  const JsonlScan scan =
      scan_jsonl("{\"a\":1}\n{broken\n{\"c\":3}\n", [&](JsonValue) { ++lines; });
  EXPECT_EQ(scan.status, JsonlScan::Status::Corrupt);
  EXPECT_FALSE(scan.error.empty());
  EXPECT_EQ(scan.consumed, 8u);
  EXPECT_EQ(lines, 1);
}

// ---- metric classification and noise band ---------------------------------

TEST(MetricClass, SimClockNamesAreDeterministic) {
  // table1's fwd_ms/bwd_ms/inference_ms and throughput are SIMULATED numbers
  // despite the wall-sounding names; only explicit host patterns are host.
  for (const char* m :
       {"cases/row/fwd_ms", "cases/row/bwd_ms", "cases/row/inference_ms",
        "cases/row/throughput", "cases/x/sim_time_s", "cases/x/bytes_sent",
        "makespan_sim_seconds", "cases/x/output_bit_identical_to_w1",
        "cases/table1_replay_w1/segment_runs"}) {
    EXPECT_EQ(classify_metric(m), MetricClass::Deterministic) << m;
  }
}

TEST(MetricClass, HostPatternsAreHostWall) {
  for (const char* m :
       {"cases/x/wall_ms", "cases/x/wall_ms_per_step", "cases/x/gflops",
        "cases/x/speedup_vs_w1", "cases/x/scheduler_resumes",
        "cases/x/pool_allocations", "cases/pack_scratch/allocations",
        "cases/pack_scratch/reuses", "cases/v/max_rel_err_vs_scalar",
        "cases/table1_replay_w1/collectives_per_host_s"}) {
    EXPECT_EQ(classify_metric(m), MetricClass::HostWall) << m;
  }
}

TEST(MetricClass, Direction) {
  EXPECT_TRUE(higher_is_better("cases/x/gflops"));
  EXPECT_TRUE(higher_is_better("cases/x/speedup_vs_w1"));
  EXPECT_TRUE(higher_is_better("cases/pack_scratch/reuses"));
  EXPECT_TRUE(higher_is_better("cases/table1_replay_w1/collectives_per_host_s"));
  EXPECT_FALSE(higher_is_better("cases/x/wall_ms"));
}

TEST(NoiseBandMath, MatchesHandComputedOracle) {
  // Two samples {100, 110}: mean 105, sample stddev sqrt(50); the 4-sigma
  // term beats the 25% floor: 4*sqrt(50) = 28.2842712... > 26.25.
  const NoiseBand band = noise_band({100.0, 110.0});
  EXPECT_EQ(band.samples, 2);
  EXPECT_DOUBLE_EQ(band.mean, 105.0);
  EXPECT_DOUBLE_EQ(band.halfwidth, 4.0 * std::sqrt(50.0));
  EXPECT_DOUBLE_EQ(band.lo(), 105.0 - 4.0 * std::sqrt(50.0));
  EXPECT_DOUBLE_EQ(band.hi(), 105.0 + 4.0 * std::sqrt(50.0));
}

TEST(NoiseBandMath, SingleSampleUsesRelativeFloor) {
  const NoiseBand band = noise_band({200.0});
  EXPECT_EQ(band.samples, 1);
  EXPECT_DOUBLE_EQ(band.mean, 200.0);
  EXPECT_DOUBLE_EQ(band.halfwidth, 0.25 * 200.0);
}

TEST(NoiseBandMath, ZeroSpreadKeepsFloor) {
  // Identical samples: stddev 0, so the relative floor still leaves room
  // for ordinary run-to-run jitter.
  const NoiseBand band = noise_band({80.0, 80.0, 80.0});
  EXPECT_EQ(band.samples, 3);
  EXPECT_DOUBLE_EQ(band.halfwidth, 0.25 * 80.0);
  const NoiseBand empty = noise_band({});
  EXPECT_EQ(empty.samples, 0);
}

// ---- ingestion ------------------------------------------------------------

TEST(Ingest, FlattensCasesByNameAndSkipsEnvelope) {
  LedgerRecord rec;
  std::string err;
  ASSERT_TRUE(ingest_document(parse(bench_doc(12.5, 100.0)), &rec, &err))
      << err;
  EXPECT_EQ(rec.kind, "bench");
  EXPECT_EQ(rec.source, "toy");
  EXPECT_EQ(rec.series_key(), "bench/toy");
  EXPECT_EQ(rec.backend, "fibers");
  EXPECT_EQ(rec.workers, 1);
  EXPECT_EQ(rec.git_sha, "abcdef123456");
  EXPECT_FALSE(rec.git_dirty);
  ASSERT_NE(rec.find_metric("cases/c0/fwd_ms"), nullptr);
  EXPECT_DOUBLE_EQ(*rec.find_metric("cases/c0/fwd_ms"), 12.5);
  ASSERT_NE(rec.find_metric("cases/c0/wall_ms"), nullptr);
  // Booleans ingest as 0/1 deterministic metrics.
  ASSERT_NE(rec.find_metric("cases/c0/bit_identical"), nullptr);
  EXPECT_DOUBLE_EQ(*rec.find_metric("cases/c0/bit_identical"), 1.0);
  // Envelope fields are identity, not metrics.
  EXPECT_EQ(rec.find_metric("schema_version"), nullptr);
  EXPECT_EQ(rec.find_metric("workers"), nullptr);
}

// tsr_gate diff: deterministic paths only, by value and by presence.
TEST(Diff, NamesDeterministicPathsThatDifferAndSkipsHostOnes) {
  LedgerRecord a, b, c;
  std::string err;
  ASSERT_TRUE(ingest_document(parse(bench_doc(12.5, 100.0)), &a, &err));
  // Another wall time (host-class): no difference.
  ASSERT_TRUE(ingest_document(parse(bench_doc(12.5, 250.0)), &b, &err));
  EXPECT_TRUE(diff_deterministic(a, b).empty());
  ASSERT_TRUE(ingest_document(parse(bench_doc(12.75, 100.0)), &c, &err));
  auto diffs = diff_deterministic(a, c);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].path, "cases/c0/fwd_ms");
  EXPECT_EQ(*diffs[0].a, 12.5);
  EXPECT_EQ(*diffs[0].b, 12.75);
  // A path only one side has is named with the other side empty.
  c.metrics.emplace_back("cases/c0/segment_runs", 176.0);
  c.metrics.emplace_back("cases/c0/scheduler_parks", 5.0);
  diffs = diff_deterministic(c, a);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[1].path, "cases/c0/segment_runs");
  EXPECT_EQ(*diffs[1].a, 176.0);
  EXPECT_FALSE(diffs[1].b.has_value());
}

TEST(Ingest, RejectsDocumentWithoutEnvelope) {
  LedgerRecord rec;
  std::string err;
  EXPECT_FALSE(ingest_document(parse(R"({"cases":[]})"), &rec, &err));
  EXPECT_NE(err.find("schema_version"), std::string::npos);
}

// ---- ledger file ----------------------------------------------------------

TEST(LedgerFile, MissingFileLoadsEmpty) {
  Ledger ledger;
  std::string err;
  ASSERT_TRUE(Ledger::load("test_ledger_does_not_exist.jsonl", &ledger, &err))
      << err;
  EXPECT_TRUE(ledger.records().empty());
  EXPECT_FALSE(ledger.torn_tail());
}

TEST(LedgerFile, AppendReloadRoundTrip) {
  const ScratchFile file("roundtrip");
  LedgerRecord rec;
  std::string err;
  ASSERT_TRUE(ingest_document(parse(bench_doc(12.5, 100.0)), &rec, &err));
  {
    Ledger ledger;
    ASSERT_TRUE(Ledger::load(file.path, &ledger, &err)) << err;
    bool appended = false;
    ASSERT_TRUE(ledger.append(rec, &appended, &err)) << err;
    EXPECT_TRUE(appended);
  }
  Ledger reloaded;
  ASSERT_TRUE(Ledger::load(file.path, &reloaded, &err)) << err;
  ASSERT_EQ(reloaded.records().size(), 1u);
  const LedgerRecord& stored = reloaded.records()[0];
  EXPECT_EQ(stored.seq, 0);
  EXPECT_EQ(stored.series_key(), "bench/toy");
  EXPECT_EQ(stored.metrics, rec.metrics);
}

TEST(LedgerFile, DuplicateRecordIsIdempotent) {
  const ScratchFile file("dup");
  LedgerRecord rec;
  std::string err;
  ASSERT_TRUE(ingest_document(parse(bench_doc(12.5, 100.0)), &rec, &err));
  Ledger ledger;
  ASSERT_TRUE(Ledger::load(file.path, &ledger, &err));
  bool appended = false;
  ASSERT_TRUE(ledger.append(rec, &appended, &err));
  EXPECT_TRUE(appended);
  const std::string after_first = file.read();
  // Identical envelope + metrics: a no-op, in memory and on disk.
  ASSERT_TRUE(ledger.append(rec, &appended, &err));
  EXPECT_FALSE(appended);
  EXPECT_EQ(ledger.records().size(), 1u);
  EXPECT_EQ(file.read(), after_first);
  // A changed metric appends; the original then differs from the NEW latest
  // record, so re-recording it appends too (only consecutive dups dedupe).
  LedgerRecord changed;
  ASSERT_TRUE(ingest_document(parse(bench_doc(13.0, 100.0)), &changed, &err));
  ASSERT_TRUE(ledger.append(changed, &appended, &err));
  EXPECT_TRUE(appended);
  ASSERT_TRUE(ledger.append(rec, &appended, &err));
  EXPECT_TRUE(appended);
  EXPECT_EQ(ledger.records().size(), 3u);
  EXPECT_EQ(ledger.records().back().seq, 2);
}

TEST(LedgerFile, TornTailToleratedAndHealedByAppend) {
  const ScratchFile file("torn");
  LedgerRecord rec;
  std::string err;
  ASSERT_TRUE(ingest_document(parse(bench_doc(12.5, 100.0)), &rec, &err));
  Ledger ledger;
  ASSERT_TRUE(Ledger::load(file.path, &ledger, &err));
  bool appended = false;
  ASSERT_TRUE(ledger.append(rec, &appended, &err));
  const std::string intact = file.read();
  file.write(intact + "{\"ledger_version\":1,\"seq\n");

  Ledger torn;
  ASSERT_TRUE(Ledger::load(file.path, &torn, &err)) << err;
  EXPECT_EQ(torn.records().size(), 1u);
  EXPECT_TRUE(torn.torn_tail());
  // The next append truncates the damage away and extends cleanly.
  LedgerRecord changed;
  ASSERT_TRUE(ingest_document(parse(bench_doc(13.0, 100.0)), &changed, &err));
  ASSERT_TRUE(torn.append(changed, &appended, &err)) << err;
  EXPECT_TRUE(appended);
  Ledger healed;
  ASSERT_TRUE(Ledger::load(file.path, &healed, &err)) << err;
  EXPECT_EQ(healed.records().size(), 2u);
  EXPECT_FALSE(healed.torn_tail());
}

TEST(LedgerFile, ForeignLedgerVersionRejected) {
  const ScratchFile file("foreign");
  file.write(
      "{\"ledger_version\":2,\"seq\":0,\"kind\":\"bench\","
      "\"source\":\"toy\",\"metrics\":{}}\n");
  Ledger ledger;
  std::string err;
  EXPECT_FALSE(Ledger::load(file.path, &ledger, &err));
  EXPECT_NE(err.find("ledger_version"), std::string::npos);
}

TEST(LedgerFile, MixedSchemaVersionAppendRejected) {
  const ScratchFile file("mixed");
  LedgerRecord v1, v2;
  std::string err;
  ASSERT_TRUE(ingest_document(parse(bench_doc(12.5, 100.0)), &v1, &err));
  ASSERT_TRUE(ingest_document(
      parse(bench_doc(12.5, 100.0, "fibers", "none", /*schema_version=*/2)),
      &v2, &err));
  Ledger ledger;
  ASSERT_TRUE(Ledger::load(file.path, &ledger, &err));
  bool appended = false;
  ASSERT_TRUE(ledger.append(v1, &appended, &err));
  EXPECT_FALSE(ledger.append(v2, &appended, &err));
  EXPECT_NE(err.find("schema_version"), std::string::npos);
  EXPECT_EQ(ledger.records().size(), 1u);
}

// ---- gating ---------------------------------------------------------------

Ledger ledger_with(const ScratchFile& file,
                   const std::vector<std::string>& docs) {
  Ledger ledger;
  std::string err;
  EXPECT_TRUE(Ledger::load(file.path, &ledger, &err)) << err;
  for (const std::string& doc : docs) {
    LedgerRecord rec;
    EXPECT_TRUE(ingest_document(parse(doc), &rec, &err)) << err;
    bool appended = false;
    EXPECT_TRUE(ledger.append(rec, &appended, &err)) << err;
  }
  return ledger;
}

TEST(Gate, IdenticalRunPassesWithZeroDeltas) {
  const ScratchFile file("gate_clean");
  const Ledger ledger = ledger_with(file, {bench_doc(12.5, 100.0)});
  const GateReport rep =
      gate_documents(ledger, {parse(bench_doc(12.5, 100.0))});
  EXPECT_FALSE(rep.failed()) << rep.to_string(true);
  EXPECT_EQ(rep.deterministic_regressions, 0);
  EXPECT_GT(rep.deterministic_compared, 0);
}

TEST(Gate, DeterministicDeltaTripsAtThresholdZero) {
  const ScratchFile file("gate_det");
  const Ledger ledger = ledger_with(file, {bench_doc(12.5, 100.0)});
  const GateReport rep =
      gate_documents(ledger, {parse(bench_doc(12.500001, 100.0))});
  EXPECT_TRUE(rep.failed());
  EXPECT_EQ(rep.deterministic_regressions, 1);
  EXPECT_NE(rep.to_string().find("cases/c0/fwd_ms"), std::string::npos);
}

TEST(Gate, HostMetricGatedByNoiseBand) {
  const ScratchFile file("gate_host");
  // History {100, 110}: band 105 +- 28.284... (the oracle above).
  const Ledger ledger =
      ledger_with(file, {bench_doc(12.5, 100.0), bench_doc(12.5, 110.0)});
  const GateReport inside =
      gate_documents(ledger, {parse(bench_doc(12.5, 130.0))});
  EXPECT_FALSE(inside.failed()) << inside.to_string(true);
  EXPECT_EQ(inside.host_compared, 1);
  const GateReport outside =
      gate_documents(ledger, {parse(bench_doc(12.5, 140.0))});
  EXPECT_TRUE(outside.failed());
  EXPECT_EQ(outside.host_regressions, 1);
}

TEST(Gate, DeterministicOnlySkipsHostMetrics) {
  const ScratchFile file("gate_detonly");
  const Ledger ledger = ledger_with(file, {bench_doc(12.5, 100.0)});
  GateOptions opt;
  opt.deterministic_only = true;
  const GateReport rep =
      gate_documents(ledger, {parse(bench_doc(12.5, 9999.0))}, opt);
  EXPECT_FALSE(rep.failed()) << rep.to_string(true);
  EXPECT_EQ(rep.host_compared, 0);
}

TEST(Gate, HostHistoryKeyedByEnvironment) {
  const ScratchFile file("gate_env");
  // History exists only for the fibers backend; a threads-backend run has
  // no same-environment samples, so its host metric is noted, not gated.
  const Ledger ledger = ledger_with(file, {bench_doc(12.5, 100.0)});
  const GateReport rep = gate_documents(
      ledger, {parse(bench_doc(12.5, 9999.0, /*backend=*/"threads"))});
  EXPECT_FALSE(rep.failed()) << rep.to_string(true);
  EXPECT_EQ(rep.host_compared, 0);
  EXPECT_EQ(rep.host_without_history, 1);
}

TEST(Gate, FaultPlanMismatchIsStructuralAndStillComparesMetrics) {
  const ScratchFile file("gate_fault");
  const Ledger ledger = ledger_with(file, {bench_doc(12.5, 100.0)});
  // A straggler plan changes the fingerprint AND the sim-clock numbers; the
  // gate must report both, so the delta table shows what the fault moved.
  const GateReport rep = gate_documents(
      ledger,
      {parse(bench_doc(18.75, 100.0, "fibers", "slow_ranks:0x1.5"))});
  EXPECT_TRUE(rep.failed());
  EXPECT_GE(rep.structural, 1);
  EXPECT_EQ(rep.deterministic_regressions, 1);
  EXPECT_NE(rep.to_string().find("fault_plan"), std::string::npos);
}

TEST(Gate, MissingBaselineSeriesIsNoteNotFailure) {
  const ScratchFile file("gate_nobase");
  const Ledger ledger = ledger_with(file, {});
  const GateReport rep =
      gate_documents(ledger, {parse(bench_doc(12.5, 100.0))});
  EXPECT_FALSE(rep.failed()) << rep.to_string(true);
  EXPECT_NE(rep.to_string().find("no baseline record"), std::string::npos);
}

TEST(Gate, MixedSchemaVersionRejectedStructurally) {
  const ScratchFile file("gate_schema");
  const Ledger ledger = ledger_with(file, {bench_doc(12.5, 100.0)});
  const GateReport rep = gate_documents(
      ledger,
      {parse(bench_doc(12.5, 100.0, "fibers", "none", /*schema_version=*/2))});
  EXPECT_TRUE(rep.failed());
  EXPECT_GE(rep.structural, 1);
  // Schema mismatch stops the metric comparison outright: field meanings
  // may have changed.
  EXPECT_EQ(rep.deterministic_compared, 0);
}

// ---- artifact-dir redirection ---------------------------------------------

TEST(ArtifactPath, RedirectsRelativeNamesWhenDirSet) {
  tsr::ScopedRunConfig cfg;
  cfg->artifact_dir = "";
  EXPECT_EQ(tsr::obs::artifact_path("BENCH_x.json"), "BENCH_x.json");
  cfg->artifact_dir = "test_ledger_artifacts";
  EXPECT_EQ(tsr::obs::artifact_path("BENCH_x.json"),
            "test_ledger_artifacts/BENCH_x.json");
  // Absolute paths are explicit destinations; never redirected.
  EXPECT_EQ(tsr::obs::artifact_path("/tmp/BENCH_x.json"), "/tmp/BENCH_x.json");
  // The directory is created so the subsequent ofstream open succeeds.
  std::ofstream out(tsr::obs::artifact_path("probe.txt"));
  EXPECT_TRUE(static_cast<bool>(out));
  out.close();
  std::remove("test_ledger_artifacts/probe.txt");
  std::remove("test_ledger_artifacts");
}

}  // namespace
