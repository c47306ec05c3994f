// Run reports: the post-run explanation of a traced + metered World.
//
// Where the critical path (perf/critical_path.hpp) explains the one chain of
// segments that determined the makespan, a RunReport accounts for EVERY
// rank's whole timeline:
//
//   * per-rank makespan attribution — each rank's [0, makespan] is tiled
//     into compute (charged kernel spans), collective wire time (inside a
//     collective span but not blocked), blocked wait (a receive dragged the
//     clock forward to a message's arrival) and idle (everything else,
//     including the stretch after the rank finished). The four buckets sum
//     to the makespan exactly, by construction: the tiling cuts are real
//     event timestamps and every elementary piece lands in exactly one
//     bucket.
//   * an N x N point-to-point communication matrix (message counts and
//     bytes, real vs phantom) built from the recorded wire-flow sends.
//   * per-collective and per-layer rollups with p50/p95/p99 simulated
//     latencies from the metrics registry's histograms.
//   * fault attribution when a FaultPlan is active: injector activity plus
//     the extra simulated seconds chargeable to stragglers and degraded
//     links.
//
// Reports serialize to a versioned JSON document (REPORT_<name>.json, with
// the shared perf::stamp_envelope header) and to a self-contained HTML page;
// diff_run_reports compares two documents field by field and powers the
// `tsr_report diff` regression gate.
//
// Requires World::enable_tracing() for the attribution and the matrix, and
// World::enable_metrics() for the rollups; with both off the report degrades
// to a makespan and all-idle ranks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "obs/expect.hpp"
#include "obs/json.hpp"

namespace tsr::perf {

/// How one rank's copy of [0, makespan] was spent. All four buckets are
/// simulated seconds and sum to the makespan (tested to 1e-9).
struct RankAttribution {
  int rank = -1;
  double compute = 0.0;  ///< covered by a Kernel span (GEMM, memory-bound op)
  double wire = 0.0;     ///< inside a Collective span, not blocked (NIC time)
  double wait = 0.0;     ///< blocked receives: clock advanced to an arrival
  double idle = 0.0;     ///< everything else, incl. time after the rank ended
  double end_time = 0.0; ///< the rank's final simulated clock
  double total() const { return compute + wire + wait + idle; }
};

/// One (src, dst) cell of the communication matrix. Real messages carry a
/// payload; phantom messages move only declared bytes (the benchmark
/// harness's paper-scale replays).
struct CommEdge {
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
  std::int64_t phantom_msgs = 0;
  std::int64_t phantom_bytes = 0;
  std::int64_t total_msgs() const { return msgs + phantom_msgs; }
  std::int64_t total_bytes() const { return bytes + phantom_bytes; }
};

/// Latency rollup of one `<base>.sim_seconds` histogram, plus the matching
/// `<base>.bytes` counter when one exists.
struct OpRollup {
  std::string name;  ///< histogram base, e.g. all_reduce or a layer.* prefix
  std::int64_t calls = 0;
  double total_seconds = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  std::int64_t bytes = 0;
};

/// Extra simulated seconds charged to one straggling rank: with every local
/// advance scaled by `scale`, the surplus is local * (scale-1)/scale where
/// local is the rank's observed compute + wire time.
struct StragglerCharge {
  int rank = -1;
  double scale = 1.0;
  double extra_seconds = 0.0;
};

/// Extra wire seconds charged to a degraded-link fault, summed over the
/// (src, dst) pairs the spec matched: surplus alpha per message plus surplus
/// beta per byte, from the undegraded MachineSpec parameters.
struct DegradedLinkCharge {
  int src = -1;  ///< -1 = wildcard, as in the plan
  int dst = -1;
  double alpha_scale = 1.0;
  double beta_scale = 1.0;
  std::int64_t matched_msgs = 0;
  std::int64_t matched_bytes = 0;
  double extra_seconds = 0.0;
};

struct RunReport {
  std::string name;
  double makespan = 0.0;
  int nranks = 0;
  bool traced = false;
  bool metered = false;

  std::vector<RankAttribution> ranks;
  /// Row-major [src * nranks + dst]; diagonal = self-sends.
  std::vector<CommEdge> matrix;
  std::vector<OpRollup> collectives;  ///< comm.* histograms
  std::vector<OpRollup> rollups;      ///< layer.* / pipeline.* / sim.* / train.*

  // Fault attribution; populated only when an injector is active.
  // Live telemetry, populated when the World ran with a LiveSampler
  // attached: the completed windows still in the sampler's ring (the tail of
  // the run for long runs — the full stream lives in the TIMELINE file) and
  // the drift events its monitor emitted, in the shared TIMELINE schema.
  double timeline_interval = 0.0;  ///< 0 when no sampler was attached
  std::int64_t timeline_windows_flushed = 0;
  std::vector<obs::WindowSnapshot> timeline;
  std::vector<obs::DriftEvent> timeline_drift;

  bool fault_active = false;
  std::int64_t fault_kills = 0;
  std::int64_t fault_delayed_msgs = 0;
  double fault_delay_seconds = 0.0;
  std::vector<int> dead_ranks;
  std::vector<StragglerCharge> stragglers;
  std::vector<DegradedLinkCharge> degraded_links;

  const CommEdge& edge(int src, int dst) const {
    return matrix[static_cast<std::size_t>(src * nranks + dst)];
  }

  /// Versioned document with the shared envelope; round-trips obs::json_parse.
  obs::JsonValue to_json() const;
  std::string to_string() const;
  /// Self-contained HTML page (inline CSS, no external resources) with the
  /// attribution table and a heatmap-rendered communication matrix.
  std::string to_html() const { return run_report_html(to_json()); }

  /// Renderers over the serialized form, shared with the tsr_report CLI
  /// (which only ever sees the JSON document).
  static std::string run_report_html(const obs::JsonValue& doc);
  static std::string run_report_summary(const obs::JsonValue& doc);
};

/// Analyzes the most recent (traced) run of `world`.
RunReport build_run_report(const comm::World& world, std::string name = "run");

/// Builds the report and writes REPORT_<name>.json plus REPORT_<name>.html
/// into the current directory; false on I/O failure.
bool write_run_report(const comm::World& world, const std::string& name);

// ---- Report diffing --------------------------------------------------------

/// One numeric field that differs between two reports.
struct ReportDelta {
  std::string path;  ///< slash-joined path into the JSON document
  double a = 0.0;
  double b = 0.0;
  double rel = 0.0;  ///< |b-a| / max(|a|, |b|)
  bool regression = false;  ///< rel exceeded the diff threshold
};

struct ReportDiffResult {
  std::vector<ReportDelta> deltas;        ///< numeric fields that moved
  std::vector<std::string> structural;    ///< missing keys / kind mismatches
  int regressions = 0;
  bool clean() const { return deltas.empty() && structural.empty(); }
  /// True when the gate should fail: any structural break or regression.
  bool failed() const { return regressions > 0 || !structural.empty(); }
  std::string to_string() const;
};

/// Field-by-field comparison of two run-report (or bench) JSON documents.
/// Numeric leaves are compared by relative difference; any difference at all
/// is a delta and a delta beyond `threshold` is a regression, so the default
/// threshold 0 is the bit-exact determinism gate (the metrics registry's
/// fixed-order shard reduction makes rollup sums reproducible, so no
/// accumulation-noise floor is needed anymore). The envelope's environment
/// fields (backend, workers, host_cores, run_label) and the report name are
/// skipped: two same-seed runs on different backends must diff clean. The
/// envelope's `fault_plan` fingerprint is NOT skipped — comparing runs under
/// different fault plans is a structural failure by design.
ReportDiffResult diff_run_reports(const obs::JsonValue& a,
                                  const obs::JsonValue& b,
                                  double threshold = 0.0);

}  // namespace tsr::perf
