// Machine-readable telemetry reports.
//
// Converts the measurement/statistics/metrics structs into JsonValue trees
// and provides the BenchReport builder the bench binaries use to emit
// BENCH_<name>.json next to their stdout tables, so scaling results can be
// diffed and plotted without scraping text.
#pragma once

#include <string>

#include "comm/stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "perf/critical_path.hpp"
#include "perf/trace.hpp"

namespace tsr::perf {

/// Version stamped on every exported BENCH_*/REPORT_* document. Bump when
/// the meaning or layout of an existing field changes; pure additions keep
/// the version.
inline constexpr std::int64_t kReportSchemaVersion = 1;

/// Stamps the envelope every exported document shares: `schema_version`,
/// document `kind` ("bench", "run_report", ...), scheduler `backend`
/// (fibers/threads), `workers` (RunConfig::workers, the count the scheduler
/// uses), `host_cores`, the active `kernel_variant` and host `cpu_features`
/// (tensor/kernel_registry.hpp), a `fault_plan` fingerprint
/// (fault::active_plan_fingerprint, "none" when no plan was installed), the
/// build's `git_sha`/`git_dirty` provenance (from the CMake-generated stamp
/// header; "unknown" outside a checkout), and — when RunConfig::run_label
/// (TESSERACT_RUN_LABEL) is set — a free-form `run_label` so CI can tag
/// artifacts per configuration. The host fields describe the environment,
/// never simulated results, and report diffing skips them; `fault_plan`
/// identifies the experiment and is deliberately NOT skipped.
void stamp_envelope(obs::JsonValue& root, const std::string& kind);

obs::JsonValue stats_to_json(const comm::CommStats& stats);
obs::JsonValue measurement_to_json(const Measurement& m);
obs::JsonValue snapshot_to_json(const obs::Snapshot& snap);

/// Accumulates named benchmark cases and writes one JSON document:
///   {<envelope>, "bench": <name>, "cases": [{"name": ..., <fields>}, ...]}
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  /// Starts a new case and returns its (mutable) JSON object; add measurement
  /// results or arbitrary extra fields to it.
  obs::JsonValue& add_case(const std::string& name);
  /// Convenience: case holding a Measurement under "measurement".
  obs::JsonValue& add_case(const std::string& name, const Measurement& m);

  const obs::JsonValue& root() const { return root_; }
  /// Mutable document root, for top-level fields beyond the envelope and
  /// the case list (e.g. the autotune search configuration and Pareto set).
  obs::JsonValue& root() { return root_; }
  /// Writes the report to `path` (pretty-printed, obs::artifact_path
  /// applies); false on I/O failure.
  bool write(const std::string& path) const;

 private:
  obs::JsonValue root_;
};

}  // namespace tsr::perf
