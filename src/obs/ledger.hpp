// Benchmark-history ledger: the cross-run perf accountability plane.
//
// Every BENCH_*/REPORT_* document carries the stamped envelope
// (perf::stamp_envelope), and the simulated-clock portion of its numbers is
// a pure function of code + seed — byte-identical across scheduler backends
// and worker counts. That contract makes cross-run (and cross-machine)
// regression gating exact: a deterministic metric that moved AT ALL is a
// real behavior change, the same threshold-0 rule `tsr_report diff` applies
// within a run pair. Host wall-clock metrics (wall_ms, GFLOP/s, scheduler
// counters) do vary run to run, so they are gated against a noise band
// estimated from the K most recent same-environment records instead.
//
// The ledger itself is an append-only LEDGER_history.jsonl: one line per
// ingested document, holding the envelope plus the flattened numeric metric
// set. `tools/tsr_gate` records into it and gates against it; reads tolerate
// a torn trailing line (obs::scan_jsonl) and appends heal it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace tsr::obs {

/// Version stamped on every ledger line. Lines with any other version are
/// rejected at load: a ledger must be homogeneous, never silently mixed.
inline constexpr std::int64_t kLedgerVersion = 1;

/// Host-metric noise band: relative floor so a band exists even with one
/// sample, sigma multiplier once a spread is measurable.
inline constexpr double kHostNoiseRelFloor = 0.25;
inline constexpr double kHostNoiseSigmas = 4.0;

/// How a metric is gated. Deterministic = simulated-clock or structural
/// (counts, bytes, sim seconds, bit-identity flags): threshold 0, any delta
/// fails. HostWall = wall-clock timings and throughputs measured on the
/// host: gated by the noise band, never bit-compared.
enum class MetricClass { Deterministic, HostWall };

/// Classifies by the final path segment. Host patterns are explicit
/// ("wall", "gflops", "speedup", "host", "max_rel_err", "scheduler_*",
/// "pool_*", "allocations", "reuses"); everything else — including table1's
/// `fwd_ms`-style names, which are SIMULATED milliseconds — is deterministic.
MetricClass classify_metric(std::string_view path);

/// Host metrics where larger is the good direction (gflops, speedup,
/// reuses, *_per_host_s rates); regressions are drops below the band
/// instead of rises above it.
bool higher_is_better(std::string_view path);

/// Noise band over a host-metric history. halfwidth = max(relative floor,
/// kHostNoiseSigmas * sample stddev); with a single sample only the floor
/// applies. samples == 0 means no band (nothing to gate against).
struct NoiseBand {
  double mean = 0.0;
  double halfwidth = 0.0;
  int samples = 0;
  double lo() const { return mean - halfwidth; }
  double hi() const { return mean + halfwidth; }
};
NoiseBand noise_band(const std::vector<double>& history);

/// One ingested document: envelope + flattened numeric metrics, in document
/// order. Booleans flatten to 0/1 deterministic metrics; strings and the
/// envelope fields themselves are not metrics. Arrays of objects flatten by
/// their "name" member (`cases/<name>/<field>`), by index otherwise.
struct LedgerRecord {
  std::int64_t seq = 0;             // ledger position, assigned on append
  std::int64_t schema_version = 0;  // the document's schema_version
  std::string kind;                 // "bench", "run_report", ...
  std::string source;               // bench name / report name
  std::string backend;
  std::int64_t workers = 0;
  std::int64_t host_cores = 0;
  std::string kernel_variant;
  std::string cpu_features;
  std::string fault_plan;
  std::string git_sha;
  bool git_dirty = false;
  std::vector<std::pair<std::string, double>> metrics;

  /// Identity of the metric series this record extends: deterministic
  /// metrics compare across machines, so only (kind, source) key it.
  std::string series_key() const { return kind + "/" + source; }
  /// Host wall-clock numbers are only comparable on the same machine tier:
  /// backend, workers, cores, kernel variant and CPU features all shift them.
  std::string host_env_key() const;

  const double* find_metric(std::string_view path) const;
  JsonValue to_json() const;
  static bool from_json(const JsonValue& line, LedgerRecord* out,
                        std::string* err);
};

/// Flattens a BENCH_*/REPORT_* document into a record. Fails when the
/// document has no schema_version/kind envelope.
bool ingest_document(const JsonValue& doc, LedgerRecord* out,
                     std::string* err);

/// A deterministic metric that differs between two documents. A side that
/// lacks the path has no value.
struct MetricDiff {
  std::string path;
  std::optional<double> a;
  std::optional<double> b;
};

/// The deterministic metrics of `a` and `b` that differ in value or exist
/// in one only, in `a`'s order, then `b`'s extra paths. Host-class metrics
/// (scheduler_*, reuses, wall times, ...) vary from run to run and are
/// skipped.
std::vector<MetricDiff> diff_deterministic(const LedgerRecord& a,
                                           const LedgerRecord& b);

/// The append-only history file. Loading a missing file yields an empty
/// ledger (recording bootstraps it); a torn trailing line is tolerated and
/// healed — truncated away — by the next append.
class Ledger {
 public:
  /// False on I/O error, corruption, or a foreign ledger_version line.
  static bool load(const std::string& path, Ledger* out, std::string* err);

  const std::string& path() const { return path_; }
  const std::vector<LedgerRecord>& records() const { return records_; }
  bool torn_tail() const { return torn_; }

  /// Most recent record of the series, nullptr when the series is new.
  const LedgerRecord* latest(std::string_view series_key) const;

  /// Host-metric history: values of `metric` across records matching both
  /// the series and the host environment of `like`, oldest first.
  std::vector<double> host_history(const LedgerRecord& like,
                                   std::string_view metric) const;

  /// Appends `rec` (seq assigned here). Re-recording a document identical —
  /// envelope and metrics — to the latest record of its series is a no-op
  /// (*appended = false). A record whose schema_version differs from its
  /// series' latest is rejected: re-establish the baseline explicitly
  /// instead of mixing schema generations in one series.
  bool append(const LedgerRecord& rec, bool* appended, std::string* err);

 private:
  std::string path_;
  std::vector<LedgerRecord> records_;
  std::size_t valid_bytes_ = 0;
  bool torn_ = false;
};

/// One row of a gate/compare run: either a metric comparison or a
/// structural/informational note (metric empty).
struct GateFinding {
  std::string series;
  std::string metric;
  MetricClass cls = MetricClass::Deterministic;
  double baseline = 0.0;
  double current = 0.0;
  NoiseBand band;          // host metrics only
  bool regression = false;
  bool structural = false;  // schema/fault/shape mismatch — always fails
  std::string note;         // human-readable detail for non-metric rows
};

struct GateOptions {
  /// Gate only the deterministic (threshold 0) metrics — the mode for
  /// comparing against a baseline ledger committed from another machine.
  bool deterministic_only = false;
};

struct GateReport {
  std::vector<GateFinding> rows;
  int documents = 0;
  int deterministic_compared = 0;
  int deterministic_regressions = 0;
  int host_compared = 0;
  int host_regressions = 0;
  int host_without_history = 0;
  int structural = 0;

  bool failed() const {
    return deterministic_regressions > 0 || host_regressions > 0 ||
           structural > 0;
  }
  /// The per-metric delta table plus a summary line. `verbose` includes
  /// in-band host rows and unchanged-count detail; regressions and notes
  /// always print.
  std::string to_string(bool verbose = false) const;
};

/// Gates `docs` against the latest same-series records in `baseline`.
/// Deterministic metrics must match exactly; host metrics must sit inside
/// the noise band of their same-environment history (series without history
/// are noted, not failed). A fault_plan mismatch is a structural failure but
/// metric comparison still runs, so the sim-clock deltas a straggler causes
/// show up in the table alongside it.
GateReport gate_documents(const Ledger& baseline,
                          const std::vector<JsonValue>& docs,
                          const GateOptions& opt = {});

}  // namespace tsr::obs
