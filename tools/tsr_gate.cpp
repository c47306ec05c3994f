// tsr_gate: record benchmark artifacts into the perf-history ledger and
// gate new runs against it.
//
//   tsr_gate record <ledger.jsonl> <artifact.json...>
//       Ingests each BENCH_*/REPORT_* document into the append-only ledger.
//       Re-recording a document identical to the latest record of its
//       series is a no-op; a torn trailing line (from an interrupted
//       append) is healed in place.
//   tsr_gate compare <ledger.jsonl> <artifact.json...> [--deterministic-only] [--verbose]
//       Prints the per-metric delta table against the latest same-series
//       ledger records — deterministic metrics at threshold 0, host
//       wall-clock metrics against the noise band of their same-environment
//       history — and always exits 0. --verbose includes in-band host rows.
//   tsr_gate gate <ledger.jsonl> <artifact.json...> [--deterministic-only] [--verbose]
//       Same comparison, but exits 1 on any regression or structural
//       mismatch: the CI hard gate. --deterministic-only restricts the
//       check to the simulated-clock metrics, the mode for gating against a
//       baseline ledger committed from another machine.
//   tsr_gate diff <a.json> <b.json>
//       Flattens two BENCH_*/REPORT_* documents the way the ledger does and
//       compares their deterministic metrics exactly: names every path
//       whose value differs or that only one of them has, and exits 1 if
//       any does. Host-class metrics (wall times, scheduler_*, reuses, ...)
//       vary from run to run and are skipped, so two runs of the same code
//       always pass where a byte-level cmp would not.
//   tsr_gate history <ledger.jsonl> [--source S] [--metric M]
//       Lists the recorded series (or one series' records with --source;
//       one metric's value trajectory with --metric).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/ledger.hpp"

using namespace tsr;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: tsr_gate <subcommand>\n"
      "  record <ledger.jsonl> <artifact.json...>\n"
      "  compare <ledger.jsonl> <artifact.json...> [--deterministic-only] "
      "[--verbose]\n"
      "  gate <ledger.jsonl> <artifact.json...> [--deterministic-only] "
      "[--verbose]\n"
      "  diff <a.json> <b.json>\n"
      "  history <ledger.jsonl> [--source S] [--metric M]\n");
  return 2;
}

bool load_json(const char* path, obs::JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "tsr_gate: cannot open %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  *out = obs::json_parse(ss.str(), &err);
  if (!err.empty()) {
    std::fprintf(stderr, "tsr_gate: %s: %s\n", path, err.c_str());
    return false;
  }
  return true;
}

bool load_ledger(const char* path, obs::Ledger* ledger) {
  std::string err;
  if (!obs::Ledger::load(path, ledger, &err)) {
    std::fprintf(stderr, "tsr_gate: %s\n", err.c_str());
    return false;
  }
  if (ledger->torn_tail()) {
    std::fprintf(stderr,
                 "tsr_gate: %s: torn trailing line ignored (will be healed "
                 "by the next record)\n",
                 path);
  }
  return true;
}

int cmd_record(int argc, char** argv) {
  if (argc < 2) return usage();
  obs::Ledger ledger;
  if (!load_ledger(argv[0], &ledger)) return 1;
  for (int i = 1; i < argc; ++i) {
    obs::JsonValue doc;
    if (!load_json(argv[i], &doc)) return 1;
    obs::LedgerRecord rec;
    std::string err;
    if (!obs::ingest_document(doc, &rec, &err)) {
      std::fprintf(stderr, "tsr_gate: %s: %s\n", argv[i], err.c_str());
      return 1;
    }
    bool appended = false;
    if (!ledger.append(rec, &appended, &err)) {
      std::fprintf(stderr, "tsr_gate: %s: %s\n", argv[i], err.c_str());
      return 1;
    }
    if (appended) {
      std::printf("recorded %s as seq %lld (%zu metrics, git %s%s)\n",
                  rec.series_key().c_str(),
                  static_cast<long long>(ledger.records().back().seq),
                  rec.metrics.size(), rec.git_sha.c_str(),
                  rec.git_dirty ? "+dirty" : "");
    } else {
      std::printf("skipped %s: identical to the latest record\n",
                  rec.series_key().c_str());
    }
  }
  return 0;
}

int cmd_gate(int argc, char** argv, bool hard) {
  if (argc < 2) return usage();
  obs::GateOptions opt;
  bool verbose = false;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--deterministic-only") == 0) {
      opt.deterministic_only = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) return usage();
  obs::Ledger ledger;
  if (!load_ledger(argv[0], &ledger)) return 1;
  std::vector<obs::JsonValue> docs;
  for (const char* path : paths) {
    obs::JsonValue doc;
    if (!load_json(path, &doc)) return 1;
    docs.push_back(std::move(doc));
  }
  const obs::GateReport rep = obs::gate_documents(ledger, docs, opt);
  std::printf("%s", rep.to_string(verbose).c_str());
  if (hard && rep.failed()) {
    std::fprintf(stderr, "tsr_gate: gate FAILED against %s\n", argv[0]);
    return 1;
  }
  return 0;
}

bool load_record(const char* path, obs::LedgerRecord* rec) {
  obs::JsonValue doc;
  if (!load_json(path, &doc)) return false;
  std::string err;
  if (!obs::ingest_document(doc, rec, &err)) {
    std::fprintf(stderr, "tsr_gate: %s: %s\n", path, err.c_str());
    return false;
  }
  return true;
}

int cmd_diff(int argc, char** argv) {
  if (argc != 2) return usage();
  obs::LedgerRecord a, b;
  if (!load_record(argv[0], &a) || !load_record(argv[1], &b)) return 1;
  if (a.series_key() != b.series_key()) {
    std::printf("different documents: %s vs %s\n", a.series_key().c_str(),
                b.series_key().c_str());
    return 1;
  }
  const std::vector<obs::MetricDiff> diffs = obs::diff_deterministic(a, b);
  for (const obs::MetricDiff& d : diffs) {
    if (!d.b) {
      std::printf("%s: %.17g, only in %s\n", d.path.c_str(), *d.a, argv[0]);
    } else if (!d.a) {
      std::printf("%s: %.17g, only in %s\n", d.path.c_str(), *d.b, argv[1]);
    } else {
      std::printf("%s: %.17g -> %.17g\n", d.path.c_str(), *d.a, *d.b);
    }
  }
  std::size_t compared = 0;
  for (const auto& [path, value] : a.metrics) {
    (void)value;
    if (obs::classify_metric(path) == obs::MetricClass::Deterministic) {
      ++compared;
    }
  }
  std::printf("%s: %zu deterministic metrics, %zu differ\n",
              a.series_key().c_str(), compared, diffs.size());
  return diffs.empty() ? 0 : 1;
}

int cmd_history(int argc, char** argv) {
  if (argc < 1) return usage();
  std::string source, metric;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--source") == 0 && i + 1 < argc) {
      source = argv[++i];
    } else if (std::strcmp(argv[i], "--metric") == 0 && i + 1 < argc) {
      metric = argv[++i];
    } else {
      return usage();
    }
  }
  obs::Ledger ledger;
  if (!load_ledger(argv[0], &ledger)) return 1;
  if (source.empty() && metric.empty()) {
    // Series overview: count + latest provenance per series, in first-seen
    // order.
    std::vector<std::string> order;
    std::map<std::string, int> counts;
    for (const obs::LedgerRecord& rec : ledger.records()) {
      if (counts[rec.series_key()]++ == 0) order.push_back(rec.series_key());
    }
    for (const std::string& key : order) {
      const obs::LedgerRecord* last = ledger.latest(key);
      std::printf("%-40s %3d record%s latest seq %lld git %s%s %s W%lld\n",
                  key.c_str(), counts[key], counts[key] == 1 ? ", " : "s,",
                  static_cast<long long>(last->seq), last->git_sha.c_str(),
                  last->git_dirty ? "+dirty" : "", last->backend.c_str(),
                  static_cast<long long>(last->workers));
    }
    std::printf("%zu record(s), %zu series\n", ledger.records().size(),
                order.size());
    return 0;
  }
  int shown = 0;
  for (const obs::LedgerRecord& rec : ledger.records()) {
    if (!source.empty() &&
        rec.series_key().find(source) == std::string::npos) {
      continue;
    }
    if (!metric.empty()) {
      const double* v = rec.find_metric(metric);
      if (v == nullptr) continue;
      std::printf("seq %-4lld git %s%-7s %-18s %.17g\n",
                  static_cast<long long>(rec.seq), rec.git_sha.c_str(),
                  rec.git_dirty ? "+dirty" : "", rec.series_key().c_str(),
                  *v);
    } else {
      std::printf("seq %-4lld git %s%-7s %-18s %zu metrics, %s W%lld %s\n",
                  static_cast<long long>(rec.seq), rec.git_sha.c_str(),
                  rec.git_dirty ? "+dirty" : "", rec.series_key().c_str(),
                  rec.metrics.size(), rec.backend.c_str(),
                  static_cast<long long>(rec.workers),
                  rec.fault_plan.c_str());
    }
    shown += 1;
  }
  if (shown == 0) {
    std::printf("no matching records in %s\n", argv[0]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "record") return cmd_record(argc - 2, argv + 2);
  if (cmd == "compare") return cmd_gate(argc - 2, argv + 2, /*hard=*/false);
  if (cmd == "gate") return cmd_gate(argc - 2, argv + 2, /*hard=*/true);
  if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
  if (cmd == "history") return cmd_history(argc - 2, argv + 2);
  return usage();
}
