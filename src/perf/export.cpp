#include "perf/export.hpp"

#include <thread>
#include <utility>

#include "fault/fault.hpp"
#include "runtime/config.hpp"
#include "runtime/fiber.hpp"
#include "tensor/cpu_features.hpp"
#include "tensor/kernel_registry.hpp"

// Build-time git provenance (cmake/git_stamp.cmake). The fallback keeps
// non-CMake compiles (and tarball builds) working with the same "unknown"
// stamp the script emits outside a checkout.
#if __has_include("tsr_git_stamp.h")
#include "tsr_git_stamp.h"
#else
#define TSR_GIT_SHA "unknown"
#define TSR_GIT_DIRTY 0
#endif

namespace tsr::perf {

void stamp_envelope(obs::JsonValue& root, const std::string& kind) {
  root["schema_version"] = kReportSchemaVersion;
  root["kind"] = kind;
  root["backend"] = rt::fibers_enabled() ? "fibers" : "threads";
  root["workers"] = static_cast<std::int64_t>(run_config().workers);
  root["host_cores"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  // Which micro-kernel produced the math and what the host could run:
  // cross-machine BENCH comparisons need both to name the hardware tier.
  root["kernel_variant"] = std::string(active_kernel_variant().name);
  root["cpu_features"] = cpu_features_string();
  // Unlike the host fields above, the fault-plan fingerprint describes the
  // *experiment*, so diffing does NOT skip it: comparing runs under
  // different plans fails loudly instead of reading as numeric drift.
  root["fault_plan"] = fault::active_plan_fingerprint();
  // Which commit built the binary, and whether the tree had uncommitted
  // changes. Provenance only — environment fields like the ones above, so
  // diffing skips them; the ledger keys perf history to them.
  root["git_sha"] = std::string(TSR_GIT_SHA);
  root["git_dirty"] = static_cast<bool>(TSR_GIT_DIRTY);
  const std::string& label = run_config().run_label;
  if (!label.empty()) root["run_label"] = label;
}

obs::JsonValue stats_to_json(const comm::CommStats& stats) {
  obs::JsonValue j = obs::JsonValue::object();
  j["msgs_sent"] = stats.msgs_sent;
  j["bytes_sent"] = stats.bytes_sent;
  j["bytes_intra_node"] = stats.bytes_intra_node;
  j["bytes_inter_node"] = stats.bytes_inter_node;
  obs::JsonValue colls = obs::JsonValue::object();
  for (const auto& [name, op] : stats.collectives) {
    obs::JsonValue o = obs::JsonValue::object();
    o["calls"] = op.calls;
    o["bytes"] = op.bytes;
    colls[name] = std::move(o);
  }
  j["collectives"] = std::move(colls);
  return j;
}

obs::JsonValue measurement_to_json(const Measurement& m) {
  obs::JsonValue j = obs::JsonValue::object();
  j["sim_seconds"] = m.sim_seconds;
  j["total_stats"] = stats_to_json(m.total_stats);
  return j;
}

obs::JsonValue snapshot_to_json(const obs::Snapshot& snap) {
  obs::JsonValue j = obs::JsonValue::object();
  obs::JsonValue counters = obs::JsonValue::object();
  for (const auto& [name, v] : snap.counters) counters[name] = v;
  j["counters"] = std::move(counters);
  obs::JsonValue gauges = obs::JsonValue::object();
  for (const auto& [name, v] : snap.gauges) gauges[name] = v;
  j["gauges"] = std::move(gauges);
  obs::JsonValue hists = obs::JsonValue::object();
  for (const auto& [name, h] : snap.histograms) {
    obs::JsonValue o = obs::JsonValue::object();
    o["count"] = h.count;
    o["sum"] = h.sum;
    o["min"] = h.min;
    o["max"] = h.max;
    o["mean"] = h.mean();
    // Sparse bucket dump: {floor_seconds: count} for non-empty buckets only
    // (64 mostly-zero entries per histogram would swamp the report).
    obs::JsonValue buckets = obs::JsonValue::object();
    for (int i = 0; i < obs::HistogramData::kBuckets; ++i) {
      if (h.buckets[static_cast<std::size_t>(i)] > 0) {
        buckets[std::to_string(obs::HistogramData::bucket_floor(i))] =
            h.buckets[static_cast<std::size_t>(i)];
      }
    }
    o["buckets"] = std::move(buckets);
    hists[name] = std::move(o);
  }
  j["histograms"] = std::move(hists);
  return j;
}

BenchReport::BenchReport(std::string bench_name)
    : root_(obs::JsonValue::object()) {
  stamp_envelope(root_, "bench");
  root_["bench"] = std::move(bench_name);
  root_["cases"] = obs::JsonValue::array();
}

obs::JsonValue& BenchReport::add_case(const std::string& name) {
  obs::JsonValue c = obs::JsonValue::object();
  c["name"] = name;
  obs::JsonValue& cases = root_["cases"];
  cases.push_back(std::move(c));
  return cases.back();
}

obs::JsonValue& BenchReport::add_case(const std::string& name,
                                      const Measurement& m) {
  obs::JsonValue& c = add_case(name);
  c["measurement"] = measurement_to_json(m);
  return c;
}

bool BenchReport::write(const std::string& path) const {
  return obs::write_json_file(obs::artifact_path(path), root_, 2);
}

}  // namespace tsr::perf
