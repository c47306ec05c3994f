// Communication accounting, the measured counterpart of the paper's
// analytic communication-volume claims (Sections 1 and 3.1).
//
// Two levels are recorded:
//   * wire level  — every point-to-point message a collective's internal
//     algorithm sends (what actually crosses NVLink / InfiniBand);
//   * logical level — one entry per collective call with its payload size
//     (what the paper's formulas count).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace tsr::comm {

struct OpStats {
  std::int64_t calls = 0;
  std::int64_t bytes = 0;
};

struct CommStats {
  // Wire level.
  std::int64_t msgs_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_intra_node = 0;
  std::int64_t bytes_inter_node = 0;

  // Logical level, keyed by collective name ("broadcast", "all_reduce", ...).
  // Transparent comparator: lookups by string_view build no std::string.
  std::map<std::string, OpStats, std::less<>> collectives;

  void record_msg(std::int64_t bytes, bool inter_node);
  void record_collective(std::string_view name, std::int64_t bytes);
  /// Accumulates `other` into this (for cluster-wide totals).
  void merge(const CommStats& other);
  void reset();

  std::int64_t collective_calls() const;
  std::int64_t collective_bytes() const;
  /// Multi-line human-readable report.
  std::string to_string() const;
};

}  // namespace tsr::comm
