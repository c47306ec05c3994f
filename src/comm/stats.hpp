// Communication accounting, the measured counterpart of the paper's
// analytic communication-volume claims (Sections 1 and 3.1).
//
// Two levels are recorded:
//   * wire level  — every point-to-point message a collective's internal
//     algorithm sends (what actually crosses NVLink / InfiniBand);
//   * logical level — one entry per collective call with its payload size
//     (what the paper's formulas count).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace tsr::comm {

/// The Communicator's built-in collectives, in CommStats' fixed index order.
enum class CollectiveKind : std::uint8_t {
  Barrier,
  Broadcast,
  Reduce,
  AllReduce,
  AllReduceCompressed,
  AllGather,
  ReduceScatter,
  Gather,
  Scatter,
  AllToAll,
  Sendrecv,
};
inline constexpr std::size_t kCollectiveKinds = 11;

/// The key a kind's calls are recorded under ("broadcast", "all_reduce", ...).
const char* collective_name(CollectiveKind kind);

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
  // Entries are only ever added (reset() starts a fresh map).
  std::map<std::string, OpStats, std::less<>> collectives;

  void record_msg(std::int64_t bytes, bool inter_node);
  /// Per-call update of a built-in collective: after the kind's first call
  /// it touches the cached map entry, with no string compare.
  void record_collective(CollectiveKind kind, std::int64_t bytes);
  /// Accumulates `times` copies of `other` into this (cluster-wide totals;
  /// a segment program's remaining iterations).
  void merge(const CommStats& other, std::int64_t times = 1);
  /// What was recorded since `earlier`, an earlier copy of these stats.
  CommStats since(const CommStats& earlier) const;
  void reset();

  std::int64_t collective_calls() const;
  std::int64_t collective_bytes() const;
  /// Multi-line human-readable report.
  std::string to_string() const;

 private:
  // Entry of `collectives` per built-in kind, filled on the kind's first
  // call. Map nodes never move, so the pointers stay valid; a copy starts
  // with an empty cache because its pointers would name the source's map.
  struct KindCache {
    std::array<OpStats*, kCollectiveKinds> entry{};
    KindCache() = default;
    KindCache(const KindCache&) {}
    KindCache& operator=(const KindCache&) {
      entry = {};
      return *this;
    }
  };
  KindCache by_kind_;
};

}  // namespace tsr::comm
