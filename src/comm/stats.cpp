#include "comm/stats.hpp"

#include <sstream>

namespace tsr::comm {

void CommStats::record_msg(std::int64_t bytes, bool inter_node) {
  msgs_sent += 1;
  bytes_sent += bytes;
  if (inter_node) {
    bytes_inter_node += bytes;
  } else {
    bytes_intra_node += bytes;
  }
}

const char* collective_name(CollectiveKind kind) {
  static constexpr const char* kNames[kCollectiveKinds] = {
      "barrier",    "broadcast",      "reduce",  "all_reduce",
      "all_reduce_compressed",        "all_gather", "reduce_scatter",
      "gather",     "scatter",        "all_to_all", "sendrecv"};
  return kNames[static_cast<std::size_t>(kind)];
}

void CommStats::record_collective(CollectiveKind kind, std::int64_t bytes) {
  OpStats*& op = by_kind_.entry[static_cast<std::size_t>(kind)];
  if (op == nullptr) op = &collectives[collective_name(kind)];
  op->calls += 1;
  op->bytes += bytes;
}

void CommStats::merge(const CommStats& other, std::int64_t times) {
  msgs_sent += times * other.msgs_sent;
  bytes_sent += times * other.bytes_sent;
  bytes_intra_node += times * other.bytes_intra_node;
  bytes_inter_node += times * other.bytes_inter_node;
  for (const auto& [name, op] : other.collectives) {
    OpStats& mine = collectives[name];
    mine.calls += times * op.calls;
    mine.bytes += times * op.bytes;
  }
}

CommStats CommStats::since(const CommStats& earlier) const {
  CommStats d;
  d.msgs_sent = msgs_sent - earlier.msgs_sent;
  d.bytes_sent = bytes_sent - earlier.bytes_sent;
  d.bytes_intra_node = bytes_intra_node - earlier.bytes_intra_node;
  d.bytes_inter_node = bytes_inter_node - earlier.bytes_inter_node;
  for (const auto& [name, op] : collectives) {
    OpStats& out = d.collectives[name];
    out = op;
    const auto it = earlier.collectives.find(name);
    if (it != earlier.collectives.end()) {
      out.calls -= it->second.calls;
      out.bytes -= it->second.bytes;
    }
  }
  return d;
}

void CommStats::reset() { *this = CommStats{}; }

std::int64_t CommStats::collective_calls() const {
  std::int64_t n = 0;
  for (const auto& [name, op] : collectives) n += op.calls;
  return n;
}

std::int64_t CommStats::collective_bytes() const {
  std::int64_t n = 0;
  for (const auto& [name, op] : collectives) n += op.bytes;
  return n;
}

std::string CommStats::to_string() const {
  std::ostringstream os;
  os << "wire: " << msgs_sent << " msgs, " << bytes_sent << " bytes ("
     << bytes_intra_node << " intra-node, " << bytes_inter_node
     << " inter-node)\n";
  for (const auto& [name, op] : collectives) {
    os << "  " << name << ": " << op.calls << " calls, " << op.bytes
       << " bytes\n";
  }
  return os.str();
}

}  // namespace tsr::comm
