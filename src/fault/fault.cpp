#include "fault/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <type_traits>

namespace tsr::fault {

namespace {

std::string ranks_to_string(const std::vector<int>& ranks) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) os << ',';
    os << ranks[i];
  }
  os << '}';
  return os.str();
}

}  // namespace

RankKilled::RankKilled(int rank, std::int64_t op, double sim_time)
    : std::runtime_error("fault injection: rank " + std::to_string(rank) +
                         " killed at op " + std::to_string(op) + ", t=" +
                         std::to_string(sim_time) + "s"),
      rank_(rank) {}

PeerFailure::PeerFailure(std::vector<int> failed_ranks)
    : std::runtime_error("peer failure: dead ranks " +
                         ranks_to_string(failed_ranks)),
      failed_ranks_(std::move(failed_ranks)) {}

RecvTimeout::RecvTimeout(int src, std::uint64_t tag, int timeout_ms)
    : std::runtime_error("recv timeout: no message from rank " +
                         std::to_string(src) + " (tag " + std::to_string(tag) +
                         ") within " + std::to_string(timeout_ms) +
                         " ms and no peer known dead"),
      src_(src) {}

bool FaultPlan::empty() const {
  return kills.empty() && delays.empty() && slow_ranks.empty() &&
         slow_links.empty() && recv_timeout_ms <= 0;
}

// ---- JSON round trip --------------------------------------------------------

obs::JsonValue FaultPlan::to_json() const {
  obs::JsonValue root = obs::JsonValue::object();
  root["seed"] = obs::JsonValue(static_cast<std::int64_t>(seed));
  root["recv_timeout_ms"] = obs::JsonValue(recv_timeout_ms);
  obs::JsonValue& ks = root["kills"] = obs::JsonValue::array();
  for (const KillSpec& k : kills) {
    obs::JsonValue o = obs::JsonValue::object();
    o["rank"] = obs::JsonValue(k.rank);
    if (k.at_op >= 0) o["at_op"] = obs::JsonValue(k.at_op);
    if (k.at_time >= 0) o["at_time"] = obs::JsonValue(k.at_time);
    ks.push_back(std::move(o));
  }
  obs::JsonValue& ds = root["delays"] = obs::JsonValue::array();
  for (const DelaySpec& d : delays) {
    obs::JsonValue o = obs::JsonValue::object();
    o["src"] = obs::JsonValue(d.src);
    o["dst"] = obs::JsonValue(d.dst);
    o["seconds"] = obs::JsonValue(d.seconds);
    o["jitter"] = obs::JsonValue(d.jitter);
    o["probability"] = obs::JsonValue(d.probability);
    o["count"] = obs::JsonValue(d.count);
    ds.push_back(std::move(o));
  }
  obs::JsonValue& sr = root["slow_ranks"] = obs::JsonValue::array();
  for (const SlowRankSpec& s : slow_ranks) {
    obs::JsonValue o = obs::JsonValue::object();
    o["rank"] = obs::JsonValue(s.rank);
    o["scale"] = obs::JsonValue(s.scale);
    sr.push_back(std::move(o));
  }
  obs::JsonValue& sl = root["slow_links"] = obs::JsonValue::array();
  for (const SlowLinkSpec& s : slow_links) {
    obs::JsonValue o = obs::JsonValue::object();
    o["src"] = obs::JsonValue(s.src);
    o["dst"] = obs::JsonValue(s.dst);
    o["alpha_scale"] = obs::JsonValue(s.alpha_scale);
    o["beta_scale"] = obs::JsonValue(s.beta_scale);
    sl.push_back(std::move(o));
  }
  return root;
}

namespace {

// Reads one JSON object of the plan schema. Each read names a key it
// accepts; done() then rejects any member the reads did not name, so a
// misspelt or retired key fails loudly instead of running a healthy plan.
// Missing members keep their defaults. The first error wins.
class ObjectReader {
 public:
  ObjectReader(const obs::JsonValue& o, std::string where, std::string* error)
      : o_(o), where_(std::move(where)), error_(error) {
    if (!o_.is_object()) fail(where_ + " must be a JSON object");
  }

  template <typename T>
  void number(const char* key, T* out) {
    const obs::JsonValue* v = lookup(key);
    if (v == nullptr) return;
    if (!v->is_number()) {
      fail(where_ + ": field '" + key + "' must be a number");
    } else if constexpr (std::is_floating_point_v<T>) {
      *out = v->as_double();
    } else {
      *out = static_cast<T>(v->as_int());
    }
  }

  /// Calls read(item, where) for each element of an optional array member.
  template <typename F>
  void array(const char* key, F&& read) {
    const obs::JsonValue* v = lookup(key);
    if (v == nullptr) return;
    if (!v->is_array()) {
      fail(where_ + ": '" + key + "' must be an array");
      return;
    }
    for (std::size_t i = 0; i < v->items().size() && ok(); ++i) {
      read(v->items()[i], std::string(key) + "[" + std::to_string(i) + "]");
    }
  }

  bool done() {
    for (const auto& member : o_.members()) {
      if (std::find(known_.begin(), known_.end(), member.first) ==
          known_.end()) {
        fail(where_ + ": unknown key '" + member.first + "'");
      }
    }
    return ok();
  }

 private:
  bool ok() const { return error_->empty(); }
  const obs::JsonValue* lookup(const char* key) {
    known_.push_back(key);
    return ok() ? o_.find(key) : nullptr;
  }
  void fail(const std::string& why) {
    if (ok()) *error_ = "fault plan: " + why;
  }

  const obs::JsonValue& o_;
  std::string where_;
  std::string* error_;
  std::vector<const char*> known_;
};

}  // namespace

FaultPlan FaultPlan::from_json(const obs::JsonValue& root, std::string* error) {
  FaultPlan plan;
  std::string err;
  ObjectReader top(root, "document", &err);
  top.number("seed", &plan.seed);
  top.number("recv_timeout_ms", &plan.recv_timeout_ms);
  top.array("kills", [&](const obs::JsonValue& o, const std::string& where) {
    KillSpec k;
    ObjectReader r(o, where, &err);
    r.number("rank", &k.rank);
    r.number("at_op", &k.at_op);
    r.number("at_time", &k.at_time);
    if (r.done()) plan.kills.push_back(k);
  });
  top.array("delays", [&](const obs::JsonValue& o, const std::string& where) {
    DelaySpec d;
    ObjectReader r(o, where, &err);
    r.number("src", &d.src);
    r.number("dst", &d.dst);
    r.number("seconds", &d.seconds);
    r.number("jitter", &d.jitter);
    r.number("probability", &d.probability);
    r.number("count", &d.count);
    if (r.done()) plan.delays.push_back(d);
  });
  top.array("slow_ranks",
            [&](const obs::JsonValue& o, const std::string& where) {
              SlowRankSpec s;
              ObjectReader r(o, where, &err);
              r.number("rank", &s.rank);
              r.number("scale", &s.scale);
              if (r.done()) plan.slow_ranks.push_back(s);
            });
  top.array("slow_links",
            [&](const obs::JsonValue& o, const std::string& where) {
              SlowLinkSpec s;
              ObjectReader r(o, where, &err);
              r.number("src", &s.src);
              r.number("dst", &s.dst);
              r.number("alpha_scale", &s.alpha_scale);
              r.number("beta_scale", &s.beta_scale);
              if (r.done()) plan.slow_links.push_back(s);
            });
  const bool ok = top.done();
  if (error != nullptr) *error = err;
  return ok ? plan : FaultPlan{};
}

FaultPlan FaultPlan::from_json_text(const std::string& text,
                                    std::string* error) {
  std::string parse_error;
  obs::JsonValue root = obs::json_parse(text, &parse_error);
  if (root.is_null()) {
    if (error != nullptr) *error = "fault plan: " + parse_error;
    return FaultPlan{};
  }
  return from_json(root, error);
}

// ---- Fingerprint ------------------------------------------------------------

namespace {

std::mutex g_fingerprint_mu;
std::string g_active_fingerprint = "none";  // guarded by g_fingerprint_mu

}  // namespace

std::string plan_fingerprint(const FaultPlan& plan) {
  if (plan.empty()) return "none";
  const std::string text = plan.to_json().dump();
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a 64
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

void note_installed_plan(const FaultPlan& plan) {
  if (plan.empty()) return;
  const std::string fp = plan_fingerprint(plan);
  std::lock_guard<std::mutex> lock(g_fingerprint_mu);
  g_active_fingerprint = fp;
}

std::string active_plan_fingerprint() {
  std::lock_guard<std::mutex> lock(g_fingerprint_mu);
  return g_active_fingerprint;
}

}  // namespace tsr::fault
