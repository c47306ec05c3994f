#include "fault/fault.hpp"

#include <cstdio>
#include <mutex>
#include <sstream>

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
  return kills.empty() && delays.empty() && drops.empty() &&
         duplicates.empty() && slow_ranks.empty() && slow_links.empty() &&
         recv_timeout_ms <= 0;
}

// ---- JSON round trip --------------------------------------------------------

obs::JsonValue FaultPlan::to_json() const {
  obs::JsonValue root = obs::JsonValue::object();
  root["seed"] = obs::JsonValue(static_cast<std::int64_t>(seed));
  root["recv_timeout_ms"] = obs::JsonValue(recv_timeout_ms);
  root["max_retries"] = obs::JsonValue(max_retries);
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
  obs::JsonValue& dr = root["drops"] = obs::JsonValue::array();
  for (const DropSpec& d : drops) {
    obs::JsonValue o = obs::JsonValue::object();
    o["src"] = obs::JsonValue(d.src);
    o["dst"] = obs::JsonValue(d.dst);
    o["count"] = obs::JsonValue(d.count);
    o["times"] = obs::JsonValue(d.times);
    o["retransmit_after"] = obs::JsonValue(d.retransmit_after);
    dr.push_back(std::move(o));
  }
  obs::JsonValue& du = root["duplicates"] = obs::JsonValue::array();
  for (const DuplicateSpec& d : duplicates) {
    obs::JsonValue o = obs::JsonValue::object();
    o["src"] = obs::JsonValue(d.src);
    o["dst"] = obs::JsonValue(d.dst);
    o["probability"] = obs::JsonValue(d.probability);
    o["count"] = obs::JsonValue(d.count);
    du.push_back(std::move(o));
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

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

// Reads a numeric field if present; false (with *error set) on a
// wrong-typed value, true otherwise. Missing fields keep the default.
bool read_int(const obs::JsonValue& o, const char* key, std::int64_t* out,
              std::string* error) {
  const obs::JsonValue* v = o.find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    return fail(error, std::string("fault plan: field '") + key +
                           "' must be a number");
  }
  *out = v->as_int();
  return true;
}

bool read_double(const obs::JsonValue& o, const char* key, double* out,
                 std::string* error) {
  const obs::JsonValue* v = o.find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) {
    return fail(error, std::string("fault plan: field '") + key +
                           "' must be a number");
  }
  *out = v->as_double();
  return true;
}

// Iterates an optional array member; false when present but not an array.
bool member_array(const obs::JsonValue& root, const char* key,
                  const std::vector<obs::JsonValue>** items,
                  std::string* error) {
  *items = nullptr;
  const obs::JsonValue* v = root.find(key);
  if (v == nullptr) return true;
  if (!v->is_array()) {
    return fail(error,
                std::string("fault plan: '") + key + "' must be an array");
  }
  *items = &v->items();
  return true;
}

}  // namespace

FaultPlan FaultPlan::from_json(const obs::JsonValue& root, std::string* error) {
  FaultPlan plan;
  std::string err;
  if (!root.is_object()) {
    fail(&err, "fault plan: document must be a JSON object");
    if (error != nullptr) *error = err;
    return FaultPlan{};
  }
  std::int64_t seed = static_cast<std::int64_t>(plan.seed);
  std::int64_t timeout = plan.recv_timeout_ms;
  std::int64_t retries = plan.max_retries;
  bool ok = read_int(root, "seed", &seed, &err) &&
            read_int(root, "recv_timeout_ms", &timeout, &err) &&
            read_int(root, "max_retries", &retries, &err);
  plan.seed = static_cast<std::uint64_t>(seed);
  plan.recv_timeout_ms = static_cast<int>(timeout);
  plan.max_retries = static_cast<int>(retries);

  const std::vector<obs::JsonValue>* items = nullptr;
  ok = ok && member_array(root, "kills", &items, &err);
  if (ok && items != nullptr) {
    for (const obs::JsonValue& o : *items) {
      KillSpec k;
      std::int64_t rank = k.rank;
      ok = ok && read_int(o, "rank", &rank, &err) &&
           read_int(o, "at_op", &k.at_op, &err) &&
           read_double(o, "at_time", &k.at_time, &err);
      k.rank = static_cast<int>(rank);
      plan.kills.push_back(k);
    }
  }
  ok = ok && member_array(root, "delays", &items, &err);
  if (ok && items != nullptr) {
    for (const obs::JsonValue& o : *items) {
      DelaySpec d;
      std::int64_t src = d.src, dst = d.dst;
      ok = ok && read_int(o, "src", &src, &err) &&
           read_int(o, "dst", &dst, &err) &&
           read_double(o, "seconds", &d.seconds, &err) &&
           read_double(o, "jitter", &d.jitter, &err) &&
           read_double(o, "probability", &d.probability, &err) &&
           read_int(o, "count", &d.count, &err);
      d.src = static_cast<int>(src);
      d.dst = static_cast<int>(dst);
      plan.delays.push_back(d);
    }
  }
  ok = ok && member_array(root, "drops", &items, &err);
  if (ok && items != nullptr) {
    for (const obs::JsonValue& o : *items) {
      DropSpec d;
      std::int64_t src = d.src, dst = d.dst, times = d.times;
      ok = ok && read_int(o, "src", &src, &err) &&
           read_int(o, "dst", &dst, &err) &&
           read_int(o, "count", &d.count, &err) &&
           read_int(o, "times", &times, &err) &&
           read_double(o, "retransmit_after", &d.retransmit_after, &err);
      d.src = static_cast<int>(src);
      d.dst = static_cast<int>(dst);
      d.times = static_cast<int>(times);
      plan.drops.push_back(d);
    }
  }
  ok = ok && member_array(root, "duplicates", &items, &err);
  if (ok && items != nullptr) {
    for (const obs::JsonValue& o : *items) {
      DuplicateSpec d;
      std::int64_t src = d.src, dst = d.dst;
      ok = ok && read_int(o, "src", &src, &err) &&
           read_int(o, "dst", &dst, &err) &&
           read_double(o, "probability", &d.probability, &err) &&
           read_int(o, "count", &d.count, &err);
      d.src = static_cast<int>(src);
      d.dst = static_cast<int>(dst);
      plan.duplicates.push_back(d);
    }
  }
  ok = ok && member_array(root, "slow_ranks", &items, &err);
  if (ok && items != nullptr) {
    for (const obs::JsonValue& o : *items) {
      SlowRankSpec s;
      std::int64_t rank = s.rank;
      ok = ok && read_int(o, "rank", &rank, &err) &&
           read_double(o, "scale", &s.scale, &err);
      s.rank = static_cast<int>(rank);
      plan.slow_ranks.push_back(s);
    }
  }
  ok = ok && member_array(root, "slow_links", &items, &err);
  if (ok && items != nullptr) {
    for (const obs::JsonValue& o : *items) {
      SlowLinkSpec s;
      std::int64_t src = s.src, dst = s.dst;
      ok = ok && read_int(o, "src", &src, &err) &&
           read_int(o, "dst", &dst, &err) &&
           read_double(o, "alpha_scale", &s.alpha_scale, &err) &&
           read_double(o, "beta_scale", &s.beta_scale, &err);
      s.src = static_cast<int>(src);
      s.dst = static_cast<int>(dst);
      plan.slow_links.push_back(s);
    }
  }
  if (!ok) {
    if (error != nullptr) *error = err;
    return FaultPlan{};
  }
  if (error != nullptr) error->clear();
  return plan;
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
