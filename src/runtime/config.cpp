#include "runtime/config.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

namespace tsr {
namespace {

// An unset variable and an empty one mean the same: "not given".
const char* given(const EnvLookup& env, const char* name) {
  const char* v = env(name);
  return v != nullptr && *v != '\0' ? v : nullptr;
}

// The one number parser: the whole value must parse, or the run fails.
template <typename T>
bool read_number(const EnvLookup& env, const char* name, T* out) {
  const char* v = given(env, name);
  if (v == nullptr) return false;
  char* end = nullptr;
  if constexpr (std::is_floating_point_v<T>) {
    *out = static_cast<T>(std::strtod(v, &end));
  } else {
    *out = static_cast<T>(std::strtoll(v, &end, 10));
  }
  if (end == v || *end != '\0') {
    throw std::runtime_error(std::string(name) + ": not a number: " + v);
  }
  return true;
}

// The planner knobs are counts and a slowdown scale: all at least 1.
template <typename T>
void read_at_least_one(const EnvLookup& env, const char* name, T* out) {
  T v{};
  if (!read_number(env, name, &v)) return;
  if (!(v >= 1)) {
    throw std::runtime_error(std::string(name) + ": must be >= 1, got " +
                             env(name));
  }
  *out = v;
}

fault::FaultPlan plan_file(const char* v) {
  std::string text;
  if (v[0] == '{') {
    text = v;
  } else {
    std::ifstream in(v);
    if (!in) {
      throw std::runtime_error(
          std::string("TESSERACT_FAULT_PLAN: cannot read file: ") + v);
    }
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  }
  std::string error;
  fault::FaultPlan plan = fault::FaultPlan::from_json_text(text, &error);
  if (!error.empty()) {
    throw std::runtime_error("TESSERACT_FAULT_PLAN: " + error);
  }
  return plan;
}

fault::FaultPlan fault_plan(const EnvLookup& env) {
  if (const char* v = given(env, "TESSERACT_FAULT_PLAN")) return plan_file(v);
  fault::FaultPlan plan;
  read_number(env, "TESSERACT_FAULT_SEED", &plan.seed);
  read_number(env, "TESSERACT_FAULT_RECV_TIMEOUT_MS", &plan.recv_timeout_ms);
  fault::KillSpec kill;
  if (read_number(env, "TESSERACT_FAULT_KILL_RANK", &kill.rank)) {
    read_number(env, "TESSERACT_FAULT_KILL_AT_OP", &kill.at_op);
    read_number(env, "TESSERACT_FAULT_KILL_AT_TIME", &kill.at_time);
    if (kill.at_op < 0 && kill.at_time < 0) kill.at_op = 0;  // die at once
    plan.kills.push_back(kill);
  }
  fault::SlowRankSpec slow{.rank = -1, .scale = 2.0};
  if (read_number(env, "TESSERACT_FAULT_SLOW_RANK", &slow.rank)) {
    read_number(env, "TESSERACT_FAULT_SLOW_SCALE", &slow.scale);
    plan.slow_ranks.push_back(slow);
  }
  if (const char* v = given(env, "TESSERACT_FAULT_SLOW_LINK")) {
    // "src:dst"; either side may be -1 for "any".
    fault::SlowLinkSpec link;
    link.beta_scale = 2.0;
    char* end = nullptr;
    link.src = static_cast<int>(std::strtol(v, &end, 10));
    bool ok = end != v && *end == ':';
    if (ok) {
      const char* rest = end + 1;
      link.dst = static_cast<int>(std::strtol(rest, &end, 10));
      ok = end != rest && *end == '\0';
    }
    if (!ok) {
      throw std::runtime_error(
          std::string("TESSERACT_FAULT_SLOW_LINK: expected 'src:dst', got ") +
          v);
    }
    read_number(env, "TESSERACT_FAULT_LINK_SCALE", &link.beta_scale);
    plan.slow_links.push_back(link);
  }
  return plan;
}

const char* process_env(const char* name) { return std::getenv(name); }

}  // namespace

RunConfig parse_execution_config(const EnvLookup& env) {
  RunConfig cfg;
  long long n = 0;
  read_number(env, "TESSERACT_WORKERS", &n);
  if (n < 1) n = std::max(1u, std::thread::hardware_concurrency());
  cfg.workers = static_cast<int>(std::min(n, 64LL));
  if (const char* v = given(env, "TESSERACT_SPMD")) {
    cfg.spmd_threads = std::string(v) == "threads";
  }
  if (const char* v = given(env, "TESSERACT_KERNEL")) cfg.kernel = v;
  long long ms = 0;
  read_number(env, "TESSERACT_DEADLOCK_MS", &ms);
  cfg.deadlock_ms = static_cast<int>(std::clamp(ms, 0LL, 3600000LL));
  long long kb = 0;
  if (read_number(env, "TESSERACT_FIBER_STACK_KB", &kb) && kb >= 64) {
    cfg.fiber_stack_bytes = static_cast<std::size_t>(kb) * 1024;
  }
  if (const char* v = given(env, "TESSERACT_ARTIFACT_DIR")) {
    cfg.artifact_dir = v;
  }
  if (const char* v = given(env, "TESSERACT_RUN_LABEL")) cfg.run_label = v;
  return cfg;
}

RunConfig parse_run_config(const EnvLookup& env) {
  RunConfig cfg = parse_execution_config(env);
  if (const char* v = given(env, "TESSERACT_COMPRESS_DEPTH")) {
    cfg.compress_depth = std::string(v) != "0";
  }
  cfg.fault = fault_plan(env);
  read_at_least_one(env, "TESSERACT_PLAN_GPUS", &cfg.plan_gpus);
  read_at_least_one(env, "TESSERACT_PLAN_MICROS", &cfg.plan_micros);
  read_at_least_one(env, "TESSERACT_PLAN_MAX_STAGES", &cfg.plan_max_stages);
  read_at_least_one(env, "TESSERACT_PLAN_STRAGGLER_SCALE",
                    &cfg.plan_straggler_scale);
  return cfg;
}

RunConfig& run_config() {
  static RunConfig cfg = parse_execution_config(process_env);
  return cfg;
}

const RunConfig& config_from_env() {
  return run_config() = parse_run_config(process_env);
}

}  // namespace tsr
