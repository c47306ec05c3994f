// Test helpers for the run configuration. Tests sweep workers, backends and
// kernels through a scoped RunConfig override instead of editing the
// environment, and run the environment parsers against a fake lookup, so
// they pass whatever TESSERACT_* variables the shell holds.
#pragma once

#include <map>
#include <string>

#include "runtime/config.hpp"
#include "tensor/kernel_registry.hpp"

namespace tsr {

/// A fake environment for parse_run_config / parse_execution_config. The
/// lookup refers to `env`, so use it within the expression that built it.
inline EnvLookup fake_env(const std::map<std::string, std::string>& env) {
  return [&env](const char* name) -> const char* {
    const auto it = env.find(name);
    return it == env.end() ? nullptr : it->second.c_str();
  };
}

/// Fields assigned through the guard hold until it goes out of scope; then
/// the previous configuration, and the kernel variant it selects, return.
class ScopedRunConfig {
 public:
  ScopedRunConfig() : saved_(run_config()) {}
  ~ScopedRunConfig() {
    run_config() = saved_;
    force_kernel_variant(nullptr);
  }
  ScopedRunConfig(const ScopedRunConfig&) = delete;
  ScopedRunConfig& operator=(const ScopedRunConfig&) = delete;

  RunConfig* operator->() const { return &run_config(); }

 private:
  RunConfig saved_;
};

}  // namespace tsr
