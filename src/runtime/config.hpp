// Run configuration: the one place the TESSERACT_* environment is read.
//
// Execution fields choose how a run executes: host workers, SPMD backend,
// GEMM kernel, deadlock watchdog, fiber stacks, and where exported
// artifacts land and how they are labelled. None of them changes a
// simulated or numeric result. They are parsed from the environment on the
// first call of run_config(), so a shell that exports TESSERACT_WORKERS=4
// reaches every binary, test binaries included.
//
// Result fields (depth compression, the fault plan and the planner knobs)
// change what a run computes. They keep their defaults unless a bench or
// tool main calls config_from_env(). Test binaries and examples never do,
// so they give the same results whatever the caller's shell holds.
//
// Code that sweeps a field (worker counts, backends, kernels) assigns it on
// run_config() between runs instead of editing the environment.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "fault/fault.hpp"

namespace tsr {

struct RunConfig {
  // ---- Execution: how a run executes, never what it computes.
  /// TESSERACT_WORKERS: host worker threads for the fiber scheduler and the
  /// GEMM pool, clamped to [1, 64]; unset, the hardware concurrency.
  int workers = 1;
  /// TESSERACT_SPMD=threads: one OS thread per rank instead of fibers.
  bool spmd_threads = false;
  /// TESSERACT_KERNEL: forced kernel variant; empty = best by cpuid.
  std::string kernel;
  /// TESSERACT_DEADLOCK_MS: thread-backend watchdog window; 0 = off.
  int deadlock_ms = 0;
  /// TESSERACT_FIBER_STACK_KB (at least 64): stack size per rank fiber.
  /// Rank fibers run real layer code, so stacks are sized like small
  /// thread stacks, not coroutine stacks.
  std::size_t fiber_stack_bytes = std::size_t{1} << 20;
  /// TESSERACT_ARTIFACT_DIR: directory for exported artifacts; empty = cwd.
  std::string artifact_dir;
  /// TESSERACT_RUN_LABEL: free-form tag stamped into report envelopes.
  std::string run_label;

  // ---- Results: set only by config_from_env().
  /// TESSERACT_COMPRESS_DEPTH: bf16 wire compression of the depth
  /// all-reduce (comm/compress.hpp).
  bool compress_depth = false;
  /// TESSERACT_FAULT_*: a plan every new World installs.
  fault::FaultPlan fault;
  /// TESSERACT_PLAN_*: planner overrides (perf::AutotuneConfig); 0 keeps
  /// the search default.
  int plan_gpus = 0;
  int plan_micros = 0;
  int plan_max_stages = 0;
  double plan_straggler_scale = 0.0;
};

/// Value of an environment variable, or nullptr when it is unset.
using EnvLookup = std::function<const char*(const char*)>;

/// Parses the execution fields through `lookup`; the result fields keep
/// their defaults. Malformed numbers throw std::runtime_error.
RunConfig parse_execution_config(const EnvLookup& lookup);

/// Parses every field through `lookup`. TESSERACT_FAULT_PLAN (inline JSON
/// when it starts with '{', else a plan file path) wins over the scalar
/// TESSERACT_FAULT_* variables. Malformed values throw std::runtime_error:
/// a misconfigured experiment must fail loudly, not run the wrong thing.
RunConfig parse_run_config(const EnvLookup& lookup);

/// The process configuration. The first call parses the execution fields
/// from the environment.
RunConfig& run_config();

/// Replaces run_config() with every field parsed from the environment,
/// results included. Bench and tool mains call it before any library use.
const RunConfig& config_from_env();

}  // namespace tsr
