// SLO-aware continuous batcher: the serving main loop.
//
// An open-loop arrival stream (serve/workload.hpp) feeds an admission queue
// (serve/queue.hpp); a fixed grid of decode slots (serve/engine.hpp) packs
// whatever requests are live into one Tesseract forward per token. Prefill
// runs through the same KV-cache decode path one token at a time, so a
// request's logits are bit-identical to a full-recompute forward no matter
// which slot it lands in or what its neighbors are doing.
//
// Time is the simulated clock: each iteration the ranks agree on max(now)
// (an all-gather of clock bits — the synchronization a real serving step
// implies), so admissions, deadlines and latencies are identical on every
// rank and every scheduler backend.
#pragma once

#include <vector>

#include "comm/communicator.hpp"
#include "serve/engine.hpp"
#include "serve/queue.hpp"
#include "serve/workload.hpp"

namespace tsr::serve {

struct ServingConfig {
  train::LmConfig model;
  int q = 1;  ///< Tesseract grid: q*q*d ranks
  int d = 1;
  std::int64_t slots = 4;        ///< decode batch size; divides by d*q
  std::size_t queue_depth = 64;  ///< admission queue bound
  std::uint64_t weight_seed = 42;
  WorkloadConfig workload;
};

struct CompletionRecord {
  std::int64_t id = 0;
  double arrival = 0.0;
  double finish = 0.0;
  double latency = 0.0;  ///< finish - arrival
  bool slo_ok = false;   ///< finish <= deadline
  std::int64_t prompt_len = 0;
  std::int64_t decode_len = 0;
};

struct ServingResult {
  std::vector<CompletionRecord> completed;  ///< in completion order
  ShedStats shed;
  std::vector<std::pair<std::int64_t, RejectReason>> rejects;
  std::int64_t offered = 0;  ///< total arrivals in the stream
  double makespan = 0.0;     ///< agreed sim time when the last slot drained
  double p50 = 0.0;          ///< exact nearest-rank over sorted latencies
  double p99 = 0.0;
  double goodput = 0.0;      ///< SLO-met completions per sim-second
  double shed_rate = 0.0;    ///< shed / offered
  std::int64_t steps = 0;
  std::int64_t tokens_generated = 0;
};

/// Exact nearest-rank quantile of `values` (unsorted, copied); the serving
/// report's p50/p99 use this rather than bucketed histograms.
double exact_quantile(std::vector<double> values, double q);

/// Runs the serving loop on `world` (which must have q*q*d ranks) and
/// returns the identical, fully replicated result. When the world has
/// metrics enabled, rank 0 records the serve.* metric family and every rank
/// records its serve.step.sim_seconds timer.
ServingResult run_serving(comm::World& world, const ServingConfig& cfg);

}  // namespace tsr::serve
