// Seeded open-loop request generator for the serving front-end.
//
// Three arrival processes — Poisson, bursty (on/off square wave) and diurnal
// (sinusoidal rate modulation) — all realized by thinning a homogeneous
// Poisson process driven by the counter-based Rng. Generation is a pure
// function of (config, vocab): the same seed yields a bit-identical request
// stream on every scheduler backend, which the serving determinism gate and
// the cross-backend BENCH_serving byte-diff rely on.
#pragma once

#include <cstdint>
#include <vector>

namespace tsr::serve {

enum class ArrivalPattern { Poisson, Bursty, Diurnal };

const char* pattern_name(ArrivalPattern p);

struct WorkloadConfig {
  ArrivalPattern pattern = ArrivalPattern::Poisson;
  double rate = 200.0;    ///< mean arrivals per simulated second (base rate)
  double duration = 1.0;  ///< arrivals land in [0, duration) sim-seconds
  std::int64_t prompt_min = 4;
  std::int64_t prompt_max = 8;
  std::int64_t decode_min = 4;
  std::int64_t decode_max = 8;
  double slo_latency = 0.25;  ///< per-request deadline = arrival + this
  std::uint64_t seed = 1;
  // Bursty: square wave multiplying the base rate — `burst_factor`x for the
  // first `burst_duty` fraction of each `burst_period`, 1x for the rest.
  double burst_period = 0.25;
  double burst_duty = 0.5;
  double burst_factor = 4.0;
  // Diurnal: rate * (1 + amplitude * sin(2*pi*t / period)), amplitude <= 1.
  double diurnal_period = 1.0;
  double diurnal_amplitude = 0.8;
};

struct Request {
  std::int64_t id = 0;
  double arrival = 0.0;
  double deadline = 0.0;          ///< arrival + slo_latency
  std::vector<int> prompt;        ///< token ids in [0, vocab)
  std::int64_t decode_len = 0;    ///< tokens to generate after the prompt
};

/// Instantaneous arrival intensity of `cfg` at time `t` (for tests and for
/// the thinning acceptance step).
double arrival_intensity(const WorkloadConfig& cfg, double t);

/// The full arrival stream for `cfg`, ascending in arrival time; `vocab`
/// bounds the prompt token ids. Deterministic host code, no clock involved.
std::vector<Request> generate_requests(const WorkloadConfig& cfg,
                                       std::int64_t vocab);

}  // namespace tsr::serve
