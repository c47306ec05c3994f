#include "serve/workload.hpp"

#include <cmath>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace tsr::serve {

const char* pattern_name(ArrivalPattern p) {
  switch (p) {
    case ArrivalPattern::Poisson: return "poisson";
    case ArrivalPattern::Bursty: return "bursty";
    case ArrivalPattern::Diurnal: return "diurnal";
  }
  return "?";
}

double arrival_intensity(const WorkloadConfig& cfg, double t) {
  switch (cfg.pattern) {
    case ArrivalPattern::Poisson:
      return cfg.rate;
    case ArrivalPattern::Bursty: {
      const double phase = std::fmod(t, cfg.burst_period);
      const bool on = phase < cfg.burst_duty * cfg.burst_period;
      return on ? cfg.rate * cfg.burst_factor : cfg.rate;
    }
    case ArrivalPattern::Diurnal:
      return cfg.rate *
             (1.0 + cfg.diurnal_amplitude *
                        std::sin(2.0 * M_PI * t / cfg.diurnal_period));
  }
  return cfg.rate;
}

std::vector<Request> generate_requests(const WorkloadConfig& cfg,
                                       std::int64_t vocab) {
  check(cfg.rate > 0.0 && cfg.duration > 0.0,
        "generate_requests: rate and duration must be positive");
  check(cfg.prompt_min >= 1 && cfg.prompt_max >= cfg.prompt_min,
        "generate_requests: bad prompt length range");
  check(cfg.decode_min >= 1 && cfg.decode_max >= cfg.decode_min,
        "generate_requests: bad decode length range");
  check(cfg.diurnal_amplitude >= 0.0 && cfg.diurnal_amplitude <= 1.0,
        "generate_requests: diurnal amplitude must be in [0, 1]");
  check(cfg.burst_factor >= 1.0, "generate_requests: burst factor must be >= 1");
  check(vocab >= 1, "generate_requests: empty vocabulary");

  // Thinning (Lewis & Shedler): draw a homogeneous process at the peak
  // intensity, accept each point with intensity(t) / peak. One sequential
  // Rng stream covers gaps, acceptances and request shapes, so the whole
  // stream is one deterministic function of the seed.
  double peak = 1.0;
  if (cfg.pattern == ArrivalPattern::Bursty) peak = cfg.burst_factor;
  if (cfg.pattern == ArrivalPattern::Diurnal) peak = 1.0 + cfg.diurnal_amplitude;
  const double lambda_max = cfg.rate * peak;

  Rng rng(cfg.seed, 0x5E21);
  std::vector<Request> out;
  double t = 0.0;
  std::int64_t id = 0;
  for (;;) {
    // Exponential gap by inverse CDF; uniform() < 1 keeps the log finite.
    t += -std::log(1.0 - rng.uniform()) / lambda_max;
    if (t >= cfg.duration) break;
    if (rng.uniform() * lambda_max >= arrival_intensity(cfg, t)) continue;
    Request r;
    r.id = id++;
    r.arrival = t;
    r.deadline = t + cfg.slo_latency;
    const std::int64_t plen =
        cfg.prompt_min +
        static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(cfg.prompt_max - cfg.prompt_min + 1)));
    r.prompt.resize(static_cast<std::size_t>(plen));
    for (int& tok : r.prompt) {
      tok = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(vocab)));
    }
    r.decode_len =
        cfg.decode_min +
        static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(cfg.decode_max - cfg.decode_min + 1)));
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace tsr::serve
