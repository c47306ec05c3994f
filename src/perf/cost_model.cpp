#include "perf/cost_model.hpp"

#include <sstream>

#include "perf/trace.hpp"
#include "tensor/tensor.hpp"

namespace tsr::perf {

std::string scheme_name(Scheme s) {
  switch (s) {
    case Scheme::Megatron1D:
      return "Megatron-LM";
    case Scheme::Optimus2D:
      return "Optimus";
    case Scheme::Tesseract:
      return "Tesseract";
  }
  return "?";
}

int EvalConfig::total_ranks() const {
  if (scheme == Scheme::Megatron1D) return p;
  if (scheme == Scheme::Optimus2D) return q * q;
  return q * q * d;
}

std::string EvalConfig::shape_string() const {
  std::ostringstream os;
  if (scheme == Scheme::Megatron1D) {
    os << '[' << p << ']';
  } else if (scheme == Scheme::Optimus2D) {
    os << '[' << q << ',' << q << ']';
  } else {
    os << '[' << q << ',' << q << ',' << d << ']';
  }
  return os.str();
}

void replay_schedule(const EvalConfig& cfg, comm::Communicator& c,
                     bool backward) {
  // Every layer repeats the same schedule: after two, the rest run as one
  // segment program (Communicator::repeat).
  if (cfg.scheme == Scheme::Megatron1D) {
    c.repeat(cfg.layers, [&] {
      if (backward) {
        phantom_megatron_backward(c, cfg.dims);
      } else {
        phantom_megatron_forward(c, cfg.dims);
      }
    });
    return;
  }
  const int grid_d = cfg.scheme == Scheme::Optimus2D ? 1 : cfg.d;
  pdg::TesseractComms tc = pdg::TesseractComms::create(c, cfg.q, grid_d);
  c.repeat(cfg.layers, [&] {
    if (backward) {
      phantom_tesseract_backward(tc, cfg.dims);
    } else {
      phantom_tesseract_forward(tc, cfg.dims);
    }
  });
}

EvalResult evaluate(const EvalConfig& cfg) {
  const int ranks = cfg.total_ranks();
  check(ranks >= 1, "evaluate: configuration has no ranks");
  comm::World world(ranks, cfg.spec);
  world.install_fault_plan(cfg.fault);  // no-op for the default empty plan

  auto replay = [&](bool backward) {
    return [&, backward](comm::Communicator& c) {
      replay_schedule(cfg, c, backward);
    };
  };

  EvalResult res;
  Measurement fwd = measure(world, replay(false));
  res.fwd_seconds = fwd.sim_seconds;
  res.fwd_stats = fwd.total_stats;
  Measurement bwd = measure(world, replay(true));
  res.bwd_seconds = bwd.sim_seconds;
  res.bwd_stats = bwd.total_stats;
  res.phantom = world.rendezvous().counts();

  // The paper's text defines throughput as batch / time, but its printed
  // numbers are iteration rates: Table 1 Megatron-4 has
  // 1 / (0.1225 + 0.4749) = 1.6739, exactly the throughput column. We
  // reproduce the numbers' convention.
  res.throughput = 1.0 / (res.fwd_seconds + res.bwd_seconds);
  res.inference = 1.0 / res.fwd_seconds;
  return res;
}

obs::ExpectationProfile expectation_from_cost_model(const EvalConfig& cfg) {
  const int ranks = cfg.total_ranks();
  check(ranks >= 1, "expectation_from_cost_model: configuration has no ranks");
  comm::World world(ranks, cfg.spec);
  world.enable_metrics();
  EvalConfig one_layer = cfg;
  one_layer.layers = 1;
  world.run([&](comm::Communicator& c) {
    for (int l = 0; l < cfg.layers; ++l) {
      replay_schedule(one_layer, c, /*backward=*/false);
      replay_schedule(one_layer, c, /*backward=*/true);
    }
  });
  return obs::ExpectationProfile::from_snapshot(world.metrics().snapshot(),
                                                world.max_sim_time(), ranks);
}

}  // namespace tsr::perf
