// Execution context for a rank of a Tesseract tensor-parallel group.
#pragma once

#include "comm/communicator.hpp"
#include "pdgemm/block.hpp"

namespace tsr::par {

/// Bundles the grid communicators of one rank with the timing helpers the
/// parallel layers use. Construct once per rank per model.
class TesseractContext {
 public:
  /// `parent` must have exactly q*q*d ranks in depth-major order.
  TesseractContext(comm::Communicator& parent, int q, int d)
      : tc_(pdg::TesseractComms::create(parent, q, d)) {}

  pdg::TesseractComms& comms() { return tc_; }
  const pdg::TesseractComms& comms() const { return tc_; }

  int q() const { return tc_.q; }
  int d() const { return tc_.d; }
  int i() const { return tc_.i; }
  int j() const { return tc_.j; }
  int k() const { return tc_.k; }

  /// Charges the modeled time of a local memory-bound kernel (bias add,
  /// activation, residual, ...) touching `bytes` bytes.
  void charge_memory(std::int64_t bytes) {
    pdg::charge_memory_bound(tc_.grid, bytes);
  }

  /// Charges the modeled time of a local GEMM (used by kernels executed
  /// outside the pdgemm routines, e.g. per-head attention scores).
  void charge_gemm(std::int64_t m, std::int64_t n, std::int64_t k) {
    pdg::charge_gemm(tc_.grid, m, n, k);
  }

  /// Scoped per-op timer over this rank's simulated clock, recorded into the
  /// world metrics registry; a no-op unless World::enable_metrics() was
  /// called. Layers wrap forward/backward bodies in one of these; `name` is
  /// a literal.
  obs::ScopedTimer timer(const char* name) {
    comm::World& w = tc_.grid.world();
    return obs::ScopedTimer(w.metrics_enabled() ? &w.metrics() : nullptr,
                            &tc_.grid.clock(), name);
  }

 private:
  pdg::TesseractComms tc_;
};

}  // namespace tsr::par
