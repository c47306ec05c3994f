// The GELU activation with explicit backward.
#pragma once

#include "nn/param.hpp"
#include "tensor/tensor.hpp"

namespace tsr::nn {

/// GELU (tanh approximation, as used by BERT/GPT-2/ViT), dispatched to the
/// active kernel variant's `gelu` (tensor/kernel_registry.hpp), which every
/// variant computes to the same bits. When `dydx` is non-null it receives
/// the derivative dy/dx at x (same shape), computed in the same pass as y,
/// so a backward pass is one multiply: dx = dy * dydx.
Tensor gelu(const Tensor& x, Tensor* dydx = nullptr);

/// Stateful wrapper caching each forward's derivative dy/dx (the same size
/// as its input) on a LIFO stack, so several forward passes may be in flight
/// before their backwards run in reverse order — the pattern GPipe-style
/// pipeline micro-batching requires.
class Gelu {
 public:
  Tensor forward(const Tensor& x) {
    Tensor dydx = Tensor::like(x, x.shape());
    Tensor y = gelu(x, &dydx);
    grad_stack_.push_back(std::move(dydx));
    return y;
  }
  /// dx = dy * dy/dx, written over the popped cache.
  Tensor backward(const Tensor& dy) {
    Tensor dx = pop_cache(grad_stack_, dy, "Gelu::backward: no forward in flight",
                          [&] { return Tensor::like(dy, dy.shape()); });
    check(dx.numel() == dy.numel(), "Gelu::backward: size mismatch");
    if (dx.is_phantom()) return dx;
    for (std::int64_t i = 0; i < dx.numel(); ++i) {
      dx.data()[i] = dy.data()[i] * dx.data()[i];
    }
    return dx;
  }
  /// Number of forwards awaiting their backward (pipeline depth).
  std::size_t in_flight() const { return grad_stack_.size(); }
  /// Drops all in-flight caches (activation-checkpointing support).
  void clear_caches() { grad_stack_.clear(); }
  /// Bytes currently held by in-flight caches.
  std::int64_t cached_bytes() const {
    std::int64_t n = 0;
    for (const Tensor& t : grad_stack_) n += t.nbytes();
    return n;
  }

 private:
  std::vector<Tensor> grad_stack_;
};

}  // namespace tsr::nn
