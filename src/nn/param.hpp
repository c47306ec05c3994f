// Trainable parameter (value + gradient accumulator), where layers get
// their weights from, and the forward-cache pop every layer's backward uses.
#pragma once

#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace tsr::nn {

struct Param {
  Tensor value;
  Tensor grad;

  Param() = default;
  explicit Param(Shape shape)
      : value(Tensor::zeros(shape)), grad(Tensor::zeros(std::move(shape))) {}
  /// A phantom parameter: value and grad are both `t` (a storage-free
  /// handle; a real tensor would make them share storage).
  explicit Param(const Tensor& t) : value(t), grad(t) {}

  void zero_grad() { grad.fill(0.0f); }
  std::int64_t numel() const { return value.numel(); }
};

/// Where a layer's weights come from: real tensors (random ones drawn from
/// an Rng), or phantoms of an element size with nothing drawn, sliced or
/// allocated (the replay of perf/cost_model.hpp). Converts implicitly from
/// an Rng, so a layer constructor taking an Init takes an Rng too.
class Init {
 public:
  Init() = default;  // real weights that need no draws
  Init(Rng& rng) : rng_(&rng) {}  // NOLINT: implicit by design
  static Init phantom(std::int64_t elem_bytes) {
    Init init;
    init.phantom_bytes_ = elem_bytes;
    return init;
  }

  bool phantom() const { return phantom_bytes_ > 0; }
  Rng& rng() const {
    check(rng_ != nullptr, "nn::Init: these weights need an Rng");
    return *rng_;
  }
  /// A zero-initialized parameter of `shape`, or a phantom one.
  Param param(Shape shape) const {
    if (!phantom()) return Param(std::move(shape));
    return Param(Tensor::phantom(std::move(shape), phantom_bytes_));
  }

 private:
  Rng* rng_ = nullptr;
  std::int64_t phantom_bytes_ = 0;
};

/// Pops the newest forward cache off a layer's LIFO. A phantom backward with
/// nothing in flight gets `phantom_cache()` instead: the replay times a
/// backward pass on its own, so its layers never ran forward.
template <class T, class Make>
T pop_cache(std::vector<T>& stack, const Tensor& dy, const char* what,
            Make&& phantom_cache) {
  if (stack.empty()) {
    check(dy.is_phantom(), what);
    return phantom_cache();
  }
  T cache = std::move(stack.back());
  stack.pop_back();
  return cache;
}

}  // namespace tsr::nn
