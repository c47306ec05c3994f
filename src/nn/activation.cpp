#include "nn/activation.hpp"

#include "tensor/kernel_registry.hpp"

namespace tsr::nn {

Tensor gelu(const Tensor& x, Tensor* dydx) {
  Tensor y = Tensor::like(x, x.shape());
  if (dydx != nullptr) {
    check(dydx->numel() == x.numel(), "gelu: derivative size mismatch");
  }
  if (y.is_phantom()) return y;
  active_kernel_variant().gelu(x.data(), y.data(),
                               dydx != nullptr ? dydx->data() : nullptr,
                               x.numel());
  return y;
}

}  // namespace tsr::nn
