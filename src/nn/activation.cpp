#include "nn/activation.hpp"

#include <cmath>

namespace tsr::nn {
namespace {
constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCoef = 0.044715f;
}  // namespace

Tensor gelu(const Tensor& x, Tensor* dydx) {
  Tensor y = Tensor::like(x, x.shape());
  if (dydx != nullptr) {
    check(dydx->numel() == x.numel(), "gelu: derivative size mismatch");
  }
  if (y.is_phantom()) return y;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float v = x.data()[i];
    const float u = kSqrt2OverPi * (v + kGeluCoef * v * v * v);
    const float t = std::tanh(u);
    y.data()[i] = 0.5f * v * (1.0f + t);
    if (dydx != nullptr) {
      const float du = kSqrt2OverPi * (1.0f + 3.0f * kGeluCoef * v * v);
      dydx->data()[i] = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    }
  }
  return y;
}

Tensor relu(const Tensor& x) {
  Tensor y(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    y.data()[i] = x.data()[i] > 0.0f ? x.data()[i] : 0.0f;
  }
  return y;
}

Tensor relu_backward(const Tensor& x, const Tensor& dy) {
  check(x.numel() == dy.numel(), "relu_backward: size mismatch");
  Tensor dx(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    dx.data()[i] = x.data()[i] > 0.0f ? dy.data()[i] : 0.0f;
  }
  return dx;
}

}  // namespace tsr::nn
