#include "nn/softmax.hpp"

#include <algorithm>
#include <cmath>

namespace tsr::nn {

Tensor softmax(const Tensor& x) {
  check(x.ndim() >= 1, "softmax: needs at least 1-D input");
  const std::int64_t f = x.dim(-1);
  const std::int64_t rows = x.numel() / f;
  Tensor y = Tensor::like(x, x.shape());
  if (y.is_phantom()) return y;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x.data() + r * f;
    float* out = y.data() + r * f;
    float mx = row[0];
    for (std::int64_t i = 1; i < f; ++i) mx = std::max(mx, row[i]);
    double sum = 0.0;
    for (std::int64_t i = 0; i < f; ++i) {
      out[i] = std::exp(row[i] - mx);
      sum += out[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t i = 0; i < f; ++i) out[i] *= inv;
  }
  return y;
}

Tensor softmax_backward(const Tensor& y, const Tensor& dy) {
  check(y.numel() == dy.numel(), "softmax_backward: size mismatch");
  const std::int64_t f = y.dim(-1);
  const std::int64_t rows = y.numel() / f;
  Tensor dx = Tensor::like(y, y.shape());
  if (dx.is_phantom()) return dx;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* yr = y.data() + r * f;
    const float* dyr = dy.data() + r * f;
    float* dxr = dx.data() + r * f;
    double dot = 0.0;
    for (std::int64_t i = 0; i < f; ++i) dot += static_cast<double>(yr[i]) * dyr[i];
    const float d = static_cast<float>(dot);
    for (std::int64_t i = 0; i < f; ++i) dxr[i] = yr[i] * (dyr[i] - d);
  }
  return dx;
}

}  // namespace tsr::nn
