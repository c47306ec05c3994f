#include "nn/layernorm.hpp"

#include <cmath>

#include "tensor/kernels.hpp"

namespace tsr::nn {

LayerNorm::LayerNorm(std::int64_t features, Init init, float eps)
    : gamma(init.param({features})), beta(init.param({features})), eps_(eps) {
  gamma.value.fill(1.0f);
}

Tensor LayerNorm::forward(const Tensor& x) {
  const std::int64_t f = gamma.value.dim(0);
  check(x.dim(-1) == f, "LayerNorm::forward: feature mismatch");
  const std::int64_t rows = x.numel() / f;
  Tensor y = Tensor::like(x, x.shape());
  xhat_cache_ = Tensor::like(x, x.shape());
  inv_std_cache_ = Tensor::like(x, {rows});
  if (y.is_phantom()) return y;
  const float* px = x.data();
  float* py = y.data();
  float* pxh = xhat_cache_.data();
  float* pinv = inv_std_cache_.data();
  const float* pgamma = gamma.value.data();
  const float* pbeta = beta.value.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = px + r * f;
    // Row statistics via sum(x), sum(x^2) — the distributed layer computes
    // exactly these partial sums before its row all-reduce.
    double s = 0.0;
    double s2 = 0.0;
    for (std::int64_t i = 0; i < f; ++i) {
      s += row[i];
      s2 += static_cast<double>(row[i]) * row[i];
    }
    const double m = s / static_cast<double>(f);
    const double var = s2 / static_cast<double>(f) - m * m;
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
    pinv[r] = inv_std;
    float* xhr = pxh + r * f;
    float* yr = py + r * f;
    for (std::int64_t i = 0; i < f; ++i) {
      const float xh = (row[i] - static_cast<float>(m)) * inv_std;
      xhr[i] = xh;
      yr[i] = pgamma[i] * xh + pbeta[i];
    }
  }
  return y;
}

Tensor LayerNorm::backward(const Tensor& dy) {
  const std::int64_t f = gamma.value.dim(0);
  const std::int64_t rows = dy.numel() / f;
  // A phantom backward needs no cache: the replay may time one alone.
  if (dy.is_phantom()) return Tensor::like(dy, dy.shape());
  check(!xhat_cache_.empty(), "LayerNorm::backward: forward() not called");
  check(dy.numel() == xhat_cache_.numel(), "LayerNorm::backward: size mismatch");
  Tensor dx(dy.shape());
  const float* pdy = dy.data();
  const float* pxh = xhat_cache_.data();
  const float* pinv = inv_std_cache_.data();
  const float* pgamma = gamma.value.data();
  float* pdgamma = gamma.grad.data();
  float* pdbeta = beta.grad.data();
  float* pdx = dx.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* dyr = pdy + r * f;
    const float* xhr = pxh + r * f;
    float* dxr = pdx + r * f;
    // dxhat = dy * gamma; dx follows eq. (14): the two row sums below are
    // what the distributed version all-reduces.
    double sum_dxh = 0.0;
    double sum_dxh_xh = 0.0;
    for (std::int64_t i = 0; i < f; ++i) {
      const float dxh = dyr[i] * pgamma[i];
      sum_dxh += dxh;
      sum_dxh_xh += static_cast<double>(dxh) * xhr[i];
      pdgamma[i] += dyr[i] * xhr[i];
      pdbeta[i] += dyr[i];
    }
    const float inv_std = pinv[r];
    const float mean_dxh = static_cast<float>(sum_dxh / static_cast<double>(f));
    const float mean_dxh_xh =
        static_cast<float>(sum_dxh_xh / static_cast<double>(f));
    for (std::int64_t i = 0; i < f; ++i) {
      const float dxh = dyr[i] * pgamma[i];
      dxr[i] = (dxh - mean_dxh - xhr[i] * mean_dxh_xh) * inv_std;
    }
  }
  return dx;
}

void LayerNorm::zero_grad() {
  gamma.zero_grad();
  beta.zero_grad();
}

std::vector<Param*> LayerNorm::params() { return {&gamma, &beta}; }

}  // namespace tsr::nn
