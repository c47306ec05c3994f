#include "parallel/tesseract_layernorm.hpp"

#include <cmath>

#include "runtime/config.hpp"
#include "tensor/kernels.hpp"

namespace tsr::par {

TesseractLayerNorm::TesseractLayerNorm(TesseractContext& ctx,
                                       std::int64_t features, float eps)
    : ctx_(&ctx), features_(features), eps_(eps) {
  check(features % ctx.q() == 0,
        "TesseractLayerNorm: features must be divisible by q");
  const std::int64_t local = features / ctx.q();
  gamma = nn::Param({local});
  gamma.value.fill(1.0f);
  beta = nn::Param({local});
}

Tensor TesseractLayerNorm::forward(const Tensor& x_local) {
  obs::ScopedTimer timer_ = ctx_->timer("layer.layernorm.forward.sim_seconds");
  const std::int64_t lf = gamma.value.dim(0);
  check(x_local.dim(-1) == lf, "TesseractLayerNorm::forward: shard mismatch");
  const std::int64_t rows = x_local.numel() / lf;

  // Partial sums of x and x^2 per row, packed as [sum | sumsq] for a single
  // all-reduce along the grid row (the full h is spread over the row).
  std::vector<float> stats(static_cast<std::size_t>(2 * rows), 0.0f);
  const float* px = x_local.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    double s = 0.0;
    double s2 = 0.0;
    const float* row = px + r * lf;
    for (std::int64_t i = 0; i < lf; ++i) {
      s += row[i];
      s2 += static_cast<double>(row[i]) * row[i];
    }
    stats[static_cast<std::size_t>(r)] = static_cast<float>(s);
    stats[static_cast<std::size_t>(rows + r)] = static_cast<float>(s2);
  }
  ctx_->comms().row.all_reduce(stats);
  ctx_->charge_memory(x_local.numel() * static_cast<std::int64_t>(sizeof(float)));

  Tensor y(x_local.shape());
  Cache cache{Tensor(x_local.shape()), Tensor({rows})};
  const float inv_h = 1.0f / static_cast<float>(features_);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float m = stats[static_cast<std::size_t>(r)] * inv_h;
    const float var = stats[static_cast<std::size_t>(rows + r)] * inv_h - m * m;
    const float inv_std = 1.0f / std::sqrt(var + eps_);
    cache.inv_std.at(r) = inv_std;
    const float* row = px + r * lf;
    for (std::int64_t i = 0; i < lf; ++i) {
      const float xh = (row[i] - m) * inv_std;
      cache.xhat.data()[r * lf + i] = xh;
      y.data()[r * lf + i] = gamma.value.at(i) * xh + beta.value.at(i);
    }
  }
  cache_stack_.push_back(std::move(cache));
  return y;
}

Tensor TesseractLayerNorm::backward(const Tensor& dy_local) {
  obs::ScopedTimer timer_ = ctx_->timer("layer.layernorm.backward.sim_seconds");
  check(!cache_stack_.empty(),
        "TesseractLayerNorm::backward: forward() missing");
  Cache cache = std::move(cache_stack_.back());
  cache_stack_.pop_back();
  const std::int64_t lf = gamma.value.dim(0);
  check(dy_local.numel() == cache.xhat.numel(),
        "TesseractLayerNorm::backward: size mismatch");
  const std::int64_t rows = dy_local.numel() / lf;

  // Partial row sums of dxhat and dxhat*xhat (eq. 14), one all-reduce.
  // gamma/beta contributions go into a local scratch first so repeated
  // backward calls (gradient accumulation) never re-reduce prior sums.
  std::vector<float> stats(static_cast<std::size_t>(2 * rows), 0.0f);
  std::vector<float> gb(static_cast<std::size_t>(2 * lf), 0.0f);
  const float* pdy = dy_local.data();
  const float* pxh = cache.xhat.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    double s = 0.0;
    double sx = 0.0;
    for (std::int64_t i = 0; i < lf; ++i) {
      const float dxh = pdy[r * lf + i] * gamma.value.at(i);
      s += dxh;
      sx += static_cast<double>(dxh) * pxh[r * lf + i];
      gb[static_cast<std::size_t>(i)] += pdy[r * lf + i] * pxh[r * lf + i];
      gb[static_cast<std::size_t>(lf + i)] += pdy[r * lf + i];
    }
    stats[static_cast<std::size_t>(r)] = static_cast<float>(s);
    stats[static_cast<std::size_t>(rows + r)] = static_cast<float>(sx);
  }
  ctx_->comms().row.all_reduce(stats);
  ctx_->charge_memory(dy_local.numel() * static_cast<std::int64_t>(sizeof(float)));

  // Keep the gamma/beta replicas consistent: their rows are spread over the
  // grid column and the depth line.
  ctx_->comms().col.all_reduce(gb);
  if (ctx_->d() > 1) {
    if (run_config().compress_depth) {
      ctx_->comms().depth.all_reduce_compressed(gb);
    } else {
      ctx_->comms().depth.all_reduce(gb);
    }
  }
  for (std::int64_t i = 0; i < lf; ++i) {
    gamma.grad.at(i) += gb[static_cast<std::size_t>(i)];
    beta.grad.at(i) += gb[static_cast<std::size_t>(lf + i)];
  }

  Tensor dx(dy_local.shape());
  const float inv_h = 1.0f / static_cast<float>(features_);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float mean_dxh = stats[static_cast<std::size_t>(r)] * inv_h;
    const float mean_dxh_xh = stats[static_cast<std::size_t>(rows + r)] * inv_h;
    const float inv_std = cache.inv_std.at(r);
    for (std::int64_t i = 0; i < lf; ++i) {
      const float dxh = pdy[r * lf + i] * gamma.value.at(i);
      dx.data()[r * lf + i] =
          (dxh - mean_dxh - pxh[r * lf + i] * mean_dxh_xh) * inv_std;
    }
  }
  return dx;
}

std::int64_t TesseractLayerNorm::cached_bytes() const {
  std::int64_t n = 0;
  for (const Cache& c : cache_stack_) n += c.xhat.numel() + c.inv_std.numel();
  return n * static_cast<std::int64_t>(sizeof(float));
}

void TesseractLayerNorm::zero_grad() {
  gamma.zero_grad();
  beta.zero_grad();
}

std::vector<nn::Param*> TesseractLayerNorm::params() { return {&gamma, &beta}; }

}  // namespace tsr::par
