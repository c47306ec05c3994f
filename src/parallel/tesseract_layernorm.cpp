#include "parallel/tesseract_layernorm.hpp"

#include <cmath>
#include <span>
#include <vector>

#include "runtime/config.hpp"
#include "tensor/kernels.hpp"

namespace tsr::par {
namespace {

// The sums LayerNorm all-reduces (per row, or per feature for gamma/beta):
// host floats for a real input — outside the tensor-memory gauge, as they
// always were — and for a phantom input a phantom of the same count and
// element size.
class Sums {
 public:
  Sums(const Tensor& input, std::int64_t n)
      : host_(input.is_phantom() ? 0 : static_cast<std::size_t>(n), 0.0f) {
    if (input.is_phantom()) phantom_ = Tensor::phantom({n}, input.elem_bytes());
  }

  float& operator[](std::int64_t i) {
    return host_[static_cast<std::size_t>(i)];
  }
  void all_reduce(comm::Communicator& c) {
    if (phantom_.is_phantom()) return c.all_reduce(phantom_);
    c.all_reduce(std::span<float>(host_));
  }
  void all_reduce_compressed(comm::Communicator& c) {
    if (phantom_.is_phantom()) return c.all_reduce_compressed(phantom_);
    c.all_reduce_compressed(std::span<float>(host_));
  }

 private:
  std::vector<float> host_;
  Tensor phantom_;
};

}  // namespace

TesseractLayerNorm::TesseractLayerNorm(TesseractContext& ctx,
                                       std::int64_t features, nn::Init init,
                                       float eps)
    : ctx_(&ctx), features_(features), eps_(eps) {
  check(features % ctx.q() == 0,
        "TesseractLayerNorm: features must be divisible by q");
  const std::int64_t local = features / ctx.q();
  gamma = init.param({local});
  gamma.value.fill(1.0f);
  beta = init.param({local});
}

Tensor TesseractLayerNorm::forward(const Tensor& x_local) {
  obs::ScopedTimer timer_ = ctx_->timer("layer.layernorm.forward.sim_seconds");
  const std::int64_t lf = gamma.value.dim(0);
  check(x_local.dim(-1) == lf, "TesseractLayerNorm::forward: shard mismatch");
  const std::int64_t rows = x_local.numel() / lf;

  // Partial sums of x and x^2 per row, packed as [sum | sumsq] for a single
  // all-reduce along the grid row (the full h is spread over the row).
  // Phantom rows (x_local.is_phantom()) skip every loop.
  const std::int64_t real_rows = x_local.is_phantom() ? 0 : rows;
  Sums stats(x_local, 2 * rows);
  const float* px = x_local.data();
  for (std::int64_t r = 0; r < real_rows; ++r) {
    double s = 0.0;
    double s2 = 0.0;
    const float* row = px + r * lf;
    for (std::int64_t i = 0; i < lf; ++i) {
      s += row[i];
      s2 += static_cast<double>(row[i]) * row[i];
    }
    stats[r] = static_cast<float>(s);
    stats[rows + r] = static_cast<float>(s2);
  }
  stats.all_reduce(ctx_->comms().row);
  ctx_->charge_memory(x_local.nbytes());

  Tensor y = Tensor::like(x_local, x_local.shape());
  Cache cache{Tensor::like(x_local, x_local.shape()),
              Tensor::like(x_local, {rows})};
  const float inv_h = 1.0f / static_cast<float>(features_);
  for (std::int64_t r = 0; r < real_rows; ++r) {
    const float m = stats[r] * inv_h;
    const float var = stats[rows + r] * inv_h - m * m;
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
  const std::int64_t lf = gamma.value.dim(0);
  const std::int64_t rows = dy_local.numel() / lf;
  Cache cache = nn::pop_cache(
      cache_stack_, dy_local, "TesseractLayerNorm::backward: forward() missing",
      [&] {
        return Cache{Tensor::like(dy_local, dy_local.shape()),
                     Tensor::like(dy_local, {rows})};
      });
  check(dy_local.numel() == cache.xhat.numel(),
        "TesseractLayerNorm::backward: size mismatch");

  // Partial row sums of dxhat and dxhat*xhat (eq. 14), one all-reduce.
  // gamma/beta contributions go into a local scratch first so repeated
  // backward calls (gradient accumulation) never re-reduce prior sums.
  const std::int64_t real_rows = dy_local.is_phantom() ? 0 : rows;
  Sums stats(dy_local, 2 * rows);
  Sums gb(dy_local, 2 * lf);
  const float* pdy = dy_local.data();
  const float* pxh = cache.xhat.data();
  for (std::int64_t r = 0; r < real_rows; ++r) {
    double s = 0.0;
    double sx = 0.0;
    for (std::int64_t i = 0; i < lf; ++i) {
      const float dxh = pdy[r * lf + i] * gamma.value.at(i);
      s += dxh;
      sx += static_cast<double>(dxh) * pxh[r * lf + i];
      gb[i] += pdy[r * lf + i] * pxh[r * lf + i];
      gb[lf + i] += pdy[r * lf + i];
    }
    stats[r] = static_cast<float>(s);
    stats[rows + r] = static_cast<float>(sx);
  }
  stats.all_reduce(ctx_->comms().row);
  ctx_->charge_memory(dy_local.nbytes());

  // Keep the gamma/beta replicas consistent: their rows are spread over the
  // grid column and the depth line.
  gb.all_reduce(ctx_->comms().col);
  if (ctx_->d() > 1) {
    if (run_config().compress_depth) {
      gb.all_reduce_compressed(ctx_->comms().depth);
    } else {
      gb.all_reduce(ctx_->comms().depth);
    }
  }
  Tensor dx = Tensor::like(dy_local, dy_local.shape());
  if (dx.is_phantom()) return dx;
  for (std::int64_t i = 0; i < lf; ++i) {
    gamma.grad.at(i) += gb[i];
    beta.grad.at(i) += gb[lf + i];
  }

  const float inv_h = 1.0f / static_cast<float>(features_);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float mean_dxh = stats[r] * inv_h;
    const float mean_dxh_xh = stats[rows + r] * inv_h;
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
  for (const Cache& c : cache_stack_) n += c.xhat.nbytes() + c.inv_std.nbytes();
  return n;
}

void TesseractLayerNorm::zero_grad() {
  gamma.zero_grad();
  beta.zero_grad();
}

std::vector<nn::Param*> TesseractLayerNorm::params() { return {&gamma, &beta}; }

}  // namespace tsr::par
