#include "parallel/tesseract_linear.hpp"

#include "pdgemm/tesseract_mm.hpp"
#include "runtime/config.hpp"
#include "tensor/init.hpp"
#include "tensor/kernels.hpp"

namespace tsr::par {

TesseractLinear::TesseractLinear(TesseractContext& ctx, std::int64_t in_features,
                                 std::int64_t out_features, nn::Init init,
                                 bool with_bias)
    : ctx_(&ctx) {
  if (init.phantom()) {
    const int q = ctx_->q();
    check(in_features % q == 0 && out_features % q == 0,
          "TesseractLinear: features must be divisible by q");
    in_ = in_features;
    out_ = out_features;
    w = init.param({in_ / q, out_ / q});
    has_bias_ = with_bias;
    if (has_bias_) b = init.param({out_ / q});
    return;
  }
  Tensor full_w({in_features, out_features});
  xavier_uniform(full_w, init.rng());
  Tensor full_b = with_bias ? Tensor::zeros({out_features}) : Tensor();
  init_from_full(full_w, full_b);
}

TesseractLinear::TesseractLinear(TesseractContext& ctx,
                                 const Tensor& full_weight,
                                 const Tensor& full_bias)
    : ctx_(&ctx) {
  init_from_full(full_weight, full_bias);
}

void TesseractLinear::init_from_full(const Tensor& full_weight,
                                     const Tensor& full_bias) {
  check(full_weight.ndim() == 2, "TesseractLinear: weight must be 2-D");
  in_ = full_weight.dim(0);
  out_ = full_weight.dim(1);
  const int q = ctx_->q();
  check(in_ % q == 0 && out_ % q == 0,
        "TesseractLinear: features must be divisible by q");
  w = nn::Param({in_ / q, out_ / q});
  w.value.copy_from(pdg::distribute_b_layout(ctx_->comms(), full_weight));
  has_bias_ = !full_bias.empty();
  if (has_bias_) {
    check(full_bias.dim(0) == out_, "TesseractLinear: bias size mismatch");
    // Bias shard for column j, held authoritatively on grid row 0.
    b = nn::Param({out_ / q});
    b.value.copy_from(
        slice_block(full_bias.reshape({1, out_}), 0, ctx_->j() * (out_ / q), 1,
                    out_ / q)
            .reshape({out_ / q}));
  }
}

Tensor TesseractLinear::forward(const Tensor& x_local) {
  obs::ScopedTimer t = ctx_->timer("layer.linear.forward.sim_seconds");
  check(x_local.dim(-1) == in_ / ctx_->q(),
        "TesseractLinear::forward: local feature shard mismatch");
  x_stack_.push_back(x_local.as_matrix());
  Tensor y = pdg::tesseract_ab_local(ctx_->comms(), x_stack_.back(), w.value);
  if (has_bias_) {
    // Paper Section 3.2.2: broadcast the bias from row 0 down the column.
    Tensor bias_bcast = b.value.clone();
    ctx_->comms().col.broadcast(bias_bcast, /*root=*/0);
    add_bias(y, bias_bcast);
    ctx_->charge_memory(y.nbytes());
  }
  Shape out_shape = x_local.shape();
  out_shape.back() = out_ / ctx_->q();
  return y.reshape(std::move(out_shape));
}

Tensor TesseractLinear::backward(const Tensor& dy_local) {
  obs::ScopedTimer t = ctx_->timer("layer.linear.backward.sim_seconds");
  check(dy_local.dim(-1) == out_ / ctx_->q(),
        "TesseractLinear::backward: local feature shard mismatch");
  const Tensor dym = dy_local.as_matrix();
  Tensor x = nn::pop_cache(
      x_stack_, dy_local, "TesseractLinear::backward: forward() not called",
      [&] { return Tensor::like(dym, {dym.dim(0), in_ / ctx_->q()}); });

  // Weight gradient: dW = x^T dy, all-reduced along the depth line
  // (Section 3.1: the q^2 B partitions receive d*q^2 partial gradients).
  Tensor dw = pdg::tesseract_atb_local(ctx_->comms(), x, dym,
                                       /*depth_allreduce=*/true);
  axpy(1.0f, dw, w.grad);

  if (has_bias_) {
    // Bias gradient: column-sum locally, reduce to grid row 0, and keep the
    // depth replicas in sync.
    Tensor db = bias_grad(dym);
    ctx_->comms().col.reduce(db, /*root=*/0);
    if (ctx_->i() == 0) {
      if (ctx_->d() > 1) {
        if (run_config().compress_depth) {
          ctx_->comms().depth.all_reduce_compressed(db);
        } else {
          ctx_->comms().depth.all_reduce(db);
        }
      }
      axpy(1.0f, db, b.grad);
    }
  }

  // Input gradient: dx = dy W^T.
  Tensor dx = pdg::tesseract_abt_local(ctx_->comms(), dym, w.value);
  Shape in_shape = dy_local.shape();
  in_shape.back() = in_ / ctx_->q();
  return dx.reshape(std::move(in_shape));
}

std::int64_t TesseractLinear::cached_bytes() const {
  std::int64_t n = 0;
  for (const Tensor& t : x_stack_) n += t.nbytes();
  return n;
}

void TesseractLinear::zero_grad() {
  w.zero_grad();
  if (has_bias_) b.zero_grad();
}

std::vector<nn::Param*> TesseractLinear::params() {
  std::vector<nn::Param*> p{&w};
  // Only the owning row contributes the bias to the optimizer: replicas on
  // other rows never accumulate gradient and receive the value by broadcast.
  if (owns_bias()) p.push_back(&b);
  return p;
}

}  // namespace tsr::par
