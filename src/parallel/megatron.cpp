#include "parallel/megatron.hpp"

#include <cmath>

#include "nn/attention.hpp"
#include "nn/softmax.hpp"
#include "parallel/dist.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/kernels.hpp"

namespace tsr::par {

// ---- MegatronColumnLinear ----------------------------------------------------

MegatronColumnLinear::MegatronColumnLinear(MegatronContext& ctx,
                                           std::int64_t in, std::int64_t out,
                                           nn::Init init, bool with_bias)
    : ctx_(&ctx) {
  if (init.phantom()) {
    check(out % ctx.p() == 0, "MegatronColumnLinear: out not divisible by p");
    in_ = in;
    out_ = out;
    w = init.param({in, out / ctx.p()});
    has_bias_ = with_bias;
    if (has_bias_) b = init.param({out / ctx.p()});
    return;
  }
  Tensor full_w({in, out});
  xavier_uniform(full_w, init.rng());
  init_from_full(full_w, with_bias ? Tensor::zeros({out}) : Tensor());
}

MegatronColumnLinear::MegatronColumnLinear(MegatronContext& ctx,
                                           const Tensor& full_w,
                                           const Tensor& full_b)
    : ctx_(&ctx) {
  init_from_full(full_w, full_b);
}

void MegatronColumnLinear::init_from_full(const Tensor& full_w,
                                          const Tensor& full_b) {
  in_ = full_w.dim(0);
  out_ = full_w.dim(1);
  const int p = ctx_->p();
  check(out_ % p == 0, "MegatronColumnLinear: out not divisible by p");
  const std::int64_t lout = out_ / p;
  w = nn::Param({in_, lout});
  w.value.copy_from(slice_block(full_w, 0, ctx_->rank() * lout, in_, lout));
  has_bias_ = !full_b.empty();
  if (has_bias_) {
    b = nn::Param({lout});
    b.value.copy_from(slice_block(full_b.reshape({1, out_}), 0,
                                  ctx_->rank() * lout, 1, lout)
                          .reshape({lout}));
  }
}

Tensor MegatronColumnLinear::forward(const Tensor& x) {
  check(x.dim(-1) == in_, "MegatronColumnLinear::forward: feature mismatch");
  x_cache_ = x.as_matrix();
  Tensor y = matmul(x_cache_, w.value);
  ctx_->charge_gemm(x_cache_.dim(0), w.value.dim(1), in_);
  if (has_bias_) {
    add_bias(y, b.value);
    ctx_->charge_memory(y.nbytes());
  }
  Shape out_shape = x.shape();
  out_shape.back() = out_ / ctx_->p();
  return y.reshape(std::move(out_shape));
}

Tensor MegatronColumnLinear::backward(const Tensor& dy) {
  const Tensor dym = dy.as_matrix();
  // A phantom backward timed alone (the replay) gets a phantom input.
  if (x_cache_.empty() && dy.is_phantom()) {
    x_cache_ = Tensor::like(dy, {dym.dim(0), in_});
  }
  check(!x_cache_.empty(), "MegatronColumnLinear::backward: forward() missing");
  matmul_acc(x_cache_, dym, w.grad, Trans::T, Trans::N);
  ctx_->charge_gemm(in_, dym.dim(1), dym.dim(0));
  if (has_bias_) axpy(1.0f, bias_grad(dym), b.grad);
  Tensor dx = matmul(dym, w.value, Trans::N, Trans::T);
  ctx_->charge_gemm(dym.dim(0), in_, dym.dim(1));
  // The "g" operator of Megatron-LM: partial input gradients are summed
  // across the group because each rank saw only its column shard.
  ctx_->comm().all_reduce(dx);
  Shape in_shape = dy.shape();
  in_shape.back() = in_;
  return dx.reshape(std::move(in_shape));
}

void MegatronColumnLinear::zero_grad() {
  w.zero_grad();
  if (has_bias_) b.zero_grad();
}

std::vector<nn::Param*> MegatronColumnLinear::params() {
  std::vector<nn::Param*> p{&w};
  if (has_bias_) p.push_back(&b);
  return p;
}

// ---- MegatronRowLinear -------------------------------------------------------

MegatronRowLinear::MegatronRowLinear(MegatronContext& ctx, std::int64_t in,
                                     std::int64_t out, nn::Init init,
                                     bool with_bias)
    : ctx_(&ctx), in_(in), out_(out), has_bias_(with_bias) {
  const int p = ctx.p();
  check(in % p == 0, "MegatronRowLinear: in not divisible by p");
  const std::int64_t lin = in / p;
  w = init.param({lin, out});
  if (has_bias_) b = init.param({out});
  if (init.phantom()) return;
  Tensor full_w({in, out});
  xavier_uniform(full_w, init.rng());
  w.value.copy_from(slice_block(full_w, ctx.rank() * lin, 0, lin, out));
}

Tensor MegatronRowLinear::forward(const Tensor& x) {
  check(x.dim(-1) == in_ / ctx_->p(),
        "MegatronRowLinear::forward: expected the local input shard");
  x_cache_ = x.as_matrix();
  Tensor y = matmul(x_cache_, w.value);
  ctx_->charge_gemm(x_cache_.dim(0), out_, x_cache_.dim(1));
  // The "f" operator: sum the partial products across the group.
  ctx_->comm().all_reduce(y);
  if (has_bias_) {
    add_bias(y, b.value);
    ctx_->charge_memory(y.nbytes());
  }
  Shape out_shape = x.shape();
  out_shape.back() = out_;
  return y.reshape(std::move(out_shape));
}

Tensor MegatronRowLinear::backward(const Tensor& dy) {
  const Tensor dym = dy.as_matrix();
  if (x_cache_.empty() && dy.is_phantom()) {
    x_cache_ = Tensor::like(dy, {dym.dim(0), in_ / ctx_->p()});
  }
  check(!x_cache_.empty(), "MegatronRowLinear::backward: forward() missing");
  matmul_acc(x_cache_, dym, w.grad, Trans::T, Trans::N);
  ctx_->charge_gemm(x_cache_.dim(1), out_, dym.dim(0));
  if (has_bias_) {
    // dy is replicated, so every rank computes the identical full bias
    // gradient; replicas stay in sync without communication.
    axpy(1.0f, bias_grad(dym), b.grad);
  }
  Tensor dx = matmul(dym, w.value, Trans::N, Trans::T);
  ctx_->charge_gemm(dym.dim(0), x_cache_.dim(1), out_);
  Shape in_shape = dy.shape();
  in_shape.back() = in_ / ctx_->p();
  return dx.reshape(std::move(in_shape));
}

void MegatronRowLinear::zero_grad() {
  w.zero_grad();
  if (has_bias_) b.zero_grad();
}

std::vector<nn::Param*> MegatronRowLinear::params() {
  std::vector<nn::Param*> p{&w};
  // Row-parallel bias is replicated with identical gradients; expose it on
  // every rank so local optimizers keep the replicas in lock-step.
  if (has_bias_) p.push_back(&b);
  return p;
}

// ---- MegatronFeedForward -----------------------------------------------------

MegatronFeedForward::MegatronFeedForward(MegatronContext& ctx,
                                         std::int64_t hidden, nn::Init init,
                                         std::int64_t expansion)
    : fc1(ctx, hidden, expansion * hidden, init),
      fc2(ctx, expansion * hidden, hidden, init),
      ctx_(&ctx) {}

Tensor MegatronFeedForward::forward(const Tensor& x) {
  Tensor h = act_.forward(fc1.forward(x));
  ctx_->charge_memory(h.nbytes());
  return fc2.forward(h);
}

Tensor MegatronFeedForward::backward(const Tensor& dy) {
  Tensor dh = act_.backward(fc2.backward(dy));
  ctx_->charge_memory(dh.nbytes());
  return fc1.backward(dh);
}

void MegatronFeedForward::zero_grad() {
  fc1.zero_grad();
  fc2.zero_grad();
}

std::vector<nn::Param*> MegatronFeedForward::params() {
  std::vector<nn::Param*> p = fc1.params();
  for (nn::Param* q : fc2.params()) p.push_back(q);
  return p;
}

// ---- MegatronAttention -------------------------------------------------------

MegatronAttention::MegatronAttention(MegatronContext& ctx, std::int64_t hidden,
                                     std::int64_t heads, nn::Init init)
    : qkv([&] {
        if (init.phantom()) {
          return MegatronColumnLinear(ctx, hidden, 3 * hidden, init);
        }
        Tensor serial_w({hidden, 3 * hidden});
        xavier_uniform(serial_w, init.rng());
        return MegatronColumnLinear(
            ctx, qkv_blocked_layout(serial_w, ctx.p(), heads),
            Tensor::zeros({3 * hidden}));
      }()),
      proj(ctx, hidden, hidden, init),
      ctx_(&ctx),
      hidden_(hidden),
      heads_(heads) {
  check(hidden % heads == 0, "MegatronAttention: hidden % heads != 0");
  check(heads % ctx.p() == 0, "MegatronAttention: heads not divisible by p");
}

Tensor MegatronAttention::forward(const Tensor& x) {
  check(x.ndim() == 3, "MegatronAttention::forward: expected [b, s, h]");
  batch_ = x.dim(0);
  const std::int64_t s = x.dim(1);
  const std::int64_t lh = hidden_ / ctx_->p();
  const std::int64_t nl = local_heads();
  const std::int64_t hd = hidden_ / heads_;

  Tensor fused = qkv.forward(x);  // [b, s, 3h/p] = [Q_r | K_r | V_r]
  const Tensor fused2d = fused.as_matrix();
  Tensor q3 =
      slice_block(fused2d, 0, 0, fused2d.dim(0), lh).reshape({batch_, s, lh});
  Tensor k3 =
      slice_block(fused2d, 0, lh, fused2d.dim(0), lh).reshape({batch_, s, lh});
  Tensor v3 = slice_block(fused2d, 0, 2 * lh, fused2d.dim(0), lh)
                  .reshape({batch_, s, lh});
  q_ = nn::split_heads(q3, nl);
  k_ = nn::split_heads(k3, nl);
  v_ = nn::split_heads(v3, nl);

  Tensor scores = bmm(q_, k_, Trans::N, Trans::T);
  ctx_->charge_gemm(batch_ * nl * s, s, hd);
  scale(scores, 1.0f / std::sqrt(static_cast<float>(hd)));
  attn_ = nn::softmax(scores);
  ctx_->charge_memory(2 * attn_.nbytes());
  Tensor ctxv = bmm(attn_, v_);
  ctx_->charge_gemm(batch_ * nl * s, hd, s);
  Tensor merged = nn::merge_heads(ctxv, batch_);  // [b, s, h/p]
  return proj.forward(merged);
}

Tensor MegatronAttention::backward(const Tensor& dy) {
  const std::int64_t lh = hidden_ / ctx_->p();
  const std::int64_t nl = local_heads();
  const std::int64_t hd = hidden_ / heads_;
  if (attn_.empty() && dy.is_phantom()) {
    // A phantom backward timed alone: shape-only caches from dy.
    batch_ = dy.dim(0);
    const std::int64_t len = dy.dim(1);
    q_ = k_ = v_ = Tensor::like(dy, {batch_ * nl, len, hd});
    attn_ = Tensor::like(dy, {batch_ * nl, len, len});
  }
  check(!attn_.empty(), "MegatronAttention::backward: forward() not called");
  const std::int64_t s = q_.dim(1);

  Tensor dmerged = proj.backward(dy);
  Tensor dctx = nn::split_heads(dmerged, nl);
  Tensor dattn = bmm(dctx, v_, Trans::N, Trans::T);
  ctx_->charge_gemm(batch_ * nl * s, s, hd);
  Tensor dv = bmm(attn_, dctx, Trans::T, Trans::N);
  ctx_->charge_gemm(batch_ * nl * s, hd, s);
  Tensor dscores = nn::softmax_backward(attn_, dattn);
  ctx_->charge_memory(2 * dscores.nbytes());
  scale(dscores, 1.0f / std::sqrt(static_cast<float>(hd)));
  Tensor dq = bmm(dscores, k_);
  ctx_->charge_gemm(batch_ * nl * s, hd, s);
  Tensor dk = bmm(dscores, q_, Trans::T, Trans::N);
  ctx_->charge_gemm(batch_ * nl * s, hd, s);

  Tensor dq3 = nn::merge_heads(dq, batch_).reshape({batch_ * s, lh});
  Tensor dk3 = nn::merge_heads(dk, batch_).reshape({batch_ * s, lh});
  Tensor dv3 = nn::merge_heads(dv, batch_).reshape({batch_ * s, lh});
  Tensor dfused = hcat({dq3, dk3, dv3}).reshape({batch_, s, 3 * lh});
  return qkv.backward(dfused);
}

void MegatronAttention::zero_grad() {
  qkv.zero_grad();
  proj.zero_grad();
}

std::vector<nn::Param*> MegatronAttention::params() {
  std::vector<nn::Param*> p = qkv.params();
  for (nn::Param* q : proj.params()) p.push_back(q);
  return p;
}

// ---- MegatronTransformerLayer -------------------------------------------------

MegatronTransformerLayer::MegatronTransformerLayer(MegatronContext& ctx,
                                                   std::int64_t hidden,
                                                   std::int64_t heads,
                                                   nn::Init init,
                                                   std::int64_t ffn_expansion)
    : ln1(hidden, init), attn(ctx, hidden, heads, init), ln2(hidden, init),
      ffn(ctx, hidden, init, ffn_expansion), ctx_(&ctx) {}

Tensor MegatronTransformerLayer::forward(const Tensor& x) {
  Tensor y = add(x, attn.forward(ln1.forward(x)));
  ctx_->charge_memory(3 * y.nbytes());
  Tensor z = add(y, ffn.forward(ln2.forward(y)));
  ctx_->charge_memory(3 * z.nbytes());
  return z;
}

Tensor MegatronTransformerLayer::backward(const Tensor& dy) {
  Tensor dy2 = add(dy, ln2.backward(ffn.backward(dy)));
  ctx_->charge_memory(3 * dy2.nbytes());
  Tensor dx = add(dy2, ln1.backward(attn.backward(dy2)));
  ctx_->charge_memory(3 * dx.nbytes());
  return dx;
}

void MegatronTransformerLayer::zero_grad() {
  ln1.zero_grad();
  attn.zero_grad();
  ln2.zero_grad();
  ffn.zero_grad();
}

std::vector<nn::Param*> MegatronTransformerLayer::params() {
  // The serial LayerNorms run replicated with replicated gradients (their
  // input is replicated), so exposing them per rank keeps replicas synced.
  std::vector<nn::Param*> p;
  for (nn::Param* q : ln1.params()) p.push_back(q);
  for (nn::Param* q : attn.params()) p.push_back(q);
  for (nn::Param* q : ln2.params()) p.push_back(q);
  for (nn::Param* q : ffn.params()) p.push_back(q);
  return p;
}

// ---- MegatronTransformer -------------------------------------------------------

MegatronTransformer::MegatronTransformer(MegatronContext& ctx,
                                         std::int64_t hidden, std::int64_t heads,
                                         std::int64_t layers, Rng& rng,
                                         std::int64_t ffn_expansion) {
  check(layers >= 1, "MegatronTransformer: needs at least one layer");
  layers_.reserve(static_cast<std::size_t>(layers));
  for (std::int64_t i = 0; i < layers; ++i) {
    layers_.push_back(std::make_unique<MegatronTransformerLayer>(
        ctx, hidden, heads, rng, ffn_expansion));
  }
}

Tensor MegatronTransformer::forward(const Tensor& x) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h);
  return h;
}

Tensor MegatronTransformer::backward(const Tensor& dy) {
  Tensor g = dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void MegatronTransformer::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::vector<nn::Param*> MegatronTransformer::params() {
  std::vector<nn::Param*> p;
  for (auto& layer : layers_) {
    for (nn::Param* q : layer->params()) p.push_back(q);
  }
  return p;
}

}  // namespace tsr::par
