#include "parallel/tesseract_attention.hpp"

#include <cmath>

#include "nn/attention.hpp"
#include "nn/softmax.hpp"
#include "parallel/dist.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/kernels.hpp"

namespace tsr::par {

TesseractLinear TesseractAttention::build_qkv(TesseractContext& ctx,
                                              std::int64_t hidden,
                                              std::int64_t heads,
                                              nn::Init init) {
  if (init.phantom()) return TesseractLinear(ctx, hidden, 3 * hidden, init);
  // Draw in the serial [Q | K | V] order (stream-aligned with nn::Linear),
  // then reorder the columns so each q-column shard holds complete heads.
  Tensor serial_w({hidden, 3 * hidden});
  xavier_uniform(serial_w, init.rng());
  return TesseractLinear(ctx, qkv_blocked_layout(serial_w, ctx.q(), heads),
                         Tensor::zeros({3 * hidden}));
}

TesseractAttention::TesseractAttention(TesseractContext& ctx,
                                       std::int64_t hidden, std::int64_t heads,
                                       nn::Init init, bool causal)
    : qkv(build_qkv(ctx, hidden, heads, init)),
      proj(ctx, hidden, hidden, init),
      ctx_(&ctx),
      hidden_(hidden),
      heads_(heads),
      causal_(causal) {
  check(hidden % heads == 0, "TesseractAttention: hidden % heads != 0");
  check(heads % ctx.q() == 0,
        "TesseractAttention: heads must be divisible by q (n/q heads per rank)");
}

Tensor TesseractAttention::forward(const Tensor& x_local) {
  obs::ScopedTimer timer_ = ctx_->timer("layer.attention.forward.sim_seconds");
  check(x_local.ndim() == 3, "TesseractAttention::forward: expected [b', s, h/q]");
  Cache cache;
  cache.batch = x_local.dim(0);
  const std::int64_t batch = cache.batch;
  const std::int64_t s = x_local.dim(1);
  const std::int64_t lh = hidden_ / ctx_->q();  // local hidden shard
  const std::int64_t nl = local_heads();
  const std::int64_t hd = hidden_ / heads_;

  Tensor fused = qkv.forward(x_local);  // [b', s, 3h/q] = [Q_j | K_j | V_j]
  const Tensor fused2d = fused.as_matrix();
  Tensor q3 =
      slice_block(fused2d, 0, 0, fused2d.dim(0), lh).reshape({batch, s, lh});
  Tensor k3 =
      slice_block(fused2d, 0, lh, fused2d.dim(0), lh).reshape({batch, s, lh});
  Tensor v3 = slice_block(fused2d, 0, 2 * lh, fused2d.dim(0), lh)
                  .reshape({batch, s, lh});
  cache.q = nn::split_heads(q3, nl);
  cache.k = nn::split_heads(k3, nl);
  cache.v = nn::split_heads(v3, nl);

  // Per-head attention, fully local (paper: n/q heads per processor, each
  // holding the complete [s, h/n] slices).
  Tensor scores = bmm(cache.q, cache.k, Trans::N, Trans::T);
  ctx_->charge_gemm(batch * nl * s, s, hd);
  scale(scores, 1.0f / std::sqrt(static_cast<float>(hd)));
  // The causal mask is per-head-local, so it adds no communication; its
  // cost is folded into the softmax's memory-bound charge.
  if (causal_) nn::apply_causal_mask(scores);
  cache.attn = nn::softmax(scores);
  ctx_->charge_memory(2 * cache.attn.nbytes());
  Tensor ctxv = bmm(cache.attn, cache.v);
  ctx_->charge_gemm(batch * nl * s, hd, s);
  Tensor merged = nn::merge_heads(ctxv, batch);  // [b', s, h/q]
  cache_stack_.push_back(std::move(cache));
  return proj.forward(merged);
}

Tensor TesseractAttention::backward(const Tensor& dy_local) {
  obs::ScopedTimer timer_ = ctx_->timer("layer.attention.backward.sim_seconds");
  const std::int64_t lh = hidden_ / ctx_->q();
  const std::int64_t nl = local_heads();
  const std::int64_t hd = hidden_ / heads_;
  Cache cache = nn::pop_cache(
      cache_stack_, dy_local,
      "TesseractAttention::backward: forward() not called", [&] {
        const std::int64_t b = dy_local.dim(0);
        const std::int64_t len = dy_local.dim(1);
        const Tensor head = Tensor::like(dy_local, {b * nl, len, hd});
        return Cache{head, head, head,
                     Tensor::like(dy_local, {b * nl, len, len}), b};
      });
  const std::int64_t batch = cache.batch;
  const std::int64_t s = cache.q.dim(1);

  Tensor dmerged = proj.backward(dy_local);        // [b', s, h/q]
  Tensor dctx = nn::split_heads(dmerged, nl);      // [b'*nl, s, hd]
  Tensor dattn = bmm(dctx, cache.v, Trans::N, Trans::T);
  ctx_->charge_gemm(batch * nl * s, s, hd);
  Tensor dv = bmm(cache.attn, dctx, Trans::T, Trans::N);
  ctx_->charge_gemm(batch * nl * s, hd, s);
  Tensor dscores = nn::softmax_backward(cache.attn, dattn);
  ctx_->charge_memory(2 * dscores.nbytes());
  scale(dscores, 1.0f / std::sqrt(static_cast<float>(hd)));
  Tensor dq = bmm(dscores, cache.k);
  ctx_->charge_gemm(batch * nl * s, hd, s);
  Tensor dk = bmm(dscores, cache.q, Trans::T, Trans::N);
  ctx_->charge_gemm(batch * nl * s, hd, s);

  Tensor dq3 = nn::merge_heads(dq, batch).reshape({batch * s, lh});
  Tensor dk3 = nn::merge_heads(dk, batch).reshape({batch * s, lh});
  Tensor dv3 = nn::merge_heads(dv, batch).reshape({batch * s, lh});
  Tensor dfused = hcat({dq3, dk3, dv3}).reshape({batch, s, 3 * lh});
  return qkv.backward(dfused);
}

void TesseractAttention::clear_caches() {
  cache_stack_.clear();
  qkv.clear_caches();
  proj.clear_caches();
}

std::int64_t TesseractAttention::cached_bytes() const {
  std::int64_t n = 0;
  for (const Cache& c : cache_stack_) {
    n += c.q.nbytes() + c.k.nbytes() + c.v.nbytes() + c.attn.nbytes();
  }
  return n + qkv.cached_bytes() + proj.cached_bytes();
}

void TesseractAttention::zero_grad() {
  qkv.zero_grad();
  proj.zero_grad();
}

std::vector<nn::Param*> TesseractAttention::params() {
  std::vector<nn::Param*> p = qkv.params();
  for (nn::Param* q : proj.params()) p.push_back(q);
  return p;
}

}  // namespace tsr::par
