#include "nn/attention.hpp"

#include <cmath>
#include <vector>

#include "nn/softmax.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels.hpp"

namespace tsr::nn {

Tensor split_heads(const Tensor& x, std::int64_t heads) {
  check(x.ndim() == 3, "split_heads: input must be [b, s, h]");
  const std::int64_t b = x.dim(0);
  const std::int64_t s = x.dim(1);
  const std::int64_t h = x.dim(2);
  check(h % heads == 0, "split_heads: hidden not divisible by heads");
  const std::int64_t hd = h / heads;
  Tensor out = Tensor::like(x, {b * heads, s, hd});
  if (out.is_phantom()) return out;
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t n = 0; n < heads; ++n) {
      for (std::int64_t t = 0; t < s; ++t) {
        const float* src = x.data() + (bi * s + t) * h + n * hd;
        float* dst = out.data() + ((bi * heads + n) * s + t) * hd;
        for (std::int64_t e = 0; e < hd; ++e) dst[e] = src[e];
      }
    }
  }
  return out;
}

Tensor merge_heads(const Tensor& x, std::int64_t batch) {
  check(x.ndim() == 3, "merge_heads: input must be [b*n, s, hd]");
  check(x.dim(0) % batch == 0, "merge_heads: leading dim not divisible by batch");
  const std::int64_t heads = x.dim(0) / batch;
  const std::int64_t s = x.dim(1);
  const std::int64_t hd = x.dim(2);
  Tensor out = Tensor::like(x, {batch, s, heads * hd});
  if (out.is_phantom()) return out;
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    for (std::int64_t n = 0; n < heads; ++n) {
      for (std::int64_t t = 0; t < s; ++t) {
        const float* src = x.data() + ((bi * heads + n) * s + t) * hd;
        float* dst = out.data() + (bi * s + t) * (heads * hd) + n * hd;
        for (std::int64_t e = 0; e < hd; ++e) dst[e] = src[e];
      }
    }
  }
  return out;
}

void apply_causal_mask(Tensor& scores) {
  check(scores.ndim() == 3 && scores.dim(1) == scores.dim(2),
        "apply_causal_mask: expected [heads, s, s] scores");
  if (scores.is_phantom()) return;
  const std::int64_t n = scores.dim(0);
  const std::int64_t s = scores.dim(1);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t i = 0; i < s; ++i) {
      for (std::int64_t j = i + 1; j < s; ++j) {
        scores.at(b, i, j) = -1e9f;
      }
    }
  }
}

MultiHeadAttention::MultiHeadAttention(std::int64_t hidden, std::int64_t heads,
                                       Rng& rng, bool causal)
    : qkv(hidden, 3 * hidden, rng), proj(hidden, hidden, rng), heads_(heads),
      causal_(causal) {
  check(hidden % heads == 0,
        "MultiHeadAttention: hidden must be divisible by heads");
}

Tensor MultiHeadAttention::forward(const Tensor& x) {
  check(x.ndim() == 3, "MultiHeadAttention::forward: input must be [b, s, h]");
  batch_ = x.dim(0);
  const std::int64_t s = x.dim(1);
  const std::int64_t h = x.dim(2);
  const std::int64_t hd = h / heads_;

  Tensor fused = qkv.forward(x);  // [b, s, 3h]
  const Tensor fused2d = fused.as_matrix();
  Tensor q3 = slice_block(fused2d, 0, 0, fused2d.dim(0), h).reshape({batch_, s, h});
  Tensor k3 = slice_block(fused2d, 0, h, fused2d.dim(0), h).reshape({batch_, s, h});
  Tensor v3 =
      slice_block(fused2d, 0, 2 * h, fused2d.dim(0), h).reshape({batch_, s, h});
  q_ = split_heads(q3, heads_);
  k_ = split_heads(k3, heads_);
  v_ = split_heads(v3, heads_);

  // A = softmax(Q K^T / sqrt(hd)) V, per head (eq. 6).
  Tensor scores = bmm(q_, k_, Trans::N, Trans::T);
  scale(scores, 1.0f / std::sqrt(static_cast<float>(hd)));
  if (causal_) apply_causal_mask(scores);
  attn_ = softmax(scores);
  Tensor ctx = bmm(attn_, v_);               // [b*n, s, hd]
  Tensor merged = merge_heads(ctx, batch_);  // [b, s, h]
  return proj.forward(merged);
}

Tensor MultiHeadAttention::backward(const Tensor& dy) {
  check(!attn_.empty(), "MultiHeadAttention::backward: forward() not called");
  const std::int64_t h = hidden();
  const std::int64_t hd = h / heads_;
  const std::int64_t s = q_.dim(1);

  Tensor dmerged = proj.backward(dy);              // [b, s, h]
  Tensor dctx = split_heads(dmerged, heads_);      // [b*n, s, hd]
  Tensor dattn = bmm(dctx, v_, Trans::N, Trans::T);  // [b*n, s, s]
  Tensor dv = bmm(attn_, dctx, Trans::T, Trans::N);  // [b*n, s, hd]
  Tensor dscores = softmax_backward(attn_, dattn);
  scale(dscores, 1.0f / std::sqrt(static_cast<float>(hd)));
  Tensor dq = bmm(dscores, k_);                    // [b*n, s, hd]
  Tensor dk = bmm(dscores, q_, Trans::T, Trans::N);  // [b*n, s, hd]

  Tensor dq3 = merge_heads(dq, batch_).reshape({batch_ * s, h});
  Tensor dk3 = merge_heads(dk, batch_).reshape({batch_ * s, h});
  Tensor dv3 = merge_heads(dv, batch_).reshape({batch_ * s, h});
  Tensor dfused = hcat({dq3, dk3, dv3}).reshape({batch_, s, 3 * h});
  return qkv.backward(dfused);
}

void MultiHeadAttention::zero_grad() {
  qkv.zero_grad();
  proj.zero_grad();
}

std::vector<Param*> MultiHeadAttention::params() {
  std::vector<Param*> p = qkv.params();
  for (Param* q : proj.params()) p.push_back(q);
  return p;
}

}  // namespace tsr::nn
