// Multi-head self-attention (paper eq. 6), Megatron-style: one fused
// [h, 3h] QKV projection, per-head scaled dot-product attention, and an
// [h, h] output projection.
#pragma once

#include "nn/linear.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace tsr::nn {

/// Rearranges [b, s, h] into [b*n, s, h/n] (contiguous per head).
Tensor split_heads(const Tensor& x, std::int64_t heads);
/// Inverse of split_heads: [b*n, s, hd] -> [b, s, n*hd].
Tensor merge_heads(const Tensor& x, std::int64_t batch);

/// Adds -inf above the diagonal of per-head scores so position t attends
/// only to positions <= t — the GPT-style decoder mask (paper Section 3.3
/// names GPT-2 as a Tesseract target model).
void apply_causal_mask(Tensor& scores);

class MultiHeadAttention {
 public:
  MultiHeadAttention(std::int64_t hidden, std::int64_t heads, Rng& rng,
                     bool causal = false);

  /// x: [b, s, h] -> [b, s, h].
  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  void zero_grad();
  std::vector<Param*> params();

  std::int64_t hidden() const { return qkv.in_features(); }
  std::int64_t heads() const { return heads_; }
  bool causal() const { return causal_; }

  Linear qkv;   ///< [h, 3h]
  Linear proj;  ///< [h, h]

 private:
  std::int64_t heads_;
  bool causal_;
  // Forward caches for the backward pass.
  Tensor q_, k_, v_;  // [b*n, s, hd]
  Tensor attn_;       // softmax weights [b*n, s, s]
  std::int64_t batch_ = 0;
};

}  // namespace tsr::nn
