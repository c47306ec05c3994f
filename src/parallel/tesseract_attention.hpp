// Tesseract-parallel multi-head attention (paper Fig. 5b).
//
// The fused QKV projection is a TesseractLinear whose [h, 3h] weight uses
// the head-blocked column layout (see par::qkv_blocked_layout), so each
// rank's local [.., 3h/q] output contains n/q COMPLETE heads. The attention
// scores, softmax and context product are then entirely local — "the
// attention would be computed separately on each processor" — and the
// output projection is another TesseractLinear.
#pragma once

#include "parallel/tesseract_linear.hpp"

namespace tsr::par {

class TesseractAttention {
 public:
  /// Consumes the same RNG draws as nn::MultiHeadAttention(hidden, heads),
  /// so a serial model built from an equal-seed Rng has identical weights
  /// (a phantom `init` draws nothing). Requires heads % q == 0 and
  /// (h/heads) head dim consistency.
  TesseractAttention(TesseractContext& ctx, std::int64_t hidden,
                     std::int64_t heads, nn::Init init, bool causal = false);

  /// x_local: [b/(d*q), s, h/q] -> same shape.
  Tensor forward(const Tensor& x_local);
  Tensor backward(const Tensor& dy_local);

  std::int64_t hidden() const { return hidden_; }
  std::int64_t heads() const { return heads_; }
  /// Heads resident on each rank: n/q (paper Section 3.2.1).
  std::int64_t local_heads() const { return heads_ / ctx_->q(); }

  void zero_grad();
  std::vector<nn::Param*> params();
  void clear_caches();
  std::int64_t cached_bytes() const;

  TesseractLinear qkv;   ///< [h, 3h] in head-blocked layout
  TesseractLinear proj;  ///< [h, h]

 private:
  TesseractContext* ctx_;
  std::int64_t hidden_;
  std::int64_t heads_;
  bool causal_ = false;
  // LIFO of in-flight forward caches (pipeline micro-batching support).
  struct Cache {
    Tensor q, k, v;  // [b'*nl, s, hd]
    Tensor attn;     // [b'*nl, s, s]
    std::int64_t batch = 0;
  };
  std::vector<Cache> cache_stack_;

  static TesseractLinear build_qkv(TesseractContext& ctx, std::int64_t hidden,
                                   std::int64_t heads, nn::Init init);
};

}  // namespace tsr::par
