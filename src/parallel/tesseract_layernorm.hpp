// Distributed layer normalization (paper Section 3.2.2).
//
// The hidden dimension is split across the q grid columns, so each rank
// computes partial row sums of x and x^2 and all-reduces them along its grid
// row to obtain E[X] and Var[X] (eq. 13). The backward pass all-reduces the
// two analogous sums of eq. (14). gamma/beta are sharded by column j and
// replicated across rows and depth; their gradients are all-reduced over the
// column and depth groups to keep the replicas identical.
#pragma once

#include "nn/param.hpp"
#include "parallel/context.hpp"

namespace tsr::par {

class TesseractLayerNorm {
 public:
  /// `features` is the FULL hidden size h; this rank holds h/q of it.
  TesseractLayerNorm(TesseractContext& ctx, std::int64_t features,
                     nn::Init init = {}, float eps = 1e-5f);

  /// x_local: [..., h/q] -> [..., h/q].
  Tensor forward(const Tensor& x_local);
  Tensor backward(const Tensor& dy_local);

  void zero_grad();
  std::vector<nn::Param*> params();
  void clear_caches() { cache_stack_.clear(); }
  std::int64_t cached_bytes() const;

  nn::Param gamma;  ///< [h/q] shard, initialized to 1
  nn::Param beta;   ///< [h/q] shard, initialized to 0

 private:
  TesseractContext* ctx_;
  std::int64_t features_;  // full h
  float eps_;
  // LIFO of in-flight forward caches (pipeline micro-batching support).
  struct Cache {
    Tensor xhat;
    Tensor inv_std;  // [rows]
  };
  std::vector<Cache> cache_stack_;
};

}  // namespace tsr::par
