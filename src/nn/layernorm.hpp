// Layer normalization over the last dimension (paper eqs. 13-14).
#pragma once

#include "nn/param.hpp"
#include "tensor/tensor.hpp"

namespace tsr::nn {

/// y = gamma * (x - E[x]) / sqrt(Var[x] + eps) + beta, per feature row.
///
/// The statistics E[x] and Var[x] = E[x^2] - E[x]^2 are computed from the
/// row sums of x and x^2 — the same formulation the distributed version
/// all-reduces across a grid row (paper Section 3.2.2).
class LayerNorm {
 public:
  explicit LayerNorm(std::int64_t features, Init init = {}, float eps = 1e-5f);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  void zero_grad();
  std::vector<Param*> params();

  Param gamma;  ///< [features], initialized to 1
  Param beta;   ///< [features], initialized to 0

 private:
  float eps_;
  Tensor xhat_cache_;     // normalized input
  Tensor inv_std_cache_;  // [rows] 1/sqrt(var + eps)
};

}  // namespace tsr::nn
