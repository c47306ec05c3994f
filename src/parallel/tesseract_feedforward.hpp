// Tesseract-parallel feed-forward block (paper Fig. 5a):
// TesseractLinear(h -> 4h) -> local GELU -> TesseractLinear(4h -> h).
// Activations stay in A-layout shards throughout; the nonlinearity is
// communication-free.
#pragma once

#include "nn/activation.hpp"
#include "parallel/tesseract_linear.hpp"

namespace tsr::par {

class TesseractFeedForward {
 public:
  TesseractFeedForward(TesseractContext& ctx, std::int64_t hidden,
                       nn::Init init, std::int64_t expansion = 4);

  Tensor forward(const Tensor& x_local);
  Tensor backward(const Tensor& dy_local);

  void zero_grad();
  std::vector<nn::Param*> params();
  void clear_caches();
  std::int64_t cached_bytes() const;

  TesseractLinear fc1;
  TesseractLinear fc2;

 private:
  TesseractContext* ctx_;
  nn::Gelu act_;
};

}  // namespace tsr::par
