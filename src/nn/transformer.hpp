// Serial Transformer encoder layer and stack (Megatron-adapted architecture,
// paper Section 2.4): each layer is self-attention + MLP with pre-layer-norm
// residual connections. This is the single-device ground truth the
// distributed implementations in parallel/ are validated against.
#pragma once

#include <memory>
#include <vector>

#include "nn/attention.hpp"
#include "nn/feedforward.hpp"
#include "nn/layernorm.hpp"

namespace tsr::nn {

struct TransformerConfig {
  std::int64_t hidden = 0;
  std::int64_t heads = 0;
  std::int64_t layers = 1;
  std::int64_t ffn_expansion = 4;
  bool causal = false;  ///< GPT-style decoder mask (paper Section 3.3)
};

/// One encoder layer: x + Attn(LN1(x)), then y + FFN(LN2(y)).
class TransformerLayer {
 public:
  TransformerLayer(std::int64_t hidden, std::int64_t heads, Rng& rng,
                   std::int64_t ffn_expansion = 4, bool causal = false);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  void zero_grad();
  std::vector<Param*> params();

  LayerNorm ln1;
  MultiHeadAttention attn;
  LayerNorm ln2;
  FeedForward ffn;
};

/// Stack of identical encoder layers.
class TransformerEncoder {
 public:
  TransformerEncoder(const TransformerConfig& cfg, Rng& rng);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  void zero_grad();
  std::vector<Param*> params();

  const TransformerConfig& config() const { return cfg_; }
  std::vector<std::unique_ptr<TransformerLayer>>& layers() { return layers_; }

 private:
  TransformerConfig cfg_;
  std::vector<std::unique_ptr<TransformerLayer>> layers_;
};

}  // namespace tsr::nn
