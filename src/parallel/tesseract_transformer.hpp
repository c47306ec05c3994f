// Tesseract-parallel Transformer encoder layer and stack — the distributed
// counterpart of nn::TransformerLayer / nn::TransformerEncoder, operating
// entirely on A-layout activation shards [b/(d*q), s, h/q].
#pragma once

#include <memory>
#include <vector>

#include "parallel/tesseract_attention.hpp"
#include "parallel/tesseract_feedforward.hpp"
#include "parallel/tesseract_layernorm.hpp"

namespace tsr::par {

/// One encoder layer: x + Attn(LN1(x)), then y + FFN(LN2(y)) — the residual
/// adds are local (paper Section 3.2.2: "These kinds of sections will
/// conduct operations locally on individual GPUs").
class TesseractTransformerLayer {
 public:
  /// A phantom `init` (nn::Init::phantom) builds the shape-only layer the
  /// paper-scale replay runs on phantom activations.
  TesseractTransformerLayer(TesseractContext& ctx, std::int64_t hidden,
                            std::int64_t heads, nn::Init init,
                            std::int64_t ffn_expansion = 4,
                            bool causal = false);

  Tensor forward(const Tensor& x_local);
  Tensor backward(const Tensor& dy_local);

  void zero_grad();
  std::vector<nn::Param*> params();
  /// Drops all in-flight forward caches (activation checkpointing).
  void clear_caches();
  /// Bytes currently held by forward caches across the sub-layers.
  std::int64_t cached_bytes() const;

  TesseractLayerNorm ln1;
  TesseractAttention attn;
  TesseractLayerNorm ln2;
  TesseractFeedForward ffn;

 private:
  TesseractContext* ctx_;
};

/// Stack of identical Tesseract-parallel encoder layers, with optional
/// activation checkpointing (Chen et al. 2016, cited by the paper as an
/// orthogonal memory technique): when enabled, each layer keeps only its
/// INPUT during the forward sweep and recomputes its internal activations
/// (including the SUMMA broadcasts) during backward — trading one extra
/// forward's compute and communication for O(layers) less cache memory.
class TesseractTransformer {
 public:
  TesseractTransformer(TesseractContext& ctx, std::int64_t hidden,
                       std::int64_t heads, std::int64_t layers, Rng& rng,
                       std::int64_t ffn_expansion = 4,
                       bool activation_checkpointing = false,
                       bool causal = false);

  Tensor forward(const Tensor& x_local);
  Tensor backward(const Tensor& dy_local);

  void zero_grad();
  std::vector<nn::Param*> params();

  bool checkpointing() const { return checkpointing_; }
  /// Bytes of forward caches currently held (layer-input snapshots count
  /// when checkpointing is on).
  std::int64_t cached_bytes() const;

  std::vector<std::unique_ptr<TesseractTransformerLayer>>& layers() {
    return layers_;
  }

 private:
  std::vector<std::unique_ptr<TesseractTransformerLayer>> layers_;
  bool checkpointing_ = false;
  // Per-layer LIFO of input snapshots (checkpointing mode only).
  std::vector<std::vector<Tensor>> layer_inputs_;
};

}  // namespace tsr::par
