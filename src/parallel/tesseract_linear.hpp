// Tesseract-parallel fully-connected layer — the building block of the
// paper's feed-forward and attention sections (Section 3.2.1).
//
// Weight W [in, out] lives in B-layout: rank (i, j, k) holds W_{ij}
// [in/q, out/q], identical across depth layers. Activations live in
// A-layout: [b/(d*q), s, in/q] locally. Forward runs the Tesseract AB
// product; backward runs AB^T for the input gradient and A^T B (with the
// depth all-reduce of Section 3.1) for the weight gradient.
//
// The bias follows the paper's Section 3.2.2 scheme: stored on the i == 0
// row of each depth layer, broadcast down the grid column in forward, and
// the bias gradient reduced back to row 0 (then depth-all-reduced so the
// replicas stay in sync).
#pragma once

#include "nn/param.hpp"
#include "parallel/context.hpp"

namespace tsr::par {

class TesseractLinear {
 public:
  /// Xavier-initializes the FULL [in, out] weight from `init`'s Rng
  /// (consuming the same number of draws as the serial nn::Linear so the two
  /// stay stream-aligned) and keeps only this rank's block. A phantom `init`
  /// makes phantom blocks and draws nothing.
  TesseractLinear(TesseractContext& ctx, std::int64_t in_features,
                  std::int64_t out_features, nn::Init init,
                  bool with_bias = true);

  /// Takes ownership of a pre-built full weight/bias (used by the attention
  /// layer, whose fused QKV weight needs the head-blocked column layout).
  /// Pass an empty bias tensor to disable the bias.
  TesseractLinear(TesseractContext& ctx, const Tensor& full_weight,
                  const Tensor& full_bias);

  /// x_local: [..., in/q] in A-layout -> [..., out/q] in A-layout.
  Tensor forward(const Tensor& x_local);
  Tensor backward(const Tensor& dy_local);

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  bool has_bias() const { return has_bias_; }
  /// True if this rank owns a bias shard (grid row i == 0).
  bool owns_bias() const { return has_bias_ && ctx_->i() == 0; }

  void zero_grad();
  std::vector<nn::Param*> params();
  /// Drops in-flight forward caches (activation-checkpointing support).
  void clear_caches() { x_stack_.clear(); }
  /// Bytes currently held by in-flight caches.
  std::int64_t cached_bytes() const;

  nn::Param w;  ///< local block [in/q, out/q]
  nn::Param b;  ///< bias shard [out/q]; only meaningful when owns_bias()

 private:
  void init_from_full(const Tensor& full_weight, const Tensor& full_bias);

  TesseractContext* ctx_;
  std::int64_t in_ = 0;
  std::int64_t out_ = 0;
  bool has_bias_ = false;
  // LIFO of in-flight forward inputs (matrix view [rows, in/q]): backward
  // pops in reverse forward order, which is exactly the GPipe micro-batch
  // schedule (see parallel/pipeline.hpp).
  std::vector<Tensor> x_stack_;
};

}  // namespace tsr::par
