// Megatron-LM 1-D tensor parallelism (paper Section 2.5, Fig. 2) —
// re-implemented from the Megatron-LM paper as the paper's 1-D baseline.
//
// A group of p ranks holds replicated activations [b, s, h]. Each block's
// first linear is COLUMN-parallel (weight [h, x/p], no forward comm, input-
// gradient all-reduce in backward) and its second linear is ROW-parallel
// (weight [x/p, h], forward all-reduce, no backward comm). One Transformer
// layer therefore costs 2 all-reduces of [b, s, h] in forward and 2 in
// backward — the 2*beta*(p-1)*b*s*h/p communication term of Section 3.1.
#pragma once

#include <memory>
#include <vector>

#include "comm/communicator.hpp"
#include "nn/activation.hpp"
#include "pdgemm/block.hpp"
#include "nn/layernorm.hpp"
#include "nn/param.hpp"
#include "tensor/rng.hpp"

namespace tsr::par {

/// Per-rank context of a 1-D tensor-parallel group.
class MegatronContext {
 public:
  explicit MegatronContext(comm::Communicator& group) : comm_(group) {}

  comm::Communicator& comm() { return comm_; }
  int p() const { return comm_.size(); }
  int rank() const { return comm_.rank(); }

  void charge_memory(std::int64_t bytes) {
    pdg::charge_memory_bound(comm_, bytes);
  }
  void charge_gemm(std::int64_t m, std::int64_t n, std::int64_t k) {
    pdg::charge_gemm(comm_, m, n, k);
  }

 private:
  comm::Communicator comm_;
};

/// Y = X W + b with W column-sharded: [in, out/p] per rank.
class MegatronColumnLinear {
 public:
  /// Draws the full weight from `init`'s Rng and keeps this rank's columns;
  /// a phantom `init` makes a phantom shard and draws nothing.
  MegatronColumnLinear(MegatronContext& ctx, std::int64_t in, std::int64_t out,
                       nn::Init init, bool with_bias = true);
  /// Shares a pre-built full weight (head-blocked QKV layout).
  MegatronColumnLinear(MegatronContext& ctx, const Tensor& full_w,
                       const Tensor& full_b);

  /// x replicated [..., in] -> local [..., out/p].
  Tensor forward(const Tensor& x);
  /// dy local [..., out/p] -> dx replicated [..., in] (all-reduced).
  Tensor backward(const Tensor& dy);

  void zero_grad();
  std::vector<nn::Param*> params();

  nn::Param w;  ///< [in, out/p]
  nn::Param b;  ///< [out/p]

 private:
  void init_from_full(const Tensor& full_w, const Tensor& full_b);
  MegatronContext* ctx_;
  std::int64_t in_ = 0, out_ = 0;
  bool has_bias_ = false;
  Tensor x_cache_;
};

/// Y = all_reduce(X_local W_local) + b with W row-sharded: [in/p, out].
class MegatronRowLinear {
 public:
  MegatronRowLinear(MegatronContext& ctx, std::int64_t in, std::int64_t out,
                    nn::Init init, bool with_bias = true);

  /// x local [..., in/p] -> replicated [..., out] (all-reduced).
  Tensor forward(const Tensor& x);
  /// dy replicated [..., out] -> dx local [..., in/p] (no comm).
  Tensor backward(const Tensor& dy);

  void zero_grad();
  std::vector<nn::Param*> params();

  nn::Param w;  ///< [in/p, out]
  nn::Param b;  ///< [out], replicated

 private:
  MegatronContext* ctx_;
  std::int64_t in_ = 0, out_ = 0;
  bool has_bias_ = false;
  Tensor x_cache_;
};

/// Column-parallel -> GELU -> row-parallel MLP (Fig. 2).
class MegatronFeedForward {
 public:
  MegatronFeedForward(MegatronContext& ctx, std::int64_t hidden,
                      nn::Init init, std::int64_t expansion = 4);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  void zero_grad();
  std::vector<nn::Param*> params();

  MegatronColumnLinear fc1;
  MegatronRowLinear fc2;

 private:
  MegatronContext* ctx_;
  nn::Gelu act_;
};

/// Head-parallel self-attention: column-parallel QKV (n/p heads per rank),
/// local per-head attention, row-parallel output projection.
class MegatronAttention {
 public:
  MegatronAttention(MegatronContext& ctx, std::int64_t hidden,
                    std::int64_t heads, nn::Init init);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  std::int64_t local_heads() const { return heads_ / ctx_->p(); }

  void zero_grad();
  std::vector<nn::Param*> params();

  MegatronColumnLinear qkv;
  MegatronRowLinear proj;

 private:
  MegatronContext* ctx_;
  std::int64_t hidden_;
  std::int64_t heads_;
  Tensor q_, k_, v_, attn_;
  std::int64_t batch_ = 0;
};

/// Full encoder layer: serial LayerNorms (replicated, h is not sharded in
/// 1-D parallelism), parallel attention and MLP, local residuals. A phantom
/// `init` builds the shape-only layer of the paper-scale replay.
class MegatronTransformerLayer {
 public:
  MegatronTransformerLayer(MegatronContext& ctx, std::int64_t hidden,
                           std::int64_t heads, nn::Init init,
                           std::int64_t ffn_expansion = 4);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  void zero_grad();
  std::vector<nn::Param*> params();

  nn::LayerNorm ln1;
  MegatronAttention attn;
  nn::LayerNorm ln2;
  MegatronFeedForward ffn;

 private:
  MegatronContext* ctx_;
};

/// Stack of Megatron-parallel encoder layers.
class MegatronTransformer {
 public:
  MegatronTransformer(MegatronContext& ctx, std::int64_t hidden,
                      std::int64_t heads, std::int64_t layers, Rng& rng,
                      std::int64_t ffn_expansion = 4);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  void zero_grad();
  std::vector<nn::Param*> params();

 private:
  std::vector<std::unique_ptr<MegatronTransformerLayer>> layers_;
};

}  // namespace tsr::par
