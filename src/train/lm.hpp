// GPT-style causal language model, serial and Tesseract-parallel — the
// paper's Section 3.3 claim ("it is viable to implement Tesseract for
// models that is suitable for parallelization, for example, BERT, GPT-2")
// made concrete: token + position embeddings, a causal Transformer decoder
// stack, and a vocabulary head, trained on a synthetic next-token task.
#pragma once

#include <span>

#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/transformer.hpp"
#include "parallel/tesseract_transformer.hpp"
#include "train/trainer.hpp"

namespace tsr::train {

struct LmConfig {
  std::int64_t vocab = 32;
  std::int64_t seq = 16;
  std::int64_t hidden = 32;
  std::int64_t heads = 4;
  std::int64_t layers = 2;
  std::int64_t ffn_expansion = 4;
};

/// Deterministic synthetic corpus: each sample repeats a random motif of
/// length `period`, so next-token prediction is exactly learnable (copy the
/// token `period` positions back) — a standard sanity task for tiny LMs.
class SyntheticCorpus {
 public:
  SyntheticCorpus(int samples, std::int64_t seq, std::int64_t vocab,
                  std::int64_t period, std::uint64_t seed);

  int size() const { return static_cast<int>(samples_.size()); }
  std::int64_t seq() const { return seq_; }
  /// Input tokens [indices.size() * seq] (positions 0..seq-1 of each sample).
  std::vector<int> inputs(std::span<const int> indices) const;
  /// Targets (positions 1..seq of each sample), aligned with inputs.
  std::vector<int> targets(std::span<const int> indices) const;

 private:
  std::int64_t seq_;
  std::vector<std::vector<int>> samples_;  // each of length seq + 1
};

/// Single-device causal LM.
class LanguageModel {
 public:
  LanguageModel(const LmConfig& cfg, Rng& rng);

  /// tokens: batch * seq ids -> logits [batch, seq, vocab].
  Tensor forward(std::span<const int> tokens, std::int64_t batch);
  void backward(const Tensor& dlogits);

  void zero_grad();
  std::vector<nn::Param*> params();
  const LmConfig& config() const { return cfg_; }

 private:
  LmConfig cfg_;
  nn::Embedding tok_;
  nn::Param pos_;  // [seq, h]
  nn::TransformerEncoder decoder_;
  nn::LayerNorm ln_f_;
  nn::Linear head_;
  std::int64_t batch_ = 0;
};

/// Tesseract-parallel causal LM: embeddings and head replicated, the
/// decoder stack sharded on the [q, q, d] grid (same split as the ViT).
class TesseractLanguageModel {
 public:
  TesseractLanguageModel(par::TesseractContext& ctx, const LmConfig& cfg,
                         Rng& rng);

  Tensor forward(std::span<const int> tokens, std::int64_t batch);
  void backward(const Tensor& dlogits);

  void zero_grad();
  std::vector<nn::Param*> params();
  const LmConfig& config() const { return cfg_; }

 private:
  par::TesseractContext* ctx_;
  LmConfig cfg_;
  nn::Embedding tok_;
  nn::Param pos_;
  par::TesseractTransformer decoder_;
  nn::LayerNorm ln_f_;
  nn::Linear head_;
  std::int64_t batch_ = 0;
};

/// Mean next-token cross-entropy over all positions; dlogits shaped like
/// logits [b, s, vocab].
nn::LossResult next_token_loss(const Tensor& logits,
                               std::span<const int> targets);

// ---- BERT-style masked language modelling (the other half of §3.3) --------

/// A masking of a token batch: inputs with some positions replaced by the
/// mask token, plus which positions were masked and their original ids.
struct MaskedBatch {
  std::vector<int> inputs;   ///< batch * seq, masked positions -> mask_token
  std::vector<char> masked;  ///< batch * seq, 1 where masked
  std::vector<int> originals;  ///< batch * seq (targets at masked positions)
};

/// Deterministically masks `mask_prob` of the positions (at least one per
/// sample). `mask_token` is typically vocab (one id past the corpus range).
MaskedBatch make_masked_batch(std::span<const int> tokens, std::int64_t seq,
                              std::int64_t mask_prob_percent, int mask_token,
                              std::uint64_t seed);

/// Mean cross-entropy over MASKED positions only; dlogits is zero at
/// unmasked positions (BERT's objective).
nn::LossResult masked_token_loss(const Tensor& logits,
                                 const MaskedBatch& batch);

/// BERT-style bidirectional encoder LM: the LanguageModel with the causal
/// mask off and a vocabulary extended by one mask token. Serial and
/// Tesseract variants share RNG draws for exactness checks.
class MaskedLanguageModel {
 public:
  /// `ctx == nullptr` builds the single-device variant; otherwise the
  /// encoder stack is Tesseract-parallel on `ctx`'s grid.
  MaskedLanguageModel(par::TesseractContext* ctx, const LmConfig& cfg,
                      Rng& rng);

  int mask_token() const { return static_cast<int>(cfg_.vocab); }
  Tensor forward(std::span<const int> tokens, std::int64_t batch);
  void backward(const Tensor& dlogits);
  void zero_grad();
  std::vector<nn::Param*> params();

 private:
  par::TesseractContext* ctx_;  // null -> serial
  LmConfig cfg_;
  nn::Embedding tok_;
  nn::Param pos_;
  std::unique_ptr<nn::TransformerEncoder> serial_encoder_;
  std::unique_ptr<par::TesseractTransformer> tess_encoder_;
  nn::LayerNorm ln_f_;
  nn::Linear head_;
  std::int64_t batch_ = 0;
};

/// Per-epoch training losses with identical recipes (Fig. 7-style exactness
/// check on the language-model task).
std::vector<EpochStats> train_lm_serial(const SyntheticCorpus& corpus,
                                        const LmConfig& model_cfg,
                                        const TrainConfig& cfg);
std::vector<EpochStats> train_lm_tesseract(const SyntheticCorpus& corpus,
                                           const LmConfig& model_cfg,
                                           const TrainConfig& cfg, int q,
                                           int d);

}  // namespace tsr::train
