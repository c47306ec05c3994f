#include "train/lm.hpp"

#include <algorithm>
#include <numeric>

#include "comm/communicator.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "parallel/dist.hpp"
#include "tensor/init.hpp"
#include "tensor/kernels.hpp"
#include "train/metrics.hpp"

namespace tsr::train {

SyntheticCorpus::SyntheticCorpus(int samples, std::int64_t seq,
                                 std::int64_t vocab, std::int64_t period,
                                 std::uint64_t seed)
    : seq_(seq) {
  check(period >= 1 && period <= seq, "SyntheticCorpus: bad period");
  Rng rng(seed);
  samples_.resize(static_cast<std::size_t>(samples));
  for (auto& sample : samples_) {
    std::vector<int> motif(static_cast<std::size_t>(period));
    for (int& t : motif) {
      t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(vocab)));
    }
    sample.resize(static_cast<std::size_t>(seq + 1));
    for (std::int64_t i = 0; i <= seq; ++i) {
      sample[static_cast<std::size_t>(i)] =
          motif[static_cast<std::size_t>(i % period)];
    }
  }
}

std::vector<int> SyntheticCorpus::inputs(std::span<const int> indices) const {
  std::vector<int> out;
  out.reserve(indices.size() * static_cast<std::size_t>(seq_));
  for (int idx : indices) {
    const auto& s = samples_[static_cast<std::size_t>(idx)];
    out.insert(out.end(), s.begin(), s.begin() + seq_);
  }
  return out;
}

std::vector<int> SyntheticCorpus::targets(std::span<const int> indices) const {
  std::vector<int> out;
  out.reserve(indices.size() * static_cast<std::size_t>(seq_));
  for (int idx : indices) {
    const auto& s = samples_[static_cast<std::size_t>(idx)];
    out.insert(out.end(), s.begin() + 1, s.end());
  }
  return out;
}

nn::LossResult next_token_loss(const Tensor& logits,
                               std::span<const int> targets) {
  check(logits.ndim() == 3, "next_token_loss: logits must be [b, s, vocab]");
  const Tensor flat = logits.reshape({logits.dim(0) * logits.dim(1),
                                      logits.dim(2)});
  nn::LossResult res = nn::softmax_cross_entropy(flat, targets);
  res.dlogits = res.dlogits.reshape(logits.shape());
  return res;
}

namespace {

nn::TransformerConfig decoder_config(const LmConfig& cfg) {
  nn::TransformerConfig t;
  t.hidden = cfg.hidden;
  t.heads = cfg.heads;
  t.layers = cfg.layers;
  t.ffn_expansion = cfg.ffn_expansion;
  t.causal = true;
  return t;
}

// Token + learned position embedding; shared by both model variants.
Tensor embed_tokens(nn::Embedding& tok, const nn::Param& pos,
                    std::span<const int> tokens, std::int64_t batch,
                    std::int64_t seq, std::int64_t hidden) {
  Tensor x = tok.forward(tokens, batch);
  check(x.dim(1) == seq, "embed_tokens: sequence length mismatch");
  const std::int64_t x_row = x.dim(2);
  const std::int64_t pos_row = pos.value.dim(1);
  float* px = x.data();
  const float* pp = pos.value.data();
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t t = 0; t < seq; ++t) {
      float* xr = px + (b * seq + t) * x_row;
      const float* pr = pp + t * pos_row;
      for (std::int64_t e = 0; e < hidden; ++e) xr[e] += pr[e];
    }
  }
  return x;
}

void embed_backward(nn::Embedding& tok, nn::Param& pos, const Tensor& dx) {
  tok.backward(dx);
  const std::int64_t batch = dx.dim(0);
  const std::int64_t seq = dx.dim(1);
  const std::int64_t hidden = dx.dim(2);
  const std::int64_t grad_row = pos.grad.dim(1);
  const float* pd = dx.data();
  float* pg = pos.grad.data();
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t t = 0; t < seq; ++t) {
      const float* dr = pd + (b * seq + t) * hidden;
      float* gr = pg + t * grad_row;
      for (std::int64_t e = 0; e < hidden; ++e) gr[e] += dr[e];
    }
  }
}

}  // namespace

LanguageModel::LanguageModel(const LmConfig& cfg, Rng& rng)
    : cfg_(cfg),
      tok_(cfg.vocab, cfg.hidden, rng),
      pos_({cfg.seq, cfg.hidden}),
      decoder_(decoder_config(cfg), rng),
      ln_f_(cfg.hidden),
      head_(cfg.hidden, cfg.vocab, rng) {
  Rng pos_rng(rng.next_u64());
  normal_init(pos_.value, pos_rng, 0.0, 0.02);
}

Tensor LanguageModel::forward(std::span<const int> tokens, std::int64_t batch) {
  batch_ = batch;
  Tensor x = embed_tokens(tok_, pos_, tokens, batch, cfg_.seq, cfg_.hidden);
  Tensor y = ln_f_.forward(decoder_.forward(x));
  return head_.forward(y);
}

void LanguageModel::backward(const Tensor& dlogits) {
  Tensor dy = ln_f_.backward(head_.backward(dlogits));
  Tensor dx = decoder_.backward(dy);
  embed_backward(tok_, pos_, dx);
}

void LanguageModel::zero_grad() {
  tok_.zero_grad();
  pos_.zero_grad();
  decoder_.zero_grad();
  ln_f_.zero_grad();
  head_.zero_grad();
}

std::vector<nn::Param*> LanguageModel::params() {
  std::vector<nn::Param*> p = tok_.params();
  p.push_back(&pos_);
  for (nn::Param* q : decoder_.params()) p.push_back(q);
  for (nn::Param* q : ln_f_.params()) p.push_back(q);
  for (nn::Param* q : head_.params()) p.push_back(q);
  return p;
}

TesseractLanguageModel::TesseractLanguageModel(par::TesseractContext& ctx,
                                               const LmConfig& cfg, Rng& rng)
    : ctx_(&ctx),
      cfg_(cfg),
      tok_(cfg.vocab, cfg.hidden, rng),
      pos_({cfg.seq, cfg.hidden}),
      decoder_(ctx, cfg.hidden, cfg.heads, cfg.layers, rng, cfg.ffn_expansion,
               /*activation_checkpointing=*/false, /*causal=*/true),
      ln_f_(cfg.hidden),
      head_(cfg.hidden, cfg.vocab, rng) {
  Rng pos_rng(rng.next_u64());
  normal_init(pos_.value, pos_rng, 0.0, 0.02);
}

Tensor TesseractLanguageModel::forward(std::span<const int> tokens,
                                       std::int64_t batch) {
  batch_ = batch;
  Tensor x = embed_tokens(tok_, pos_, tokens, batch, cfg_.seq, cfg_.hidden);
  Tensor x_local = par::distribute_activation(ctx_->comms(), x);
  Tensor y_local = decoder_.forward(x_local);
  Tensor y = par::collect_activation(ctx_->comms(), y_local, batch, cfg_.seq,
                                     cfg_.hidden);
  return head_.forward(ln_f_.forward(y));
}

void TesseractLanguageModel::backward(const Tensor& dlogits) {
  Tensor dy = ln_f_.backward(head_.backward(dlogits));
  Tensor dy_local = par::distribute_activation(ctx_->comms(), dy);
  Tensor dx_local = decoder_.backward(dy_local);
  Tensor dx = par::collect_activation(ctx_->comms(), dx_local, batch_,
                                      cfg_.seq, cfg_.hidden);
  embed_backward(tok_, pos_, dx);
}

void TesseractLanguageModel::zero_grad() {
  tok_.zero_grad();
  pos_.zero_grad();
  decoder_.zero_grad();
  ln_f_.zero_grad();
  head_.zero_grad();
}

std::vector<nn::Param*> TesseractLanguageModel::params() {
  std::vector<nn::Param*> p = tok_.params();
  p.push_back(&pos_);
  for (nn::Param* q : decoder_.params()) p.push_back(q);
  for (nn::Param* q : ln_f_.params()) p.push_back(q);
  for (nn::Param* q : head_.params()) p.push_back(q);
  return p;
}

// ---- BERT-style masked LM ----------------------------------------------------

MaskedBatch make_masked_batch(std::span<const int> tokens, std::int64_t seq,
                              std::int64_t mask_prob_percent, int mask_token,
                              std::uint64_t seed) {
  check(seq > 0 && tokens.size() % static_cast<std::size_t>(seq) == 0,
        "make_masked_batch: token count not divisible by seq");
  MaskedBatch out;
  out.inputs.assign(tokens.begin(), tokens.end());
  out.originals.assign(tokens.begin(), tokens.end());
  out.masked.assign(tokens.size(), 0);
  Rng rng(seed, 0xBE27);
  const std::int64_t batch = static_cast<std::int64_t>(tokens.size()) / seq;
  for (std::int64_t b = 0; b < batch; ++b) {
    int masked_here = 0;
    for (std::int64_t t = 0; t < seq; ++t) {
      const std::size_t idx = static_cast<std::size_t>(b * seq + t);
      if (static_cast<std::int64_t>(rng.next_below(100)) < mask_prob_percent) {
        out.inputs[idx] = mask_token;
        out.masked[idx] = 1;
        ++masked_here;
      }
    }
    if (masked_here == 0) {
      // BERT needs at least one prediction target per sample.
      const std::size_t idx = static_cast<std::size_t>(
          b * seq + static_cast<std::int64_t>(rng.next_below(
                        static_cast<std::uint64_t>(seq))));
      out.inputs[idx] = mask_token;
      out.masked[idx] = 1;
    }
  }
  return out;
}

nn::LossResult masked_token_loss(const Tensor& logits,
                                 const MaskedBatch& batch) {
  check(logits.ndim() == 3, "masked_token_loss: logits must be [b, s, vocab]");
  const std::int64_t positions = logits.dim(0) * logits.dim(1);
  const std::int64_t vocab = logits.dim(2);
  check(static_cast<std::size_t>(positions) == batch.masked.size(),
        "masked_token_loss: mask size mismatch");
  // Gather the masked rows, run plain cross-entropy, scatter the gradients.
  std::vector<std::int64_t> rows;
  std::vector<int> targets;
  for (std::int64_t p = 0; p < positions; ++p) {
    if (batch.masked[static_cast<std::size_t>(p)] != 0) {
      rows.push_back(p);
      targets.push_back(batch.originals[static_cast<std::size_t>(p)]);
    }
  }
  check(!rows.empty(), "masked_token_loss: no masked positions");
  const Tensor flat = logits.reshape({positions, vocab});
  Tensor gathered({static_cast<std::int64_t>(rows.size()), vocab});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::int64_t v = 0; v < vocab; ++v) {
      gathered.at(static_cast<std::int64_t>(r), v) = flat.at(rows[r], v);
    }
  }
  nn::LossResult inner = nn::softmax_cross_entropy(gathered, targets);
  nn::LossResult res;
  res.loss = inner.loss;
  res.dlogits = Tensor::zeros(logits.shape());
  Tensor dflat = res.dlogits.reshape({positions, vocab});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::int64_t v = 0; v < vocab; ++v) {
      dflat.at(rows[r], v) = inner.dlogits.at(static_cast<std::int64_t>(r), v);
    }
  }
  return res;
}

MaskedLanguageModel::MaskedLanguageModel(par::TesseractContext* ctx,
                                         const LmConfig& cfg, Rng& rng)
    : ctx_(ctx),
      cfg_(cfg),
      tok_(cfg.vocab + 1, cfg.hidden, rng),  // +1: the mask token
      pos_({cfg.seq, cfg.hidden}),
      ln_f_(cfg.hidden),
      head_(cfg.hidden, cfg.vocab, rng) {
  // Bidirectional (non-causal) encoder; the draw order (tok, encoder, head)
  // is identical in both variants so equal seeds give equal weights. Note
  // head_ is constructed before the encoder in the init list above, so draw
  // the encoder AFTER fixing that order here:
  nn::TransformerConfig ecfg;
  ecfg.hidden = cfg.hidden;
  ecfg.heads = cfg.heads;
  ecfg.layers = cfg.layers;
  ecfg.ffn_expansion = cfg.ffn_expansion;
  ecfg.causal = false;
  if (ctx_ == nullptr) {
    serial_encoder_ = std::make_unique<nn::TransformerEncoder>(ecfg, rng);
  } else {
    tess_encoder_ = std::make_unique<par::TesseractTransformer>(
        *ctx_, cfg.hidden, cfg.heads, cfg.layers, rng, cfg.ffn_expansion,
        /*activation_checkpointing=*/false, /*causal=*/false);
  }
  Rng pos_rng(rng.next_u64());
  normal_init(pos_.value, pos_rng, 0.0, 0.02);
}

Tensor MaskedLanguageModel::forward(std::span<const int> tokens,
                                    std::int64_t batch) {
  batch_ = batch;
  Tensor x = embed_tokens(tok_, pos_, tokens, batch, cfg_.seq, cfg_.hidden);
  Tensor y;
  if (ctx_ == nullptr) {
    y = serial_encoder_->forward(x);
  } else {
    Tensor yl = tess_encoder_->forward(
        par::distribute_activation(ctx_->comms(), x));
    y = par::collect_activation(ctx_->comms(), yl, batch, cfg_.seq,
                                cfg_.hidden);
  }
  return head_.forward(ln_f_.forward(y));
}

void MaskedLanguageModel::backward(const Tensor& dlogits) {
  Tensor dy = ln_f_.backward(head_.backward(dlogits));
  Tensor dx;
  if (ctx_ == nullptr) {
    dx = serial_encoder_->backward(dy);
  } else {
    Tensor dxl = tess_encoder_->backward(
        par::distribute_activation(ctx_->comms(), dy));
    dx = par::collect_activation(ctx_->comms(), dxl, batch_, cfg_.seq,
                                 cfg_.hidden);
  }
  embed_backward(tok_, pos_, dx);
}

void MaskedLanguageModel::zero_grad() {
  tok_.zero_grad();
  pos_.zero_grad();
  if (serial_encoder_) serial_encoder_->zero_grad();
  if (tess_encoder_) tess_encoder_->zero_grad();
  ln_f_.zero_grad();
  head_.zero_grad();
}

std::vector<nn::Param*> MaskedLanguageModel::params() {
  std::vector<nn::Param*> p = tok_.params();
  p.push_back(&pos_);
  auto enc = serial_encoder_ ? serial_encoder_->params() : tess_encoder_->params();
  for (nn::Param* q : enc) p.push_back(q);
  for (nn::Param* q : ln_f_.params()) p.push_back(q);
  for (nn::Param* q : head_.params()) p.push_back(q);
  return p;
}

namespace {

template <typename Model>
EpochStats run_lm_epoch(Model& model, nn::Optimizer& opt,
                        const SyntheticCorpus& corpus, const TrainConfig& cfg,
                        int epoch) {
  std::vector<int> idx(static_cast<std::size_t>(corpus.size()));
  std::iota(idx.begin(), idx.end(), 0);
  Rng shuffle_rng(cfg.shuffle_seed, static_cast<std::uint64_t>(epoch));
  for (std::size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[static_cast<std::size_t>(
                              shuffle_rng.next_below(i))]);
  }

  double loss_sum = 0.0;
  int correct = 0;
  std::int64_t seen = 0;
  const int nb = corpus.size() / cfg.batch_size;
  for (int b = 0; b < nb; ++b) {
    std::span<const int> batch(idx.data() + b * cfg.batch_size,
                               static_cast<std::size_t>(cfg.batch_size));
    std::vector<int> in = corpus.inputs(batch);
    std::vector<int> tg = corpus.targets(batch);
    Tensor logits = model.forward(in, cfg.batch_size);
    nn::LossResult loss = next_token_loss(logits, tg);
    model.zero_grad();
    model.backward(loss.dlogits);
    std::vector<nn::Param*> params = model.params();
    opt.step(params);

    const Tensor flat = logits.reshape({logits.dim(0) * logits.dim(1),
                                        logits.dim(2)});
    correct += static_cast<int>(
        accuracy(flat, tg) * static_cast<float>(tg.size()) + 0.5f);
    loss_sum += static_cast<double>(loss.loss) * static_cast<double>(tg.size());
    seen += static_cast<std::int64_t>(tg.size());
  }
  EpochStats stats;
  stats.loss = seen > 0 ? static_cast<float>(loss_sum / static_cast<double>(seen))
                        : 0.0f;
  stats.accuracy = seen > 0
                       ? static_cast<float>(correct) / static_cast<float>(seen)
                       : 0.0f;
  return stats;
}

}  // namespace

std::vector<EpochStats> train_lm_serial(const SyntheticCorpus& corpus,
                                        const LmConfig& model_cfg,
                                        const TrainConfig& cfg) {
  Rng wrng(cfg.weight_seed);
  LanguageModel model(model_cfg, wrng);
  nn::Adam opt(cfg.lr, 0.9f, 0.999f, 1e-8f, cfg.weight_decay);
  std::vector<EpochStats> history;
  for (int e = 0; e < cfg.epochs; ++e) {
    history.push_back(run_lm_epoch(model, opt, corpus, cfg, e));
  }
  return history;
}

std::vector<EpochStats> train_lm_tesseract(const SyntheticCorpus& corpus,
                                           const LmConfig& model_cfg,
                                           const TrainConfig& cfg, int q,
                                           int d) {
  check(cfg.batch_size % (q * d) == 0,
        "train_lm_tesseract: batch size must divide by d*q");
  comm::World world(q * q * d, topo::MachineSpec::meluxina());
  std::vector<EpochStats> history(static_cast<std::size_t>(cfg.epochs));
  world.run([&](comm::Communicator& c) {
    par::TesseractContext ctx(c, q, d);
    Rng wrng(cfg.weight_seed);
    TesseractLanguageModel model(ctx, model_cfg, wrng);
    nn::Adam opt(cfg.lr, 0.9f, 0.999f, 1e-8f, cfg.weight_decay);
    for (int e = 0; e < cfg.epochs; ++e) {
      EpochStats stats = run_lm_epoch(model, opt, corpus, cfg, e);
      if (c.rank() == 0) history[static_cast<std::size_t>(e)] = stats;
    }
  });
  return history;
}

}  // namespace tsr::train
