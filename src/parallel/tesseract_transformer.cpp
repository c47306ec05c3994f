#include "parallel/tesseract_transformer.hpp"

#include "tensor/kernels.hpp"

namespace tsr::par {

TesseractTransformerLayer::TesseractTransformerLayer(
    TesseractContext& ctx, std::int64_t hidden, std::int64_t heads,
    nn::Init init, std::int64_t ffn_expansion, bool causal)
    : ln1(ctx, hidden, init),
      attn(ctx, hidden, heads, init, causal),
      ln2(ctx, hidden, init),
      ffn(ctx, hidden, init, ffn_expansion),
      ctx_(&ctx) {}

Tensor TesseractTransformerLayer::forward(const Tensor& x_local) {
  obs::ScopedTimer timer_ = ctx_->timer("layer.transformer_layer.forward.sim_seconds");
  Tensor y = add(x_local, attn.forward(ln1.forward(x_local)));
  ctx_->charge_memory(y.nbytes());
  Tensor z = add(y, ffn.forward(ln2.forward(y)));
  ctx_->charge_memory(z.nbytes());
  return z;
}

Tensor TesseractTransformerLayer::backward(const Tensor& dy_local) {
  obs::ScopedTimer timer_ = ctx_->timer("layer.transformer_layer.backward.sim_seconds");
  Tensor dy2 = add(dy_local, ln2.backward(ffn.backward(dy_local)));
  ctx_->charge_memory(dy2.nbytes());
  Tensor dx = add(dy2, ln1.backward(attn.backward(dy2)));
  ctx_->charge_memory(dx.nbytes());
  return dx;
}

void TesseractTransformerLayer::clear_caches() {
  ln1.clear_caches();
  attn.clear_caches();
  ln2.clear_caches();
  ffn.clear_caches();
}

std::int64_t TesseractTransformerLayer::cached_bytes() const {
  return ln1.cached_bytes() + attn.cached_bytes() + ln2.cached_bytes() +
         ffn.cached_bytes();
}

void TesseractTransformerLayer::zero_grad() {
  ln1.zero_grad();
  attn.zero_grad();
  ln2.zero_grad();
  ffn.zero_grad();
}

std::vector<nn::Param*> TesseractTransformerLayer::params() {
  std::vector<nn::Param*> p;
  for (nn::Param* q : ln1.params()) p.push_back(q);
  for (nn::Param* q : attn.params()) p.push_back(q);
  for (nn::Param* q : ln2.params()) p.push_back(q);
  for (nn::Param* q : ffn.params()) p.push_back(q);
  return p;
}

TesseractTransformer::TesseractTransformer(TesseractContext& ctx,
                                           std::int64_t hidden,
                                           std::int64_t heads,
                                           std::int64_t layers, Rng& rng,
                                           std::int64_t ffn_expansion,
                                           bool activation_checkpointing,
                                           bool causal)
    : checkpointing_(activation_checkpointing) {
  check(layers >= 1, "TesseractTransformer: needs at least one layer");
  layers_.reserve(static_cast<std::size_t>(layers));
  for (std::int64_t i = 0; i < layers; ++i) {
    layers_.push_back(std::make_unique<TesseractTransformerLayer>(
        ctx, hidden, heads, rng, ffn_expansion, causal));
  }
  layer_inputs_.resize(layers_.size());
}

Tensor TesseractTransformer::forward(const Tensor& x_local) {
  Tensor h = x_local;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (checkpointing_) {
      // Keep only the layer input; the layer's internal caches are dropped
      // right after the forward and rebuilt on demand in backward().
      layer_inputs_[i].push_back(h);
      h = layers_[i]->forward(h);
      layers_[i]->clear_caches();
    } else {
      h = layers_[i]->forward(h);
    }
  }
  return h;
}

Tensor TesseractTransformer::backward(const Tensor& dy_local) {
  Tensor g = dy_local;
  for (std::size_t n = layers_.size(); n-- > 0;) {
    if (checkpointing_) {
      check(!layer_inputs_[n].empty(),
            "TesseractTransformer::backward: no checkpointed input");
      Tensor x = std::move(layer_inputs_[n].back());
      layer_inputs_[n].pop_back();
      // Recompute pass: repopulates the sub-layer caches, re-issuing the
      // forward SUMMA broadcasts (the recompute cost is real and shows up
      // in the simulated clock, as on hardware).
      (void)layers_[n]->forward(x);
    }
    g = layers_[n]->backward(g);
  }
  return g;
}

std::int64_t TesseractTransformer::cached_bytes() const {
  std::int64_t n = 0;
  for (const auto& layer : layers_) n += layer->cached_bytes();
  for (const auto& stack : layer_inputs_) {
    for (const Tensor& t : stack) n += t.nbytes();
  }
  return n;
}

void TesseractTransformer::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::vector<nn::Param*> TesseractTransformer::params() {
  std::vector<nn::Param*> p;
  for (auto& layer : layers_) {
    for (nn::Param* q : layer->params()) p.push_back(q);
  }
  return p;
}

}  // namespace tsr::par
