#include "nn/transformer.hpp"

#include "tensor/kernels.hpp"

namespace tsr::nn {

TransformerLayer::TransformerLayer(std::int64_t hidden, std::int64_t heads,
                                   Rng& rng, std::int64_t ffn_expansion,
                                   bool causal)
    : ln1(hidden), attn(hidden, heads, rng, causal), ln2(hidden),
      ffn(hidden, rng, ffn_expansion) {}

Tensor TransformerLayer::forward(const Tensor& x) {
  Tensor y = add(x, attn.forward(ln1.forward(x)));
  return add(y, ffn.forward(ln2.forward(y)));
}

Tensor TransformerLayer::backward(const Tensor& dy) {
  // z = y + FFN(LN2(y)): gradient flows through both the residual and the
  // FFN branch.
  Tensor dy2 = add(dy, ln2.backward(ffn.backward(dy)));
  return add(dy2, ln1.backward(attn.backward(dy2)));
}

void TransformerLayer::zero_grad() {
  ln1.zero_grad();
  attn.zero_grad();
  ln2.zero_grad();
  ffn.zero_grad();
}

std::vector<Param*> TransformerLayer::params() {
  std::vector<Param*> p;
  for (Param* q : ln1.params()) p.push_back(q);
  for (Param* q : attn.params()) p.push_back(q);
  for (Param* q : ln2.params()) p.push_back(q);
  for (Param* q : ffn.params()) p.push_back(q);
  return p;
}

TransformerEncoder::TransformerEncoder(const TransformerConfig& cfg, Rng& rng)
    : cfg_(cfg) {
  check(cfg.layers >= 1, "TransformerEncoder: needs at least one layer");
  layers_.reserve(static_cast<std::size_t>(cfg.layers));
  for (std::int64_t i = 0; i < cfg.layers; ++i) {
    layers_.push_back(std::make_unique<TransformerLayer>(
        cfg.hidden, cfg.heads, rng, cfg.ffn_expansion, cfg.causal));
  }
}

Tensor TransformerEncoder::forward(const Tensor& x) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h);
  return h;
}

Tensor TransformerEncoder::backward(const Tensor& dy) {
  Tensor g = dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void TransformerEncoder::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::vector<Param*> TransformerEncoder::params() {
  std::vector<Param*> p;
  for (auto& layer : layers_) {
    for (Param* q : layer->params()) p.push_back(q);
  }
  return p;
}

}  // namespace tsr::nn
