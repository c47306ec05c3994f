#include "nn/optimizer.hpp"

#include <cmath>

#include "tensor/kernel_registry.hpp"

namespace tsr::nn {

SGD::SGD(float lr_in, float momentum, float weight_decay)
    : lr(lr_in), momentum_(momentum), weight_decay_(weight_decay) {}

void SGD::step(const std::vector<Param*>& params) {
  for (Param* p : params) {
    float* w = p->value.data();
    const float* g = p->grad.data();
    if (momentum_ == 0.0f) {
      for (std::int64_t i = 0; i < p->numel(); ++i) {
        w[i] -= lr * (g[i] + weight_decay_ * w[i]);
      }
      continue;
    }
    // State is zero-filled only when a param is first seen: built as a
    // try_emplace argument it would be allocated, zeroed and dropped on
    // every step (here and in Lamb / Adam below).
    auto [it, inserted] = velocity_.try_emplace(p);
    if (inserted) it->second = Tensor::zeros(p->value.shape());
    float* v = it->second.data();
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      v[i] = momentum_ * v[i] + g[i] + weight_decay_ * w[i];
      w[i] -= lr * v[i];
    }
  }
}

Lamb::Lamb(float lr_in, float beta1, float beta2, float eps, float weight_decay)
    : lr(lr_in), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {}

void Lamb::step(const std::vector<Param*>& params) {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (Param* p : params) {
    auto [it, inserted] = state_.try_emplace(p);
    if (inserted) {
      it->second = {Tensor::zeros(p->value.shape()),
                    Tensor::zeros(p->value.shape())};
    }
    float* w = p->value.data();
    const float* g = p->grad.data();
    float* m = it->second.m.data();
    float* v = it->second.v.data();
    // Update direction r = m_hat / (sqrt(v_hat) + eps) + wd * w, then scale
    // by the layer-wise trust ratio phi(||w||) / ||r||.
    double w_norm2 = 0.0;
    double r_norm2 = 0.0;
    r_.resize(static_cast<std::size_t>(p->numel()));
    float* r = r_.data();
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g[i];
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g[i] * g[i];
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      const float ri = mhat / (std::sqrt(vhat) + eps_) + weight_decay_ * w[i];
      r[static_cast<std::size_t>(i)] = ri;
      w_norm2 += static_cast<double>(w[i]) * w[i];
      r_norm2 += static_cast<double>(ri) * ri;
    }
    const double w_norm = std::sqrt(w_norm2);
    const double r_norm = std::sqrt(r_norm2);
    // phi is the identity clamped away from degenerate norms, as in the
    // reference implementation.
    const float trust =
        (w_norm > 0.0 && r_norm > 0.0)
            ? static_cast<float>(w_norm / r_norm)
            : 1.0f;
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      w[i] -= lr * trust * r[static_cast<std::size_t>(i)];
    }
  }
}

Adam::Adam(float lr_in, float beta1, float beta2, float eps, float weight_decay)
    : lr(lr_in), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {}

void Adam::step(const std::vector<Param*>& params) {
  ++t_;
  // Decoupled weight decay (AdamW-style), matching common ViT recipes.
  const AdamScalars s{lr,
                      beta1_,
                      beta2_,
                      eps_,
                      weight_decay_,
                      1.0f - std::pow(beta1_, static_cast<float>(t_)),
                      1.0f - std::pow(beta2_, static_cast<float>(t_))};
  const AdamFn adam = active_kernel_variant().adam;
  for (Param* p : params) {
    auto [it, inserted] = state_.try_emplace(p);
    if (inserted) {
      it->second = {Tensor::zeros(p->value.shape()),
                    Tensor::zeros(p->value.shape())};
    }
    adam(s, p->value.data(), p->grad.data(), it->second.m.data(),
         it->second.v.data(), p->numel());
  }
}

}  // namespace tsr::nn
