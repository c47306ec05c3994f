// Finite-difference gradient verification for every serial layer. The
// scalar objective is L = <f(x), G> for a fixed random G, whose exact input
// gradient is backward(G).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/activation.hpp"
#include "nn/attention.hpp"
#include "nn/feedforward.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/softmax.hpp"
#include "nn/transformer.hpp"
#include "tensor/init.hpp"
#include "tensor/kernels.hpp"

namespace tsr::nn {
namespace {

// Central-difference derivative of L(x) = <f(x), g> w.r.t. x[idx].
float numeric_grad(const std::function<Tensor(const Tensor&)>& f, Tensor& x,
                   const Tensor& g, std::int64_t idx, float eps = 1e-3f) {
  const float orig = x.at(idx);
  x.at(idx) = orig + eps;
  const float lp = sum(mul(f(x), g));
  x.at(idx) = orig - eps;
  const float lm = sum(mul(f(x), g));
  x.at(idx) = orig;
  return (lp - lm) / (2.0f * eps);
}

// Checks a handful of coordinates of dx against finite differences.
void check_input_grad(const std::function<Tensor(const Tensor&)>& f, Tensor x,
                      const Tensor& dx, const Tensor& g, float tol = 5e-2f) {
  const std::int64_t n = x.numel();
  const std::int64_t stride = std::max<std::int64_t>(1, n / 7);
  for (std::int64_t idx = 0; idx < n; idx += stride) {
    const float num = numeric_grad(f, x, g, idx);
    const float ana = dx.at(idx);
    EXPECT_NEAR(ana, num, tol * std::max(1.0f, std::fabs(num)))
        << "coordinate " << idx;
  }
}

TEST(Grad, Linear) {
  Rng rng(1);
  Linear fc(5, 4, rng);
  Tensor x = random_normal({3, 5}, rng);
  Tensor g = random_normal({3, 4}, rng);
  (void)fc.forward(x);
  Tensor dx = fc.backward(g);
  check_input_grad([&](const Tensor& in) { return fc.forward(in); }, x, dx, g);
}

TEST(Grad, LinearWeights) {
  Rng rng(2);
  Linear fc(4, 3, rng);
  Tensor x = random_normal({2, 4}, rng);
  Tensor g = random_normal({2, 3}, rng);
  (void)fc.forward(x);
  fc.zero_grad();
  (void)fc.backward(g);
  // Finite differences on w[idx].
  const std::int64_t stride = 3;
  for (std::int64_t idx = 0; idx < fc.w.value.numel(); idx += stride) {
    const float eps = 1e-3f;
    const float orig = fc.w.value.at(idx);
    fc.w.value.at(idx) = orig + eps;
    const float lp = sum(mul(fc.forward(x), g));
    fc.w.value.at(idx) = orig - eps;
    const float lm = sum(mul(fc.forward(x), g));
    fc.w.value.at(idx) = orig;
    EXPECT_NEAR(fc.w.grad.at(idx), (lp - lm) / (2 * eps), 5e-2f);
  }
}

TEST(Grad, LayerNorm) {
  Rng rng(3);
  LayerNorm ln(6);
  // Non-trivial gamma/beta so their effect enters the input gradient.
  for (std::int64_t i = 0; i < 6; ++i) {
    ln.gamma.value.at(i) = 1.0f + 0.1f * static_cast<float>(i);
    ln.beta.value.at(i) = 0.05f * static_cast<float>(i);
  }
  Tensor x = random_normal({4, 6}, rng);
  Tensor g = random_normal({4, 6}, rng);
  (void)ln.forward(x);
  Tensor dx = ln.backward(g);
  check_input_grad([&](const Tensor& in) { return ln.forward(in); }, x, dx, g);
}

TEST(Grad, LayerNormGammaBeta) {
  Rng rng(4);
  LayerNorm ln(5);
  Tensor x = random_normal({3, 5}, rng);
  Tensor g = random_normal({3, 5}, rng);
  (void)ln.forward(x);
  ln.zero_grad();
  (void)ln.backward(g);
  for (std::int64_t idx = 0; idx < 5; ++idx) {
    const float eps = 1e-3f;
    const float orig = ln.gamma.value.at(idx);
    ln.gamma.value.at(idx) = orig + eps;
    const float lp = sum(mul(ln.forward(x), g));
    ln.gamma.value.at(idx) = orig - eps;
    const float lm = sum(mul(ln.forward(x), g));
    ln.gamma.value.at(idx) = orig;
    EXPECT_NEAR(ln.gamma.grad.at(idx), (lp - lm) / (2 * eps), 5e-2f);
  }
}

TEST(Grad, Gelu) {
  Rng rng(5);
  Tensor x = random_normal({10}, rng);
  Tensor g = random_normal({10}, rng);
  Gelu act;
  act.forward(x);
  Tensor dx = act.backward(g);
  check_input_grad([&](const Tensor& in) { return gelu(in); }, x, dx, g, 2e-2f);
}

TEST(Grad, Softmax) {
  Rng rng(6);
  Tensor x = random_normal({3, 5}, rng);
  Tensor g = random_normal({3, 5}, rng);
  Tensor y = softmax(x);
  Tensor dx = softmax_backward(y, g);
  check_input_grad([&](const Tensor& in) { return softmax(in); }, x, dx, g);
}

TEST(Grad, Attention) {
  Rng rng(7);
  MultiHeadAttention attn(8, 2, rng);
  Tensor x = random_normal({2, 3, 8}, rng);
  Tensor g = random_normal({2, 3, 8}, rng);
  (void)attn.forward(x);
  Tensor dx = attn.backward(g);
  check_input_grad([&](const Tensor& in) { return attn.forward(in); }, x, dx, g,
                   8e-2f);
}

TEST(Grad, FeedForward) {
  Rng rng(8);
  FeedForward ffn(6, rng);
  Tensor x = random_normal({3, 6}, rng);
  Tensor g = random_normal({3, 6}, rng);
  (void)ffn.forward(x);
  Tensor dx = ffn.backward(g);
  check_input_grad([&](const Tensor& in) { return ffn.forward(in); }, x, dx, g,
                   8e-2f);
}

TEST(Grad, TransformerLayer) {
  Rng rng(9);
  TransformerLayer layer(8, 2, rng);
  Tensor x = random_normal({2, 3, 8}, rng);
  Tensor g = random_normal({2, 3, 8}, rng);
  (void)layer.forward(x);
  Tensor dx = layer.backward(g);
  check_input_grad([&](const Tensor& in) { return layer.forward(in); }, x, dx,
                   g, 1e-1f);
}

TEST(Grad, CrossEntropyMatchesFiniteDifference) {
  Rng rng(10);
  Tensor logits = random_normal({3, 4}, rng);
  std::vector<int> targets{1, 0, 3};
  LossResult res = softmax_cross_entropy(logits, targets);
  for (std::int64_t idx = 0; idx < logits.numel(); ++idx) {
    const float eps = 1e-3f;
    const float orig = logits.at(idx);
    logits.at(idx) = orig + eps;
    const float lp = softmax_cross_entropy(logits, targets).loss;
    logits.at(idx) = orig - eps;
    const float lm = softmax_cross_entropy(logits, targets).loss;
    logits.at(idx) = orig;
    EXPECT_NEAR(res.dlogits.at(idx), (lp - lm) / (2 * eps), 2e-2f);
  }
}

TEST(Grad, MseMatchesFiniteDifference) {
  Rng rng(11);
  Tensor p = random_normal({6}, rng);
  Tensor t = random_normal({6}, rng);
  LossResult res = mse_loss(p, t);
  for (std::int64_t idx = 0; idx < 6; ++idx) {
    const float eps = 1e-3f;
    const float orig = p.at(idx);
    p.at(idx) = orig + eps;
    const float lp = mse_loss(p, t).loss;
    p.at(idx) = orig - eps;
    const float lm = mse_loss(p, t).loss;
    p.at(idx) = orig;
    EXPECT_NEAR(res.dlogits.at(idx), (lp - lm) / (2 * eps), 1e-3f);
  }
}

}  // namespace
}  // namespace tsr::nn
