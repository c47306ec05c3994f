// Serial neural-net layers: functional behaviour (shapes, special values,
// invariants) and optimizers. Gradient correctness lives in test_nn_grad.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>

#include "nn/activation.hpp"
#include "nn/attention.hpp"
#include "nn/dropout.hpp"
#include "nn/embedding.hpp"
#include "nn/feedforward.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax.hpp"
#include "nn/transformer.hpp"
#include "tensor/init.hpp"
#include "tensor/kernel_registry.hpp"
#include "tensor/kernels.hpp"

namespace tsr::nn {
namespace {

TEST(Linear, ShapesAndBias) {
  Rng rng(1);
  Linear fc(4, 6, rng);
  Tensor x = random_normal({2, 3, 4}, rng);
  Tensor y = fc.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 6}));
  // Zero input -> bias only (bias initialized to zero).
  Tensor z = fc.forward(Tensor::zeros({1, 4}));
  EXPECT_FLOAT_EQ(max_abs(z), 0.0f);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(2);
  Linear fc(4, 4, rng, /*with_bias=*/false);
  EXPECT_FALSE(fc.has_bias());
  EXPECT_EQ(fc.params().size(), 1u);
  Tensor y = fc.forward(Tensor::ones({1, 4}));
  EXPECT_EQ(y.numel(), 4);
}

TEST(Linear, BackwardRequiresForward) {
  Rng rng(3);
  Linear fc(4, 4, rng);
  EXPECT_THROW(fc.backward(Tensor::ones({1, 4})), std::invalid_argument);
}

TEST(Linear, GradAccumulatesAcrossCalls) {
  Rng rng(4);
  Linear fc(3, 3, rng);
  Tensor x = random_normal({2, 3}, rng);
  Tensor dy = random_normal({2, 3}, rng);
  (void)fc.forward(x);
  (void)fc.backward(dy);
  Tensor once = fc.w.grad.clone();
  (void)fc.forward(x);
  (void)fc.backward(dy);
  EXPECT_LT(max_abs_diff(fc.w.grad, scaled(once, 2.0f)), 1e-5f);
  fc.zero_grad();
  EXPECT_FLOAT_EQ(max_abs(fc.w.grad), 0.0f);
}

TEST(LayerNorm, OutputIsNormalized) {
  Rng rng(5);
  LayerNorm ln(16);
  Tensor x = random_normal({4, 16}, rng);
  scale(x, 3.0f);
  Tensor y = ln.forward(x);
  for (std::int64_t r = 0; r < 4; ++r) {
    double s = 0.0;
    double s2 = 0.0;
    for (std::int64_t i = 0; i < 16; ++i) {
      s += y.at(r, i);
      s2 += static_cast<double>(y.at(r, i)) * y.at(r, i);
    }
    EXPECT_NEAR(s / 16.0, 0.0, 1e-4);
    EXPECT_NEAR(s2 / 16.0, 1.0, 1e-2);
  }
}

TEST(LayerNorm, GammaBetaApplied) {
  LayerNorm ln(4);
  ln.gamma.value.fill(2.0f);
  ln.beta.value.fill(1.0f);
  Tensor x = Tensor::from({1, 2, 3, 4}, {1, 4});
  Tensor y = ln.forward(x);
  // mean of y = beta (normalized part has zero mean), range scaled by gamma.
  double s = 0.0;
  for (std::int64_t i = 0; i < 4; ++i) s += y.at(0, i);
  EXPECT_NEAR(s / 4.0, 1.0, 1e-5);
}

TEST(Activation, GeluKnownValues) {
  Tensor x = Tensor::of({0.0f, 100.0f, -100.0f});
  Tensor y = gelu(x);
  EXPECT_FLOAT_EQ(y.at(0), 0.0f);
  EXPECT_NEAR(y.at(1), 100.0f, 1e-3f);   // identity for large positive
  EXPECT_NEAR(y.at(2), 0.0f, 1e-3f);     // zero for large negative
}

// dy/dx recomputed from x by the scalar registry kernel, then dx = dy * dydx:
// Gelu::backward, whatever variant is active, must match it bit for bit.
Tensor reference_gelu_backward(const Tensor& x, const Tensor& dy) {
  const KernelVariant* scalar = find_kernel_variant("scalar");
  check(scalar != nullptr, "no scalar kernel variant");
  Tensor y(x.shape());
  Tensor dydx(x.shape());
  scalar->gelu(x.data(), y.data(), dydx.data(), x.numel());
  Tensor dx(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    dx.data()[i] = dy.data()[i] * dydx.data()[i];
  }
  return dx;
}

TEST(Activation, GeluBackwardBitIdenticalToReferenceFormula) {
  Rng rng(12);
  // Wide inputs reach both saturated tails; two forwards in flight check
  // the LIFO pairing of cached derivatives.
  Tensor x1 = scaled(random_normal({7, 37}, rng), 4.0f);
  Tensor x2 = random_normal({7, 37}, rng);
  const Tensor dy1 = random_normal({7, 37}, rng);
  const Tensor dy2 = random_normal({7, 37}, rng);
  Gelu act;
  const Tensor y1 = act.forward(x1);
  act.forward(x2);
  EXPECT_EQ(act.cached_bytes(), 2 * x1.numel() * 4);
  const Tensor dx2 = act.backward(dy2);
  const Tensor dx1 = act.backward(dy1);
  EXPECT_EQ(act.in_flight(), 0u);
  const auto same = [](const Tensor& a, const Tensor& b) {
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * 4) == 0;
  };
  EXPECT_TRUE(same(dx1, reference_gelu_backward(x1, dy1)));
  EXPECT_TRUE(same(dx2, reference_gelu_backward(x2, dy2)));
  EXPECT_TRUE(same(y1, gelu(x1)));
}

// The registry kernel against the tanh-approximation GELU evaluated in
// double, over a dense sweep of [-20, 20]: y within 2e-7 * max(1, |v|) and
// dy/dx within 4e-6 * max(1, |dy/dx|) (|dy/dx| <= 1.13, so in effect an
// absolute bound; dy/dx crosses zero near v = -0.75, where no relative bound
// holds). The float formula through std::tanh, which the kernel replaced,
// is measured alongside and both maxima are printed.
TEST(Activation, GeluAccuracyAgainstDoubleReference) {
  constexpr std::int64_t kN = 1 << 20;
  Tensor x({kN});
  for (std::int64_t i = 0; i < kN; ++i) {
    x.data()[i] =
        -20.0f + 40.0f * static_cast<float>(i) / static_cast<float>(kN);
  }
  Tensor dydx({kN});
  const Tensor y = gelu(x, &dydx);
  const double c = std::sqrt(2.0 / std::numbers::pi);
  const double a = 0.044715;
  double y_err = 0.0, d_err = 0.0, y_err_tanh = 0.0, d_err_tanh = 0.0;
  std::int64_t subnormal = 0;  // outputs; every input here is 0 or normal
  for (std::int64_t i = 0; i < kN; ++i) {
    const float vf = x.data()[i];
    subnormal += (std::fpclassify(y.data()[i]) == FP_SUBNORMAL) +
                 (std::fpclassify(dydx.data()[i]) == FP_SUBNORMAL);
    const double v = vf;
    const double t = std::tanh(c * (v + a * v * v * v));
    const double y_ref = 0.5 * v * (1.0 + t);
    const double d_ref = 0.5 * (1.0 + t) +
                         0.5 * v * (1.0 - t * t) * c * (1.0 + 3.0 * a * v * v);
    const double y_scale = std::max(1.0, std::fabs(v));
    const double d_scale = std::max(1.0, std::fabs(d_ref));
    y_err = std::max(y_err, std::fabs(y.data()[i] - y_ref) / y_scale);
    d_err = std::max(d_err, std::fabs(dydx.data()[i] - d_ref) / d_scale);
    // The replaced form, in float as it ran.
    constexpr float kSqrt2OverPi = 0.7978845608028654f;
    constexpr float kCoef = 0.044715f;
    const float tf = std::tanh(kSqrt2OverPi * (vf + kCoef * vf * vf * vf));
    const float yf = 0.5f * vf * (1.0f + tf);
    const float duf = kSqrt2OverPi * (1.0f + 3.0f * kCoef * vf * vf);
    const float df = 0.5f * (1.0f + tf) + 0.5f * vf * (1.0f - tf * tf) * duf;
    y_err_tanh = std::max(y_err_tanh, std::fabs(yf - y_ref) / y_scale);
    d_err_tanh = std::max(d_err_tanh, std::fabs(df - d_ref) / d_scale);
  }
  std::printf("gelu max error over %lld inputs: y %.3g (std::tanh form %.3g), "
              "dy/dx %.3g (std::tanh form %.3g)\n",
              static_cast<long long>(kN), y_err, y_err_tanh, d_err, d_err_tanh);
  EXPECT_LE(y_err, 2e-7);
  EXPECT_LE(d_err, 4e-6);
  EXPECT_EQ(subnormal, 0);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(6);
  Tensor x = random_normal({5, 7}, rng);
  Tensor y = softmax(x);
  for (std::int64_t r = 0; r < 5; ++r) {
    double s = 0.0;
    for (std::int64_t i = 0; i < 7; ++i) {
      EXPECT_GT(y.at(r, i), 0.0f);
      s += y.at(r, i);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Softmax, StableUnderLargeInputs) {
  Tensor x = Tensor::of({1000.0f, 1000.0f, 1000.0f});
  Tensor y = softmax(x.reshape({1, 3}));
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_NEAR(y.at(0, i), 1.0f / 3, 1e-5f);
}

TEST(Softmax, ShiftInvariance) {
  Rng rng(7);
  Tensor x = random_normal({2, 5}, rng);
  Tensor shifted = x.clone();
  for (std::int64_t i = 0; i < shifted.numel(); ++i) shifted.at(i) += 10.0f;
  EXPECT_LT(max_abs_diff(softmax(x), softmax(shifted)), 1e-5f);
}

TEST(Dropout, ZeroProbabilityIsIdentity) {
  Dropout drop(0.0f);
  Rng rng(8);
  Tensor x = random_normal({3, 3}, rng);
  Tensor y = drop.forward(x, /*train=*/true);
  EXPECT_FLOAT_EQ(max_abs_diff(x, y), 0.0f);
  Tensor dy = random_normal({3, 3}, rng);
  EXPECT_FLOAT_EQ(max_abs_diff(drop.backward(dy), dy), 0.0f);
}

TEST(Dropout, EvalModeBypasses) {
  Dropout drop(0.5f, 1);
  Tensor x = Tensor::ones({100});
  Tensor y = drop.forward(x, /*train=*/false);
  EXPECT_FLOAT_EQ(max_abs_diff(x, y), 0.0f);
}

TEST(Dropout, MaskIsScaledAndReusedInBackward) {
  Dropout drop(0.5f, 2);
  Tensor x = Tensor::ones({10000});
  Tensor y = drop.forward(x, true);
  int zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y.at(i), 2.0f);  // 1 / (1 - 0.5)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.05);
  // Backward applies the identical mask.
  Tensor dx = drop.backward(Tensor::ones({10000}));
  EXPECT_FLOAT_EQ(max_abs_diff(dx, y), 0.0f);
}

TEST(Dropout, RejectsBadProbability) {
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
}

TEST(Attention, HeadSplitMergeRoundTrip) {
  Rng rng(9);
  Tensor x = random_normal({2, 3, 8}, rng);
  Tensor heads = split_heads(x, 4);
  EXPECT_EQ(heads.shape(), (Shape{8, 3, 2}));
  Tensor back = merge_heads(heads, 2);
  EXPECT_FLOAT_EQ(max_abs_diff(x, back), 0.0f);
}

TEST(Attention, OutputShapeAndDeterminism) {
  Rng rng(10);
  MultiHeadAttention attn(8, 2, rng);
  Tensor x = random_normal({2, 4, 8}, rng);
  Tensor y1 = attn.forward(x);
  Tensor y2 = attn.forward(x);
  EXPECT_EQ(y1.shape(), x.shape());
  EXPECT_FLOAT_EQ(max_abs_diff(y1, y2), 0.0f);
}

TEST(Attention, RejectsIndivisibleHeads) {
  Rng rng(11);
  EXPECT_THROW(MultiHeadAttention(8, 3, rng), std::invalid_argument);
}

TEST(FeedForward, ExpansionShapes) {
  Rng rng(12);
  FeedForward ffn(8, rng, 4);
  EXPECT_EQ(ffn.fc1.out_features(), 32);
  EXPECT_EQ(ffn.fc2.in_features(), 32);
  Tensor y = ffn.forward(Tensor::ones({2, 8}));
  EXPECT_EQ(y.shape(), (Shape{2, 8}));
}

TEST(Transformer, StackDepthAndParams) {
  Rng rng(13);
  TransformerEncoder enc({.hidden = 8, .heads = 2, .layers = 3}, rng);
  // Per layer: 2 LN (2 params each) + qkv/proj/fc1/fc2 (2 params each) = 12.
  EXPECT_EQ(enc.params().size(), 3u * 12u);
  Tensor x = random_normal({2, 4, 8}, rng);
  EXPECT_EQ(enc.forward(x).shape(), x.shape());
}

TEST(Embedding, LookupAndGrad) {
  Rng rng(14);
  Embedding emb(10, 4, rng);
  std::vector<int> ids{1, 3, 1, 9};
  Tensor y = emb.forward(ids, 2);
  EXPECT_EQ(y.shape(), (Shape{2, 2, 4}));
  // Row 0 and row 2 (both id 1) must be identical.
  for (std::int64_t e = 0; e < 4; ++e) {
    EXPECT_EQ(y.at(0, 0, e), y.at(1, 0, e));
  }
  emb.backward(Tensor::ones({2, 2, 4}));
  // id 1 appears twice -> gradient 2, id 0 never -> 0.
  EXPECT_FLOAT_EQ(emb.table.grad.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(emb.table.grad.at(0, 0), 0.0f);
}

TEST(PatchEmbedding, TokenCount) {
  Rng rng(15);
  PatchEmbedding pe(8, 4, 3, 16, rng);
  EXPECT_EQ(pe.tokens(), 1 + 4);  // cls + (8/4)^2 patches
  Tensor imgs = random_normal({2, 3, 8, 8}, rng);
  Tensor y = pe.forward(imgs);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 16}));
}

TEST(Loss, CrossEntropyPerfectPrediction) {
  Tensor logits = Tensor::from({100, 0, 0, 0, 100, 0}, {2, 3});
  std::vector<int> targets{0, 1};
  LossResult res = softmax_cross_entropy(logits, targets);
  EXPECT_NEAR(res.loss, 0.0f, 1e-4f);
  EXPECT_LT(max_abs(res.dlogits), 1e-4f);
}

TEST(Loss, CrossEntropyUniform) {
  Tensor logits = Tensor::zeros({1, 4});
  std::vector<int> targets{2};
  LossResult res = softmax_cross_entropy(logits, targets);
  EXPECT_NEAR(res.loss, std::log(4.0f), 1e-5f);
  // Gradient: probs - onehot = 0.25 everywhere except 0.25 - 1 at target.
  EXPECT_NEAR(res.dlogits.at(0, 2), -0.75f, 1e-5f);
  EXPECT_NEAR(res.dlogits.at(0, 0), 0.25f, 1e-5f);
}

TEST(Loss, MseZeroForEqual) {
  Tensor p = Tensor::ones({4});
  LossResult res = mse_loss(p, p.clone());
  EXPECT_FLOAT_EQ(res.loss, 0.0f);
  EXPECT_FLOAT_EQ(max_abs(res.dlogits), 0.0f);
}

TEST(Optimizer, SgdStepMovesAgainstGradient) {
  Param p({2});
  p.value.fill(1.0f);
  p.grad.fill(0.5f);
  SGD opt(0.1f);
  std::vector<Param*> params{&p};
  opt.step(params);
  EXPECT_FLOAT_EQ(p.value.at(0), 1.0f - 0.1f * 0.5f);
}

TEST(Optimizer, SgdMomentumAccumulates) {
  Param p({1});
  p.value.fill(0.0f);
  p.grad.fill(1.0f);
  SGD opt(1.0f, /*momentum=*/0.9f);
  std::vector<Param*> params{&p};
  opt.step(params);
  const float after_one = p.value.at(0);
  opt.step(params);
  // Second step moves further: v = 0.9*1 + 1 = 1.9.
  EXPECT_FLOAT_EQ(p.value.at(0), after_one - 1.9f);
}

TEST(Optimizer, AdamFirstStepIsLrSized) {
  Param p({1});
  p.value.fill(0.0f);
  p.grad.fill(123.0f);  // magnitude irrelevant on step 1 (bias correction)
  Adam opt(0.01f);
  std::vector<Param*> params{&p};
  opt.step(params);
  EXPECT_NEAR(p.value.at(0), -0.01f, 1e-5f);
}

TEST(Optimizer, AdamWeightDecayShrinksWeights) {
  Param p({1});
  p.value.fill(1.0f);
  p.grad.fill(0.0f);
  Adam opt(0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.5f);
  std::vector<Param*> params{&p};
  opt.step(params);
  EXPECT_NEAR(p.value.at(0), 1.0f - 0.1f * 0.5f, 1e-5f);
}

}  // namespace
}  // namespace tsr::nn
