#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/kernel_registry.hpp"

namespace tsr {
namespace {
void check_same_numel(const Tensor& a, const Tensor& b, const char* op) {
  if (a.numel() != b.numel()) {
    throw std::invalid_argument(std::string(op) + ": size mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_numel(a, b, "add");
  Tensor out = Tensor::like(a, a.shape());
  if (out.is_phantom()) return out;
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) po[i] = pa[i] + pb[i];
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_numel(a, b, "sub");
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i)
    out.data()[i] = a.data()[i] - b.data()[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_numel(a, b, "mul");
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i)
    out.data()[i] = a.data()[i] * b.data()[i];
  return out;
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  check_same_numel(x, y, "axpy");
  if (y.is_phantom()) return;
  active_kernel_variant().axpy(alpha, x.data(), y.data(), x.numel());
}

void scale(Tensor& t, float alpha) {
  if (t.is_phantom()) return;
  active_kernel_variant().scale(t.data(), alpha, t.numel());
}

Tensor scaled(const Tensor& t, float alpha) {
  Tensor out = t.clone();
  scale(out, alpha);
  return out;
}

void add_bias(Tensor& x, const Tensor& bias) {
  check(x.ndim() >= 1 && bias.ndim() == 1, "add_bias: bias must be 1-D");
  const std::int64_t f = x.dim(-1);
  check(bias.dim(0) == f, "add_bias: feature count mismatch");
  if (x.is_phantom()) return;
  const std::int64_t rows = x.numel() / f;
  float* px = x.data();
  const float* pb = bias.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = px + r * f;
    for (std::int64_t j = 0; j < f; ++j) row[j] += pb[j];
  }
}

Tensor bias_grad(const Tensor& dy) {
  check(dy.ndim() >= 1, "bias_grad: needs at least 1-D input");
  const std::int64_t f = dy.dim(-1);
  const std::int64_t rows = dy.numel() / f;
  Tensor g = Tensor::like(dy, {f});
  if (g.is_phantom()) return g;
  g.fill(0.0f);
  const float* p = dy.data();
  float* pg = g.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = p + r * f;
    for (std::int64_t j = 0; j < f; ++j) pg[j] += row[j];
  }
  return g;
}

float sum(const Tensor& t) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) acc += t.data()[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& t) {
  check(t.numel() > 0, "mean: empty tensor");
  return sum(t) / static_cast<float>(t.numel());
}

float max_abs(const Tensor& t) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < t.numel(); ++i)
    m = std::max(m, std::fabs(t.data()[i]));
  return m;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_numel(a, b, "max_abs_diff");
  float m = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.numel() != b.numel()) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    if (std::fabs(x - y) > atol + rtol * std::fabs(y)) return false;
  }
  return true;
}

Tensor slice_block(const Tensor& src, std::int64_t r0, std::int64_t c0,
                   std::int64_t rows, std::int64_t cols) {
  check(src.ndim() == 2, "slice_block: source must be 2-D");
  check(r0 >= 0 && c0 >= 0 && r0 + rows <= src.dim(0) && c0 + cols <= src.dim(1),
        "slice_block: block out of bounds");
  Tensor out = Tensor::like(src, {rows, cols});
  if (out.is_phantom()) return out;
  const std::int64_t ld = src.dim(1);
  for (std::int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.data() + r * cols, src.data() + (r0 + r) * ld + c0,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
  return out;
}

void paste_block(Tensor& dst, const Tensor& block, std::int64_t r0,
                 std::int64_t c0) {
  check(dst.ndim() == 2 && block.ndim() == 2, "paste_block: operands must be 2-D");
  const std::int64_t rows = block.dim(0);
  const std::int64_t cols = block.dim(1);
  check(r0 >= 0 && c0 >= 0 && r0 + rows <= dst.dim(0) && c0 + cols <= dst.dim(1),
        "paste_block: block out of bounds");
  const std::int64_t ld = dst.dim(1);
  for (std::int64_t r = 0; r < rows; ++r) {
    std::memcpy(dst.data() + (r0 + r) * ld + c0, block.data() + r * cols,
                static_cast<std::size_t>(cols) * sizeof(float));
  }
}

Tensor transpose2d(const Tensor& t) {
  check(t.ndim() == 2, "transpose2d: input must be 2-D");
  const std::int64_t m = t.dim(0);
  const std::int64_t n = t.dim(1);
  Tensor out({n, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) out.at(j, i) = t.at(i, j);
  }
  return out;
}

Tensor hcat(const std::vector<Tensor>& parts) {
  check(!parts.empty(), "hcat: no parts");
  const std::int64_t rows = parts.front().dim(0);
  std::int64_t cols = 0;
  for (const Tensor& p : parts) {
    check(p.ndim() == 2 && p.dim(0) == rows, "hcat: row count mismatch");
    cols += p.dim(1);
  }
  Tensor out = Tensor::like(parts.front(), {rows, cols});
  if (out.is_phantom()) return out;
  std::int64_t c0 = 0;
  for (const Tensor& p : parts) {
    paste_block(out, p, 0, c0);
    c0 += p.dim(1);
  }
  return out;
}

Tensor vcat(const std::vector<Tensor>& parts) {
  check(!parts.empty(), "vcat: no parts");
  const std::int64_t cols = parts.front().dim(1);
  std::int64_t rows = 0;
  for (const Tensor& p : parts) {
    check(p.ndim() == 2 && p.dim(1) == cols, "vcat: column count mismatch");
    rows += p.dim(0);
  }
  Tensor out({rows, cols});
  std::int64_t r0 = 0;
  for (const Tensor& p : parts) {
    paste_block(out, p, r0, 0);
    r0 += p.dim(0);
  }
  return out;
}

}  // namespace tsr
