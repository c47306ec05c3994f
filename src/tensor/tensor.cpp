#include "tensor/tensor.hpp"

#include <cassert>
#include <cstring>
#include <new>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "obs/memory.hpp"
#include "tensor/aligned.hpp"

namespace tsr {

void check_failed(const char* what) { throw std::invalid_argument(what); }

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    if (d < 0) {
      throw std::invalid_argument("negative dimension in shape " +
                                  shape_to_string(shape));
    }
    n *= d;
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  numel_ = shape_numel(shape_);
  if (numel_ > 0) {
    const std::int64_t bytes = numel_ * static_cast<std::int64_t>(sizeof(float));
    obs::track_tensor_alloc(bytes);
    // Cache-line-aligned storage so SIMD kernel variants can stream aligned
    // rows (and no tensor ever shares a cache line with unrelated data).
    float* raw = static_cast<float*>(
        ::operator new(static_cast<std::size_t>(bytes),
                       std::align_val_t{kTensorAlignment}));
    data_ = std::shared_ptr<float[]>(raw, [bytes](float* p) {
      obs::track_tensor_free(bytes);
      ::operator delete(p, std::align_val_t{kTensorAlignment});
    });
    assert(is_tensor_aligned(data_.get()) &&
           "Tensor storage must be kTensorAlignment-aligned");
  }
}

Tensor Tensor::zeros(Shape shape) {
  Tensor t(std::move(shape));
  t.fill(0.0f);
  return t;
}

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.0f); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::from(std::vector<float> values, Shape shape) {
  return from(std::span<const float>(values.data(), values.size()),
              std::move(shape));
}

Tensor Tensor::from(std::span<const float> values, Shape shape) {
  if (static_cast<std::int64_t>(values.size()) != shape_numel(shape)) {
    throw std::invalid_argument(
        "Tensor::from: value count does not match shape " +
        shape_to_string(shape));
  }
  Tensor t(std::move(shape));
  if (!values.empty()) {
    std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  }
  return t;
}

Tensor Tensor::of(std::initializer_list<float> values) {
  return from(std::vector<float>(values),
              Shape{static_cast<std::int64_t>(values.size())});
}

Tensor Tensor::phantom(Shape shape, std::int64_t elem_bytes) {
  check(elem_bytes > 0, "Tensor::phantom: element size must be positive");
  Tensor t;
  t.numel_ = shape_numel(shape);
  t.shape_ = shape;
  t.elem_bytes_ = elem_bytes;
  return t;
}

Tensor Tensor::like(const Tensor& proto, Shape shape) {
  if (proto.is_phantom()) return phantom(shape, proto.elem_bytes_);
  return Tensor(shape);
}

Tensor Tensor::reshape(Shape new_shape) const {
  if (shape_numel(new_shape) != numel_) {
    throw std::invalid_argument("Tensor::reshape: cannot reshape " +
                                shape_to_string(shape_) + " to " +
                                shape_to_string(new_shape));
  }
  Tensor view;
  view.shape_ = std::move(new_shape);
  view.numel_ = numel_;
  view.elem_bytes_ = elem_bytes_;
  view.data_ = data_;
  return view;
}

Tensor Tensor::as_matrix() const {
  check(ndim() >= 1, "Tensor::as_matrix: needs at least 1 dimension");
  if (ndim() == 1) return reshape({1, shape_[0]});
  std::int64_t rows = 1;
  for (std::size_t i = 0; i + 1 < shape_.size(); ++i) rows *= shape_[i];
  return reshape({rows, shape_.back()});
}

Tensor Tensor::clone() const {
  // A default-constructed tensor has an empty shape AND numel 0; a scalar
  // Tensor({}) has numel 1. Preserve the distinction: cloning empty yields
  // empty rather than a scalar built from the empty shape.
  if (numel_ == 0) {
    Tensor t;
    t.shape_ = shape_;
    return t;
  }
  if (is_phantom()) return *this;
  Tensor t(shape_);
  std::memcpy(t.data(), data(), static_cast<std::size_t>(numel_) * sizeof(float));
  return t;
}

void Tensor::fill(float value) {
  if (is_phantom()) return;
  for (std::int64_t i = 0; i < numel_; ++i) data_[i] = value;
}

void Tensor::copy_from(const Tensor& src) {
  check(src.numel() == numel_, "Tensor::copy_from: size mismatch");
  if (numel_ > 0 && !is_phantom()) {
    std::memcpy(data(), src.data(), static_cast<std::size_t>(numel_) * sizeof(float));
  }
}

}  // namespace tsr
