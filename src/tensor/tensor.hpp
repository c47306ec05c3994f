// Dense row-major float32 tensor with shared ownership, or a storage-free
// phantom of the same shape.
//
// The tensor library underpins every module in this repository: serial
// reference kernels, the distributed matmul algorithms, and the neural-net
// layers. Tensors are always contiguous; reshape() returns a view that
// shares storage. All shapes use int64_t to avoid overflow in size
// computations at paper-scale dimensions (e.g. 8192 x 32768 weights).
//
// A phantom tensor (Tensor::phantom) is a shape and an element size (4, or
// 2 for fp16) with no buffer. Kernels given one skip the arithmetic and
// return phantoms; collectives send nbytes() of payload-free messages. The
// paper-scale replay (perf/cost_model.hpp) runs the real layers on them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace tsr {

/// Throws std::invalid_argument carrying `what`; the cold half of check().
[[noreturn]] void check_failed(const char* what);

/// Throwing check used across the library: aborts the computation with
/// std::invalid_argument carrying `what` when `cond` is false. Inline and
/// allocation-free when the check passes. A message that needs formatting
/// (shapes, numbers) must be built only on failure: test the condition,
/// then throw std::invalid_argument yourself (tools/check_hot_checks.py
/// rejects eager formatting in a check() argument).
inline void check(bool cond, const char* what) {
  if (!cond) [[unlikely]] check_failed(what);
}

/// Shape of a tensor: up to kMaxDims dimensions stored inline, so making,
/// copying or reshaping a tensor never allocates for its shape.
class Shape {
 public:
  static constexpr std::size_t kMaxDims = 4;
  using const_iterator = const std::int64_t*;  // gtest prints it as a range

  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) {
    for (std::int64_t d : dims) push_back(d);
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  std::int64_t& operator[](std::size_t i) { return d_[i]; }
  std::int64_t operator[](std::size_t i) const { return d_[i]; }
  std::int64_t& back() { return d_[n_ - 1]; }
  std::int64_t back() const { return d_[n_ - 1]; }
  const std::int64_t* begin() const { return d_; }
  const std::int64_t* end() const { return d_ + n_; }
  void push_back(std::int64_t d) {
    check(n_ < kMaxDims, "Shape: more than kMaxDims dimensions");
    d_[n_++] = d;
  }
  friend bool operator==(const Shape& a, const Shape& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::int64_t d_[kMaxDims] = {};
  std::size_t n_ = 0;
};

/// Number of elements implied by a shape (1 for a scalar / empty shape).
std::int64_t shape_numel(const Shape& shape);

/// Human-readable "[a, b, c]" form for error messages and reports.
std::string shape_to_string(const Shape& shape);

/// Dense, contiguous, row-major float tensor (or a phantom of one).
///
/// Copying a Tensor is cheap (shared storage); use clone() for a deep copy.
/// Element accessors bounds-check in debug builds only (TSR_CHECK_BOUNDS).
class Tensor {
 public:
  /// An empty tensor (numel() == 0, ndim() == 0).
  Tensor() = default;

  /// Uninitialized tensor of the given shape. Prefer zeros()/full() unless
  /// every element is about to be overwritten.
  explicit Tensor(Shape shape);

  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  /// Takes ownership of `values` (must match shape_numel(shape)).
  static Tensor from(std::vector<float> values, Shape shape);
  /// Copies `values` into fresh aligned storage (must match shape_numel).
  static Tensor from(std::span<const float> values, Shape shape);
  /// 1-D tensor from an initializer list, convenience for tests.
  static Tensor of(std::initializer_list<float> values);
  /// Storage-free tensor of `shape` whose elements count `elem_bytes` each.
  static Tensor phantom(Shape shape, std::int64_t elem_bytes = sizeof(float));
  /// Uninitialized tensor of `shape`: a phantom with `proto`'s element size
  /// when `proto` is one, real storage otherwise. Kernels build their
  /// outputs with it.
  static Tensor like(const Tensor& proto, Shape shape);

  const Shape& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t dim(std::int64_t i) const;
  std::int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }
  /// True for a non-empty tensor without storage (see Tensor::phantom).
  bool is_phantom() const { return numel_ > 0 && !data_; }
  std::int64_t elem_bytes() const { return elem_bytes_; }
  /// numel() * elem_bytes(): what the tensor occupies, or would on the wire.
  std::int64_t nbytes() const { return numel_ * elem_bytes_; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }
  std::span<float> span() { return {data_.get(), static_cast<std::size_t>(numel_)}; }
  std::span<const float> span() const {
    return {data_.get(), static_cast<std::size_t>(numel_)};
  }

  /// Element access (row-major). 1-4 index overloads.
  float& at(std::int64_t i) { return data_[i]; }
  float at(std::int64_t i) const { return data_[i]; }
  float& at(std::int64_t i, std::int64_t j) { return data_[index(i, j)]; }
  float at(std::int64_t i, std::int64_t j) const { return data_[index(i, j)]; }
  float& at(std::int64_t i, std::int64_t j, std::int64_t k) {
    return data_[index(i, j, k)];
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return data_[index(i, j, k)];
  }
  float& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) {
    return data_[index(i, j, k, l)];
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) const {
    return data_[index(i, j, k, l)];
  }

  /// View with a new shape sharing storage; numel must match.
  Tensor reshape(Shape new_shape) const;
  /// Collapse all leading dimensions: [d0, ..., dk] -> [d0*...*d(k-1), dk].
  /// The canonical "rows x features" view used by matmul-based layers.
  Tensor as_matrix() const;

  /// Deep copy with fresh storage (a phantom's clone is a phantom).
  Tensor clone() const;
  /// Overwrite all elements with `value` (no-op on a phantom).
  void fill(float value);
  /// Copy elements from `src` (shapes must have equal numel; no-op on a
  /// phantom).
  void copy_from(const Tensor& src);

  /// True if the two tensors share the same storage buffer.
  bool shares_storage_with(const Tensor& other) const {
    return data_ == other.data_;
  }

 private:
  std::int64_t index(std::int64_t i, std::int64_t j) const {
    return i * shape_[1] + j;
  }
  std::int64_t index(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return (i * shape_[1] + j) * shape_[2] + k;
  }
  std::int64_t index(std::int64_t i, std::int64_t j, std::int64_t k,
                     std::int64_t l) const {
    return ((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l;
  }

  Shape shape_;
  std::int64_t numel_ = 0;
  std::int64_t elem_bytes_ = sizeof(float);
  std::shared_ptr<float[]> data_;
};

inline std::int64_t Tensor::dim(std::int64_t i) const {
  if (i < 0) i += ndim();
  check(i >= 0 && i < ndim(), "Tensor::dim: index out of range");
  return shape_[static_cast<std::size_t>(i)];
}

}  // namespace tsr
