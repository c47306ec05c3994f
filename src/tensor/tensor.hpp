// Dense row-major float32 tensor with shared ownership.
//
// The tensor library underpins every module in this repository: serial
// reference kernels, the distributed matmul algorithms, and the neural-net
// layers. Tensors are always contiguous; reshape() returns a view that
// shares storage. All shapes use int64_t to avoid overflow in size
// computations at paper-scale dimensions (e.g. 8192 x 32768 weights).
#pragma once

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

/// Shape of a tensor: up to 4 dimensions in practice, stored dynamically.
using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (1 for a scalar / empty shape).
std::int64_t shape_numel(const Shape& shape);

/// Human-readable "[a, b, c]" form for error messages and reports.
std::string shape_to_string(const Shape& shape);

/// Dense, contiguous, row-major float tensor.
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

  const Shape& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t dim(std::int64_t i) const;
  std::int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

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

  /// Deep copy with fresh storage.
  Tensor clone() const;
  /// Overwrite all elements with `value`.
  void fill(float value);
  /// Copy elements from `src` (shapes must have equal numel).
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
  std::shared_ptr<float[]> data_;
};

inline std::int64_t Tensor::dim(std::int64_t i) const {
  if (i < 0) i += ndim();
  check(i >= 0 && i < ndim(), "Tensor::dim: index out of range");
  return shape_[static_cast<std::size_t>(i)];
}

}  // namespace tsr
