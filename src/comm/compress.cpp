#include "comm/compress.hpp"

#include <cstring>

#include "tensor/bf16.hpp"

namespace tsr::comm {

std::int64_t bf16_packed_count(std::int64_t n) { return (n + 1) / 2; }

void bf16_compress(const float* src, std::int64_t n, float* dst) {
  const std::int64_t pairs = n / 2;
  for (std::int64_t i = 0; i < pairs; ++i) {
    const std::uint32_t lo = f32_to_bf16(src[2 * i]);
    const std::uint32_t hi = f32_to_bf16(src[2 * i + 1]);
    const std::uint32_t packed = lo | (hi << 16);
    std::memcpy(&dst[i], &packed, sizeof(packed));
  }
  if (n % 2 != 0) {
    const std::uint32_t packed = f32_to_bf16(src[n - 1]);
    std::memcpy(&dst[pairs], &packed, sizeof(packed));
  }
}

void bf16_decompress(const float* src, std::int64_t n, float* dst) {
  const std::int64_t pairs = n / 2;
  for (std::int64_t i = 0; i < pairs; ++i) {
    std::uint32_t packed;
    std::memcpy(&packed, &src[i], sizeof(packed));
    dst[2 * i] = bf16_to_f32(static_cast<std::uint16_t>(packed & 0xffffu));
    dst[2 * i + 1] = bf16_to_f32(static_cast<std::uint16_t>(packed >> 16));
  }
  if (n % 2 != 0) {
    std::uint32_t packed;
    std::memcpy(&packed, &src[pairs], sizeof(packed));
    dst[n - 1] = bf16_to_f32(static_cast<std::uint16_t>(packed & 0xffffu));
  }
}

}  // namespace tsr::comm
