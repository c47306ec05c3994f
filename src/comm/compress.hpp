// bf16 wire compression for gradient all-reduce.
//
// Tesseract's depth dimension all-reduces B' gradient partials every step;
// those transfers dominate the depth wire volume. Encoding each fp32 element
// as bfloat16 (round-to-nearest-even, tensor/bf16.hpp) halves the bytes on
// the wire exactly (2 bytes/element) while keeping the REDUCTION in fp32:
// each hop decodes, accumulates in fp32, and re-encodes, so the only
// precision loss is bf16 storage rounding per hop — the standard
// gradient-compression recipe (bf16 has fp32's exponent range, so no
// overflow/underflow surprises on gradients).
//
// Determinism: the encode is a pure per-element bit function and the ring
// schedule is fixed, so compressed all-reduce results are bit-identical
// across scheduler backends and worker counts, and every rank decodes the
// same encoded bits (all-rank agreement is exact even though the values
// differ from the uncompressed reduction by the documented tolerance).
//
// Enabled per run by RunConfig::compress_depth (TESSERACT_COMPRESS_DEPTH=1
// in a bench or tool); the collective reports under
// comm.all_reduce_compressed.* metrics with wire_bytes = 2 * count.
#pragma once

#include <cstdint>
#include <span>

namespace tsr::comm {

/// Number of float payload slots needed to carry `n` bf16-encoded elements
/// (two 16-bit codes packed per 32-bit slot).
std::int64_t bf16_packed_count(std::int64_t n);

/// Encodes src[0..n) to bf16 (round-to-nearest-even) packed two codes per
/// float slot of `dst`; dst must hold bf16_packed_count(n) floats. Odd-n
/// tail slots carry a zero code in the upper half.
void bf16_compress(const float* src, std::int64_t n, float* dst);

/// Decodes `n` bf16 codes packed in `src` back to fp32 in dst[0..n).
void bf16_decompress(const float* src, std::int64_t n, float* dst);

}  // namespace tsr::comm
