// Block distribution utilities and grid communicator bundles.
//
// These implement the matrix layouts of Fig. 4 of the paper: a matrix is cut
// into a regular grid of equal blocks matched to the processor arrangement.
// All distributed algorithms in pdgemm/ and parallel/ require exact
// divisibility (the paper does too — e.g. Table 1 raises the batch size to
// 16 for the [4,4,4] shape so b is divisible by d*q).
#pragma once

#include <vector>

#include "comm/communicator.hpp"
#include "tensor/tensor.hpp"
#include "topology/grid.hpp"

namespace tsr::pdg {

/// Splits a 2-D matrix into an R x C grid of equal blocks, returned
/// row-major (blocks[r*C + c]). Dimensions must divide exactly.
std::vector<Tensor> partition(const Tensor& m, int rows, int cols);

/// The (r, c) block of an R x C partition, without materializing the rest.
Tensor block_of(const Tensor& m, int rows, int cols, int r, int c);

/// Inverse of partition().
Tensor combine(const std::vector<Tensor>& blocks, int rows, int cols);

/// Advances the caller's simulated clock by the modeled time of an
/// m x n x k GEMM on one device of the world's machine.
void charge_gemm(comm::Communicator& comm, std::int64_t m, std::int64_t n,
                 std::int64_t k);

/// Advances the caller's simulated clock by the modeled time of a
/// memory-bound kernel touching `bytes`.
void charge_memory_bound(comm::Communicator& comm, std::int64_t bytes);

/// Communicators of a [q, q] grid (SUMMA / Optimus / Cannon).
///
/// The parent communicator must have exactly q*q ranks laid out row-major:
/// group rank = i*q + j.
struct Grid2DComms {
  comm::Communicator grid;  ///< all q*q ranks
  comm::Communicator row;   ///< ranks sharing my row i (size q, ordered by j)
  comm::Communicator col;   ///< ranks sharing my column j (size q, ordered by i)
  int q = 0;
  int i = 0;  ///< my row
  int j = 0;  ///< my column

  static Grid2DComms create(comm::Communicator& parent, int q);
};

/// Communicators of the [q, q, d] Tesseract grid (paper Fig. 3).
///
/// The parent communicator must have exactly q*q*d ranks laid out
/// depth-major: group rank = (k*q + i)*q + j, matching topo::Grid3D.
struct TesseractComms {
  comm::Communicator grid;   ///< all q*q*d ranks
  comm::Communicator layer;  ///< my [q,q] depth layer (size q*q, row-major)
  comm::Communicator row;    ///< ranks sharing (i, k) (size q, ordered by j)
  comm::Communicator col;    ///< ranks sharing (j, k) (size q, ordered by i)
  comm::Communicator depth;  ///< ranks sharing (i, j) (size d, ordered by k)
  /// My depth layer as the [q, q] grid it runs SUMMA on (layer, row and col
  /// above, i, j): the product forms of pdgemm/tesseract_mm.hpp reuse these
  /// handles call after call.
  Grid2DComms plane;
  int q = 0;
  int d = 0;
  int i = 0;
  int j = 0;
  int k = 0;

  static TesseractComms create(comm::Communicator& parent, int q, int d);

  /// Row index of my A/C block in the (q*d) x q partition: i + k*q (Alg. 3).
  int a_block_row() const { return i + k * q; }
};

// ---- Tesseract layouts (Fig. 4) -------------------------------------------

/// My block of an "A-layout" matrix [a, b]: block (i + k*q, j) of a
/// (q*d) x q partition, shape [a/(q*d), b/q]. Activations and outputs use
/// this layout.
Tensor distribute_a_layout(const TesseractComms& tc, const Tensor& full);

/// My block of a "B-layout" matrix [b, c]: block (i, j) of a q x q
/// partition, shape [b/q, c/q], identical on every depth layer. Weights use
/// this layout.
Tensor distribute_b_layout(const TesseractComms& tc, const Tensor& full);

/// Reassembles a full matrix from A-layout blocks; every rank contributes
/// its block via all-gather on the grid communicator and every rank returns
/// the full matrix. `rows`/`cols` are the FULL matrix dimensions.
Tensor collect_a_layout(TesseractComms& tc, const Tensor& my_block,
                        std::int64_t rows, std::int64_t cols);

/// Reassembles a full matrix from B-layout blocks (layer 0's copies are
/// authoritative; all layers hold identical blocks).
Tensor collect_b_layout(TesseractComms& tc, const Tensor& my_block,
                        std::int64_t rows, std::int64_t cols);

}  // namespace tsr::pdg
