#include "pdgemm/summa.hpp"

#include "tensor/gemm.hpp"
#include "tensor/kernels.hpp"

namespace tsr::pdg {

Tensor summa_ab_local(Grid2DComms& g, const Tensor& a_block,
                      const Tensor& b_block) {
  const int q = g.q;
  check(a_block.dim(1) == b_block.dim(0),
        "summa_ab_local: inner block dimensions mismatch");
  Tensor c = Tensor::like(a_block, {a_block.dim(0), b_block.dim(1)});
  c.fill(0.0f);
  // A root sends straight from its own block (a shared handle, no copy: a
  // broadcast root only reads) and multiplies with it.
  Tensor a_own = a_block;
  Tensor b_own = b_block;
  Tensor a_recv = Tensor::like(a_block, a_block.shape());
  Tensor b_recv = Tensor::like(b_block, b_block.shape());
  for (int t = 0; t < q; ++t) {
    // Broadcast A_{it} along row i and B_{tj} down column j (Algorithm 2).
    Tensor& a_panel = g.j == t ? a_own : a_recv;
    g.row.broadcast(a_panel, t);
    Tensor& b_panel = g.i == t ? b_own : b_recv;
    g.col.broadcast(b_panel, t);
    matmul_acc(a_panel, b_panel, c);
    charge_gemm(g.grid, a_panel.dim(0), b_panel.dim(1), a_panel.dim(1));
  }
  return c;
}

Tensor summa_abt_local(Grid2DComms& g, const Tensor& a_block,
                       const Tensor& b_block) {
  const int q = g.q;
  check(a_block.dim(1) == b_block.dim(1),
        "summa_abt_local: trailing block dimensions must match (both split c)");
  Tensor result;  // filled at t == my column
  Tensor b_own = b_block;
  Tensor b_recv = Tensor::like(b_block, b_block.shape());
  for (int t = 0; t < q; ++t) {
    // B_{tj} lives at grid row t; broadcast it down column j.
    Tensor& b_panel = g.i == t ? b_own : b_recv;
    g.col.broadcast(b_panel, t);
    // Local partial of C_{it} = sum_j A_{ij} * B_{tj}^T.
    Tensor partial = matmul(a_block, b_panel, Trans::N, Trans::T);
    charge_gemm(g.grid, a_block.dim(0), b_panel.dim(0), a_block.dim(1));
    // Sum over the row; the result block C_{it} belongs to column t.
    g.row.reduce(partial, t);
    if (g.j == t) result = std::move(partial);
  }
  return result;
}

Tensor summa_atb_local(Grid2DComms& g, const Tensor& a_block,
                       const Tensor& b_block) {
  const int q = g.q;
  check(a_block.dim(0) == b_block.dim(0),
        "summa_atb_local: leading block dimensions must match (both split a)");
  Tensor result;  // filled at t == my row
  Tensor a_own = a_block;
  Tensor a_recv = Tensor::like(a_block, a_block.shape());
  for (int t = 0; t < q; ++t) {
    // A_{it} lives at grid column t; broadcast it along row i.
    Tensor& a_panel = g.j == t ? a_own : a_recv;
    g.row.broadcast(a_panel, t);
    // Local partial of C_{tj} = sum_i A_{it}^T * B_{ij}.
    Tensor partial = matmul(a_panel, b_block, Trans::T, Trans::N);
    charge_gemm(g.grid, a_panel.dim(1), b_block.dim(1), a_panel.dim(0));
    // Sum down the column; the result block C_{tj} belongs to row t.
    g.col.reduce(partial, t);
    if (g.i == t) result = std::move(partial);
  }
  return result;
}

Tensor summa(Grid2DComms& g, const Tensor& a, const Tensor& b) {
  Tensor a_block = block_of(a, g.q, g.q, g.i, g.j);
  Tensor b_block = block_of(b, g.q, g.q, g.i, g.j);
  Tensor c_block = summa_ab_local(g, a_block, b_block);

  const std::int64_t bn = c_block.numel();
  std::vector<float> all(static_cast<std::size_t>(bn) *
                         static_cast<std::size_t>(g.grid.size()));
  g.grid.all_gather(c_block.span(), all);
  std::vector<Tensor> blocks;
  blocks.reserve(static_cast<std::size_t>(g.grid.size()));
  for (int r = 0; r < g.grid.size(); ++r) {
    blocks.push_back(Tensor::from(
        std::vector<float>(all.begin() + static_cast<std::ptrdiff_t>(r * bn),
                           all.begin() + static_cast<std::ptrdiff_t>((r + 1) * bn)),
        c_block.shape()));
  }
  return combine(blocks, g.q, g.q);
}

}  // namespace tsr::pdg
