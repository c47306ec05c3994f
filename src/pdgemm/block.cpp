#include "pdgemm/block.hpp"

#include <stdexcept>
#include <string>

#include "tensor/kernels.hpp"

namespace tsr::pdg {

std::vector<Tensor> partition(const Tensor& m, int rows, int cols) {
  check(m.ndim() == 2, "partition: matrix must be 2-D");
  if (!(rows > 0 && cols > 0 && m.dim(0) % rows == 0 &&
        m.dim(1) % cols == 0)) {
    throw std::invalid_argument("partition: dimensions " +
                                shape_to_string(m.shape()) +
                                " not divisible by grid " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols));
  }
  std::vector<Tensor> blocks;
  blocks.reserve(static_cast<std::size_t>(rows * cols));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      blocks.push_back(block_of(m, rows, cols, r, c));
    }
  }
  return blocks;
}

Tensor block_of(const Tensor& m, int rows, int cols, int r, int c) {
  check(m.ndim() == 2, "block_of: matrix must be 2-D");
  check(m.dim(0) % rows == 0 && m.dim(1) % cols == 0,
        "block_of: dimensions not divisible by grid");
  const std::int64_t br = m.dim(0) / rows;
  const std::int64_t bc = m.dim(1) / cols;
  return slice_block(m, r * br, c * bc, br, bc);
}

Tensor combine(const std::vector<Tensor>& blocks, int rows, int cols) {
  check(static_cast<int>(blocks.size()) == rows * cols,
        "combine: block count does not match grid");
  const std::int64_t br = blocks.front().dim(0);
  const std::int64_t bc = blocks.front().dim(1);
  Tensor out({br * rows, bc * cols});
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const Tensor& b = blocks[static_cast<std::size_t>(r * cols + c)];
      check(b.dim(0) == br && b.dim(1) == bc, "combine: ragged blocks");
      paste_block(out, b, r * br, c * bc);
    }
  }
  return out;
}

void charge_gemm(comm::Communicator& comm, std::int64_t m, std::int64_t n,
                 std::int64_t k) {
  const double t0 = comm.clock().now();
  comm.charge(comm.world().spec().gemm_time(m, n, k));
  if (comm.world().tracing()) {
    // bytes = the operand/result footprint the kernel touches once.
    const std::int64_t bytes =
        (m * k + k * n + m * n) * static_cast<std::int64_t>(sizeof(float));
    comm.world().record_span(comm.world_rank(), "gemm", t0, comm.clock().now(),
                             comm::SpanKind::Kernel, bytes);
  }
  if (comm.world().metrics_enabled()) {
    obs::Registry& reg = comm.world().metrics();
    reg.histogram_observe("sim.gemm.sim_seconds", comm.clock().now() - t0);
    reg.counter_add("sim.gemm.flops", 2 * m * n * k);
    reg.counter_add("sim.gemm.calls");
  }
  if (obs::LiveSampler* live = comm.world().live()) {
    live->on_compute(comm.world_rank(), t0, comm.clock().now());
  }
}

void charge_memory_bound(comm::Communicator& comm, std::int64_t bytes) {
  const double t0 = comm.clock().now();
  comm.charge(comm.world().spec().memory_bound_time(bytes));
  if (comm.world().tracing()) {
    comm.world().record_span(comm.world_rank(), "kernel", t0,
                             comm.clock().now(), comm::SpanKind::Kernel, bytes);
  }
  if (comm.world().metrics_enabled()) {
    obs::Registry& reg = comm.world().metrics();
    reg.histogram_observe("sim.kernel.sim_seconds", comm.clock().now() - t0);
    reg.counter_add("sim.kernel.bytes", bytes);
    reg.counter_add("sim.kernel.calls");
  }
  if (obs::LiveSampler* live = comm.world().live()) {
    live->on_compute(comm.world_rank(), t0, comm.clock().now());
  }
}

Grid2DComms Grid2DComms::create(comm::Communicator& parent, int q) {
  check(parent.size() == q * q,
        "Grid2DComms: parent communicator must have q*q ranks");
  Grid2DComms g;
  g.q = q;
  g.i = parent.rank() / q;
  g.j = parent.rank() % q;
  std::vector<int> row_ranks;
  std::vector<int> col_ranks;
  row_ranks.reserve(static_cast<std::size_t>(q));
  col_ranks.reserve(static_cast<std::size_t>(q));
  for (int t = 0; t < q; ++t) {
    row_ranks.push_back(parent.world_rank_of(g.i * q + t));
    col_ranks.push_back(parent.world_rank_of(t * q + g.j));
  }
  g.row = parent.subgroup(row_ranks);
  g.col = parent.subgroup(col_ranks);
  g.grid = parent;
  return g;
}

TesseractComms TesseractComms::create(comm::Communicator& parent, int q, int d) {
  check(parent.size() == q * q * d,
        "TesseractComms: parent communicator must have q*q*d ranks");
  TesseractComms tc;
  tc.q = q;
  tc.d = d;
  const topo::Grid3D grid(q, d);
  const topo::Coord3 c = grid.coord_of(parent.rank());
  tc.i = c.i;
  tc.j = c.j;
  tc.k = c.k;

  auto to_world = [&](const std::vector<int>& granks) {
    std::vector<int> w;
    w.reserve(granks.size());
    for (int g : granks) w.push_back(parent.world_rank_of(g));
    return w;
  };

  tc.grid = parent;
  tc.layer = parent.subgroup(to_world(grid.layer_group(c.k)));
  tc.row = parent.subgroup(to_world(grid.row_group(c.i, c.k)));
  tc.col = parent.subgroup(to_world(grid.col_group(c.j, c.k)));
  tc.depth = parent.subgroup(to_world(grid.depth_group(c.i, c.j)));
  tc.plane.grid = tc.layer;
  tc.plane.row = tc.row;
  tc.plane.col = tc.col;
  tc.plane.q = q;
  tc.plane.i = c.i;
  tc.plane.j = c.j;
  return tc;
}

Tensor distribute_a_layout(const TesseractComms& tc, const Tensor& full) {
  return block_of(full, tc.q * tc.d, tc.q, tc.a_block_row(), tc.j);
}

Tensor distribute_b_layout(const TesseractComms& tc, const Tensor& full) {
  return block_of(full, tc.q, tc.q, tc.i, tc.j);
}

Tensor collect_a_layout(TesseractComms& tc, const Tensor& my_block,
                        std::int64_t rows, std::int64_t cols) {
  const int q = tc.q;
  const int d = tc.d;
  check(my_block.ndim() == 2 && my_block.dim(0) * q * d == rows &&
            my_block.dim(1) * q == cols,
        "collect_a_layout: block shape inconsistent with full dimensions");
  const std::int64_t bn = my_block.numel();
  std::vector<float> all(static_cast<std::size_t>(bn) *
                         static_cast<std::size_t>(tc.grid.size()));
  tc.grid.all_gather(my_block.span(), all);
  const topo::Grid3D grid(q, d);
  Tensor out({rows, cols});
  const std::int64_t br = my_block.dim(0);
  const std::int64_t bc = my_block.dim(1);
  for (int g = 0; g < tc.grid.size(); ++g) {
    const topo::Coord3 c = grid.coord_of(g);
    Tensor blk = Tensor::from(
        std::vector<float>(all.begin() + static_cast<std::ptrdiff_t>(g * bn),
                           all.begin() + static_cast<std::ptrdiff_t>((g + 1) * bn)),
        {br, bc});
    paste_block(out, blk, (c.i + c.k * q) * br, c.j * bc);
  }
  return out;
}

Tensor collect_b_layout(TesseractComms& tc, const Tensor& my_block,
                        std::int64_t rows, std::int64_t cols) {
  const int q = tc.q;
  check(my_block.ndim() == 2 && my_block.dim(0) * q == rows &&
            my_block.dim(1) * q == cols,
        "collect_b_layout: block shape inconsistent with full dimensions");
  const std::int64_t bn = my_block.numel();
  std::vector<float> all(static_cast<std::size_t>(bn) *
                         static_cast<std::size_t>(tc.layer.size()));
  tc.layer.all_gather(my_block.span(), all);
  Tensor out({rows, cols});
  const std::int64_t br = my_block.dim(0);
  const std::int64_t bc = my_block.dim(1);
  for (int g = 0; g < tc.layer.size(); ++g) {
    const int bi = g / q;
    const int bj = g % q;
    Tensor blk = Tensor::from(
        std::vector<float>(all.begin() + static_cast<std::ptrdiff_t>(g * bn),
                           all.begin() + static_cast<std::ptrdiff_t>((g + 1) * bn)),
        {br, bc});
    paste_block(out, blk, bi * br, bj * bc);
  }
  return out;
}

}  // namespace tsr::pdg
