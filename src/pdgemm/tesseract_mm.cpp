#include "pdgemm/tesseract_mm.hpp"

#include "pdgemm/summa.hpp"
#include "runtime/config.hpp"

namespace tsr::pdg {

// Each depth layer of the Tesseract grid is exactly a SUMMA grid over its
// slice of A (TesseractComms::plane), so the three product forms share the
// SUMMA kernels (d = 1 reduces Tesseract to Optimus/SUMMA, as the paper
// notes).

Tensor tesseract_ab_local(TesseractComms& tc, const Tensor& a_block,
                          const Tensor& b_block) {
  return summa_ab_local(tc.plane, a_block, b_block);
}

Tensor tesseract_abt_local(TesseractComms& tc, const Tensor& a_block,
                           const Tensor& b_block) {
  return summa_abt_local(tc.plane, a_block, b_block);
}

Tensor tesseract_atb_local(TesseractComms& tc, const Tensor& a_block,
                           const Tensor& b_block, bool depth_allreduce) {
  Tensor partial = summa_atb_local(tc.plane, a_block, b_block);
  if (depth_allreduce && tc.d > 1) {
    // Sum the per-layer partials: each layer saw only its row slice of A.
    // These B' gradient partials are the depth dimension's dominant wire
    // volume, so they are the target of the opt-in bf16 wire compression.
    if (run_config().compress_depth) {
      tc.depth.all_reduce_compressed(partial);
    } else {
      tc.depth.all_reduce(partial);
    }
  }
  return partial;
}

Tensor tesseract_matmul(TesseractComms& tc, const Tensor& a, const Tensor& b) {
  Tensor a_block = distribute_a_layout(tc, a);
  Tensor b_block = distribute_b_layout(tc, b);
  Tensor c_block = tesseract_ab_local(tc, a_block, b_block);
  return collect_a_layout(tc, c_block, a.dim(0), b.dim(1));
}

}  // namespace tsr::pdg
