#include "parallel/tesseract_feedforward.hpp"

namespace tsr::par {

TesseractFeedForward::TesseractFeedForward(TesseractContext& ctx,
                                           std::int64_t hidden, nn::Init init,
                                           std::int64_t expansion)
    : fc1(ctx, hidden, expansion * hidden, init),
      fc2(ctx, expansion * hidden, hidden, init),
      ctx_(&ctx) {}

Tensor TesseractFeedForward::forward(const Tensor& x_local) {
  obs::ScopedTimer timer_ = ctx_->timer("layer.feedforward.forward.sim_seconds");
  Tensor h = act_.forward(fc1.forward(x_local));
  ctx_->charge_memory(h.nbytes());
  return fc2.forward(h);
}

Tensor TesseractFeedForward::backward(const Tensor& dy_local) {
  obs::ScopedTimer timer_ = ctx_->timer("layer.feedforward.backward.sim_seconds");
  Tensor dh = act_.backward(fc2.backward(dy_local));
  ctx_->charge_memory(dh.nbytes());
  return fc1.backward(dh);
}

void TesseractFeedForward::clear_caches() {
  fc1.clear_caches();
  fc2.clear_caches();
  act_.clear_caches();
}

std::int64_t TesseractFeedForward::cached_bytes() const {
  return fc1.cached_bytes() + fc2.cached_bytes() + act_.cached_bytes();
}

void TesseractFeedForward::zero_grad() {
  fc1.zero_grad();
  fc2.zero_grad();
}

std::vector<nn::Param*> TesseractFeedForward::params() {
  std::vector<nn::Param*> p = fc1.params();
  for (nn::Param* q : fc2.params()) p.push_back(q);
  return p;
}

}  // namespace tsr::par
