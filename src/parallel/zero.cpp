#include "parallel/zero.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernel_registry.hpp"
#include "tensor/tensor.hpp"

namespace tsr::par {

ZeroAdam::ZeroAdam(comm::Communicator dp_group, float lr_in, float beta1,
                   float beta2, float eps, float weight_decay)
    : lr(lr_in), dp_(std::move(dp_group)), beta1_(beta1), beta2_(beta2),
      eps_(eps), weight_decay_(weight_decay) {}

void ZeroAdam::step(const std::vector<nn::Param*>& params) {
  ++t_;
  const int g = dp_.size();
  const AdamScalars s{lr,
                      beta1_,
                      beta2_,
                      eps_,
                      weight_decay_,
                      1.0f - std::pow(beta1_, static_cast<float>(t_)),
                      1.0f - std::pow(beta2_, static_cast<float>(t_))};
  const float inv_g = 1.0f / static_cast<float>(g);
  const KernelVariant& kv = active_kernel_variant();

  for (nn::Param* p : params) {
    const std::int64_t n = p->numel();
    const std::int64_t chunk = (n + g - 1) / g;  // padded chunk length
    const std::int64_t padded = chunk * g;
    const std::int64_t my_begin = dp_.rank() * chunk;

    auto [it, inserted] = state_.try_emplace(p, State{});
    if (inserted) {
      it->second.m.assign(static_cast<std::size_t>(chunk), 0.0f);
      it->second.v.assign(static_cast<std::size_t>(chunk), 0.0f);
    }

    // Reduce-scatter the (averaged) gradient: this rank receives the sum of
    // all replicas' gradients for its element chunk. Scratch vectors are
    // optimizer members: assign/resize keep their capacity, so steady-state
    // steps allocate nothing. The zero-filled ones must stay zero-filled —
    // the padding tail is sent to peers.
    grad_padded_.assign(static_cast<std::size_t>(padded), 0.0f);
    std::memcpy(grad_padded_.data(), p->grad.data(),
                static_cast<std::size_t>(n) * sizeof(float));
    my_grad_.resize(static_cast<std::size_t>(chunk));
    dp_.reduce_scatter(grad_padded_, my_grad_);

    // Sharded Adam on the owned elements: average the gradient chunk, then
    // run the registry Adam kernel on a copy of the owned values in place.
    updated_.assign(static_cast<std::size_t>(padded), 0.0f);
    const std::int64_t owned = std::clamp<std::int64_t>(n - my_begin, 0, chunk);
    kv.scale(my_grad_.data(), inv_g, owned);
    std::memcpy(updated_.data() + my_begin, p->value.data() + my_begin,
                static_cast<std::size_t>(owned) * sizeof(float));
    kv.adam(s, updated_.data() + my_begin, my_grad_.data(),
            it->second.m.data(), it->second.v.data(), owned);

    // All-gather the updated values; every replica ends identical.
    gathered_.resize(static_cast<std::size_t>(padded));
    dp_.all_gather(
        std::span<const float>(updated_.data() + my_begin,
                               static_cast<std::size_t>(chunk)),
        gathered_);
    std::memcpy(p->value.data(), gathered_.data(),
                static_cast<std::size_t>(n) * sizeof(float));
  }
}

std::int64_t ZeroAdam::state_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& [p, st] : state_) {
    bytes += static_cast<std::int64_t>(st.m.size() + st.v.size()) *
             static_cast<std::int64_t>(sizeof(float));
  }
  return bytes;
}

}  // namespace tsr::par
