#include "comm/buffer_pool.hpp"

namespace tsr::comm {

PayloadPtr BufferPool::acquire() {
  if (!free_.empty()) {
    PayloadPtr buf = std::move(free_.back());
    free_.pop_back();
    buf->clear();
    ++reuses_;
    return buf;
  }
  ++allocations_;
  return std::make_shared<Payload>();
}

void BufferPool::recycle(PayloadPtr buf) {
  // Callers hand over exclusively held buffers (see the header); the count
  // test only keeps a shared one out of the pool.
  if (buf != nullptr && buf.use_count() == 1 && free_.size() < kMaxFree) {
    free_.push_back(std::move(buf));
  }
}

}  // namespace tsr::comm
