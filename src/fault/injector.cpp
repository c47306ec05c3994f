#include "fault/injector.hpp"

#include <algorithm>

#include "comm/communicator.hpp"

namespace tsr::fault {

namespace {

// SplitMix64 finalizer: the same mixer the communicator uses for ids.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Uniform double in [0, 1) from a mixed hash.
double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool rank_matches(int spec, int rank) { return spec < 0 || spec == rank; }

void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Injector::Injector(FaultPlan plan, comm::World* world)
    : plan_(std::move(plan)),
      world_(world),
      nranks_(world->size()),
      ops_(static_cast<std::size_t>(nranks_), 0),
      kill_fired_(static_cast<std::size_t>(nranks_), 0),
      link_seq_(static_cast<std::size_t>(nranks_) *
                    static_cast<std::size_t>(nranks_),
                0) {}

std::uint64_t Injector::draw(int src, int dst, std::uint64_t msg_idx,
                             std::uint64_t salt) const {
  const std::uint64_t link =
      static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(nranks_) +
      static_cast<std::uint64_t>(dst);
  return mix64(plan_.seed ^ mix64(link + 0x9E3779B97F4A7C15ULL) ^
               mix64(msg_idx + salt));
}

void Injector::tick(int rank, double sim_now) {
  const std::size_t r = static_cast<std::size_t>(rank);
  const std::int64_t op = ops_[r]++;
  if (!has_kills() || kill_fired_[r] != 0) return;
  for (const KillSpec& k : plan_.kills) {
    if (!rank_matches(k.rank, rank)) continue;
    const bool op_trigger = k.at_op >= 0 && op >= k.at_op;
    const bool time_trigger = k.at_time >= 0 && sim_now >= k.at_time;
    if (op_trigger || time_trigger) {
      kill_fired_[r] = 1;
      kills_.fetch_add(1, std::memory_order_relaxed);
      if (world_->metrics_enabled()) {
        world_->metrics().counter_add("runtime.fault.kills", 1);
      }
      throw RankKilled(rank, op, sim_now);
    }
  }
}

void Injector::adjust_link(int src, int dst, topo::LinkParams* params) const {
  for (const SlowLinkSpec& s : plan_.slow_links) {
    if (!rank_matches(s.src, src) || !rank_matches(s.dst, dst)) continue;
    params->alpha *= s.alpha_scale;
    params->beta *= s.beta_scale;
  }
}

void Injector::on_message(int src, int dst, comm::Message* msg) {
  const std::size_t link = static_cast<std::size_t>(src) *
                               static_cast<std::size_t>(nranks_) +
                           static_cast<std::size_t>(dst);
  const std::uint64_t idx = link_seq_[link]++;
  const bool metrics = world_->metrics_enabled();
  double slip = 0.0;

  for (const DelaySpec& d : plan_.delays) {
    if (!rank_matches(d.src, src) || !rank_matches(d.dst, dst)) continue;
    if (d.count >= 0 && static_cast<std::int64_t>(idx) >= d.count) continue;
    if (d.probability < 1.0 &&
        u01(draw(src, dst, idx, /*salt=*/0xDE1A)) >= d.probability) {
      continue;
    }
    double extra = d.seconds;
    if (d.jitter > 0.0) {
      extra += d.jitter * u01(draw(src, dst, idx, /*salt=*/0x117E));
    }
    if (extra > 0.0) {
      msg->arrival_time += extra;
      slip += extra;
      delayed_.fetch_add(1, std::memory_order_relaxed);
      if (metrics) world_->metrics().counter_add("runtime.fault.delays", 1);
    }
  }

  if (slip > 0.0) {
    atomic_add(delay_seconds_, slip);
    if (metrics) {
      world_->metrics().histogram_observe("runtime.fault.delay_sim_seconds",
                                          slip);
    }
  }
}

std::shared_ptr<const std::vector<int>> Injector::mark_dead(int rank) {
  std::lock_guard lock(dead_mu_);
  if (std::find(dead_.begin(), dead_.end(), rank) == dead_.end()) {
    dead_.push_back(rank);
    std::sort(dead_.begin(), dead_.end());
  }
  return std::make_shared<const std::vector<int>>(dead_);
}

std::vector<int> Injector::dead_ranks() const {
  std::lock_guard lock(dead_mu_);
  return dead_;
}

FaultReport Injector::report() const {
  FaultReport r;
  r.kills = kills_.load(std::memory_order_relaxed);
  r.delayed_msgs = delayed_.load(std::memory_order_relaxed);
  r.injected_delay_seconds = delay_seconds_.load(std::memory_order_relaxed);
  r.dead_ranks = dead_ranks();
  return r;
}

}  // namespace tsr::fault
