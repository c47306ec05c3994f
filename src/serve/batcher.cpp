#include "serve/batcher.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "parallel/context.hpp"

namespace tsr::serve {

double exact_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::int64_t>(values.size());
  // Nearest rank with the same epsilon guard the histogram quantile uses
  // for exact-boundary products like 0.5 * 2.
  std::int64_t target = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  target = std::max<std::int64_t>(1, std::min(n, target));
  return values[static_cast<std::size_t>(target - 1)];
}

namespace {

// One decode slot of the continuous batcher.
struct Slot {
  bool active = false;
  Request req;
  std::size_t prompt_fed = 0;       ///< prompt tokens already fed
  std::int64_t generated = 0;       ///< decode tokens produced so far
  int last_token = 0;               ///< most recent sampled token
};

// Agree on the cluster-wide simulated time: all-gather every rank's clock
// (double bits carried exactly in two floats) and advance each clock to the
// max. The all-gather itself charges communication time, modeling the very
// synchronization a lockstep serving iteration implies.
double sync_now(comm::Communicator& c) {
  const double mine = c.clock().now();
  float bits[2];
  std::memcpy(bits, &mine, sizeof(mine));
  std::vector<float> all(2 * static_cast<std::size_t>(c.size()));
  c.all_gather(std::span<const float>(bits, 2), all);
  double agreed = mine;
  for (int r = 0; r < c.size(); ++r) {
    double t = 0.0;
    std::memcpy(&t, all.data() + 2 * static_cast<std::size_t>(r), sizeof(t));
    agreed = std::max(agreed, t);
  }
  c.clock().advance_to(agreed);
  return agreed;
}

ServingResult serve_on_rank(comm::Communicator& c, const ServingConfig& cfg) {
  par::TesseractContext ctx(c, cfg.q, cfg.d);
  Rng wrng(cfg.weight_seed);
  LmEngine engine(ctx, cfg.model, cfg.slots, wrng);
  check(cfg.workload.prompt_max + cfg.workload.decode_max <= engine.capacity(),
        "run_serving: prompt_max + decode_max must fit the KV capacity");

  const std::vector<Request> stream =
      generate_requests(cfg.workload, cfg.model.vocab);
  AdmissionQueue queue(cfg.queue_depth);
  std::vector<Slot> slots(static_cast<std::size_t>(cfg.slots));
  std::vector<int> tokens(static_cast<std::size_t>(cfg.slots), 0);

  comm::World& w = c.world();
  const bool record = w.metrics_enabled() && c.rank() == 0;

  ServingResult res;
  res.offered = static_cast<std::int64_t>(stream.size());
  std::size_t next_arrival = 0;
  std::int64_t active_count = 0;

  double now = sync_now(c);
  for (;;) {
    check(res.steps < 10'000'000, "run_serving: step cap exceeded");
    // Admit everything that has arrived by the agreed time, then shed what
    // can no longer make its deadline and fill free slots FIFO.
    while (next_arrival < stream.size() &&
           stream[next_arrival].arrival <= now) {
      queue.offer(stream[next_arrival], now);
      ++next_arrival;
    }
    queue.shed_expired(now);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].active) continue;
      Request r;
      if (!queue.pop(now, &r)) break;
      engine.reset_slot(static_cast<std::int64_t>(s));
      slots[s] = Slot{};
      slots[s].active = true;
      slots[s].req = std::move(r);
      ++active_count;
    }

    if (active_count == 0) {
      if (queue.empty() && next_arrival == stream.size()) break;
      if (queue.empty()) {
        // Idle: jump every rank to the next arrival (same stream on every
        // rank, so the jump target is identical) and re-agree on time.
        c.clock().advance_to(stream[next_arrival].arrival);
        now = sync_now(c);
        continue;
      }
      // Queue non-empty with all slots free can't happen: the fill loop
      // above only stops when pop() drained the queue.
      check(false, "run_serving: stuck with queued requests and free slots");
    }

    // Pack the step: active slots feed their next prompt token or the last
    // sampled token; parked slots restart at position 0 with token 0.
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (!slot.active) {
        engine.park_slot(static_cast<std::int64_t>(s));
        tokens[s] = 0;
        continue;
      }
      if (slot.prompt_fed < slot.req.prompt.size()) {
        tokens[s] = slot.req.prompt[slot.prompt_fed];
      } else {
        tokens[s] = slot.last_token;
      }
    }

    std::vector<int> next;
    {
      obs::ScopedTimer step_timer = ctx.timer("serve.step.sim_seconds");
      next = engine.step(tokens);
    }
    ++res.steps;
    now = sync_now(c);

    // Consume outputs: completions are stamped with the post-step agreed
    // time, so latency is identical on every rank and backend.
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (!slot.active) continue;
      if (slot.prompt_fed < slot.req.prompt.size()) {
        ++slot.prompt_fed;
        if (slot.prompt_fed < slot.req.prompt.size()) continue;
        // The logits after the last prompt token are the first generation.
      }
      slot.last_token = next[s];
      ++slot.generated;
      ++res.tokens_generated;
      if (slot.generated < slot.req.decode_len) continue;
      CompletionRecord done;
      done.id = slot.req.id;
      done.arrival = slot.req.arrival;
      done.finish = now;
      done.latency = now - slot.req.arrival;
      done.slo_ok = now <= slot.req.deadline;
      done.prompt_len = static_cast<std::int64_t>(slot.req.prompt.size());
      done.decode_len = slot.req.decode_len;
      if (record) {
        w.metrics().histogram_observe("serve.request.latency.sim_seconds",
                                      done.latency);
        w.metrics().counter_add("serve.request.completed");
        if (!done.slo_ok) w.metrics().counter_add("serve.request.slo_miss");
      }
      res.completed.push_back(done);
      slot.active = false;
      --active_count;
    }
  }

  res.makespan = now;
  res.shed = queue.shed();
  res.rejects = queue.rejects();
  std::vector<double> latencies;
  std::int64_t slo_ok = 0;
  latencies.reserve(res.completed.size());
  for (const CompletionRecord& r : res.completed) {
    latencies.push_back(r.latency);
    if (r.slo_ok) ++slo_ok;
  }
  res.p50 = exact_quantile(latencies, 0.5);
  res.p99 = exact_quantile(latencies, 0.99);
  res.goodput =
      res.makespan > 0.0 ? static_cast<double>(slo_ok) / res.makespan : 0.0;
  res.shed_rate = res.offered > 0 ? static_cast<double>(res.shed.total()) /
                                        static_cast<double>(res.offered)
                                  : 0.0;
  if (record) {
    w.metrics().counter_add("serve.request.offered", res.offered);
    w.metrics().counter_add("serve.request.shed.queue_full",
                            res.shed.queue_full);
    w.metrics().counter_add("serve.request.shed.deadline",
                            res.shed.deadline_expired);
    w.metrics().counter_add("serve.tokens.generated", res.tokens_generated);
  }
  return res;
}

}  // namespace

ServingResult run_serving(comm::World& world, const ServingConfig& cfg) {
  check(cfg.slots >= 1 &&
            cfg.slots % (static_cast<std::int64_t>(cfg.q) * cfg.d) == 0,
        "run_serving: slots must divide by d*q (the decode batch split)");
  ServingResult out;
  world.run([&](comm::Communicator& c) {
    ServingResult mine = serve_on_rank(c, cfg);
    if (c.rank() == 0) out = std::move(mine);
  });
  return out;
}

}  // namespace tsr::serve
