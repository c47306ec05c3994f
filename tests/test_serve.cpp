// Serving front-end (src/serve/): arrival-process determinism across the
// scheduler backends, SLO admission-queue semantics, KV-cache decode
// bit-identity against the full-recompute forward (serial and Tesseract),
// continuous-batching slot isolation, and end-to-end serving determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "fault/fault.hpp"
#include "scoped_config.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "serve/queue.hpp"
#include "serve/workload.hpp"
#include "topology/machine_spec.hpp"
#include "train/lm.hpp"

namespace tsr::serve {
namespace {

// The backend/worker matrix serving must be invariant across; workers 0
// keeps the configured count.
struct Backend {
  const char* label;
  bool threads;  // RunConfig::spmd_threads
  int workers;
};

const Backend kMatrix[] = {
    {"fibers-w1", false, 1},
    {"fibers-w4", false, 4},
    {"threads", true, 0},
};

void apply_backend(const Backend& b, ScopedRunConfig& run) {
  run->spmd_threads = b.threads;
  if (b.workers > 0) run->workers = b.workers;
}

train::LmConfig small_lm() {
  train::LmConfig cfg;
  cfg.vocab = 16;
  cfg.seq = 8;
  cfg.hidden = 16;
  cfg.heads = 4;
  cfg.layers = 2;
  return cfg;
}

// Byte-exact serialization of a request stream (%a keeps doubles lossless).
std::string stream_bytes(const std::vector<Request>& reqs) {
  std::string out;
  char buf[64];
  for (const Request& r : reqs) {
    std::snprintf(buf, sizeof(buf), "%lld@%a/%a:", static_cast<long long>(r.id),
                  r.arrival, r.deadline);
    out += buf;
    for (int t : r.prompt) out += std::to_string(t) + ",";
    out += 'd';
    out += std::to_string(r.decode_len) + ";";
  }
  return out;
}

WorkloadConfig small_workload(ArrivalPattern p) {
  WorkloadConfig w;
  w.pattern = p;
  w.rate = 120.0;
  w.duration = 0.25;
  w.prompt_min = 2;
  w.prompt_max = 3;
  w.decode_min = 2;
  w.decode_max = 4;
  w.slo_latency = 0.2;
  w.seed = 7;
  return w;
}

// ---- Arrival-process determinism (PR-3 matrix, extended to serving) --------

TEST(ServeWorkload, ArrivalStreamsBitIdenticalAcrossBackends) {
  ScopedRunConfig run;
  const ArrivalPattern patterns[] = {ArrivalPattern::Poisson,
                                     ArrivalPattern::Bursty,
                                     ArrivalPattern::Diurnal};
  // Reference stream generated on the host, outside any backend.
  std::vector<std::string> reference;
  for (ArrivalPattern p : patterns) {
    reference.push_back(stream_bytes(generate_requests(small_workload(p), 16)));
    ASSERT_FALSE(reference.back().empty());
  }
  for (const Backend& b : kMatrix) {
    SCOPED_TRACE(b.label);
    apply_backend(b, run);
    comm::World world(4, topo::MachineSpec::meluxina());
    std::vector<std::string> per_rank(4);
    world.run([&](comm::Communicator& c) {
      std::string mine;
      for (ArrivalPattern p : patterns) {
        mine += stream_bytes(generate_requests(small_workload(p), 16)) + "|";
      }
      per_rank[static_cast<std::size_t>(c.rank())] = mine;
    });
    std::string expect;
    for (const std::string& s : reference) expect += s + "|";
    for (int r = 0; r < 4; ++r) EXPECT_EQ(per_rank[static_cast<std::size_t>(r)], expect);
  }
}

TEST(ServeWorkload, SeedAndPatternChangeTheStream) {
  WorkloadConfig w = small_workload(ArrivalPattern::Poisson);
  const std::string base = stream_bytes(generate_requests(w, 16));
  w.seed = 8;
  EXPECT_NE(stream_bytes(generate_requests(w, 16)), base);
  w.seed = 7;
  w.pattern = ArrivalPattern::Bursty;
  EXPECT_NE(stream_bytes(generate_requests(w, 16)), base);
}

TEST(ServeWorkload, IntensityMatchesPattern) {
  WorkloadConfig w = small_workload(ArrivalPattern::Bursty);
  // First half of each period runs at burst_factor x base.
  EXPECT_DOUBLE_EQ(arrival_intensity(w, 0.01), w.rate * w.burst_factor);
  EXPECT_DOUBLE_EQ(arrival_intensity(w, w.burst_period * 0.75), w.rate);
  w.pattern = ArrivalPattern::Diurnal;
  EXPECT_DOUBLE_EQ(arrival_intensity(w, 0.0), w.rate);
  EXPECT_GT(arrival_intensity(w, w.diurnal_period * 0.25), w.rate);
  EXPECT_LT(arrival_intensity(w, w.diurnal_period * 0.75), w.rate);
}

// ---- Admission queue -------------------------------------------------------

Request make_request(std::int64_t id, double arrival, double slo) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.deadline = arrival + slo;
  r.prompt = {1, 2};
  r.decode_len = 2;
  return r;
}

TEST(AdmissionQueue, ShedsOnDepthAndDeadline) {
  AdmissionQueue q(2);
  EXPECT_TRUE(q.offer(make_request(0, 0.0, 1.0), 0.0));
  EXPECT_TRUE(q.offer(make_request(1, 0.0, 1.0), 0.0));
  // Full queue -> queue_full shed.
  EXPECT_FALSE(q.offer(make_request(2, 0.0, 1.0), 0.0));
  // Already-expired request -> deadline shed, even with space after a pop.
  Request got;
  ASSERT_TRUE(q.pop(0.1, &got));
  EXPECT_EQ(got.id, 0);
  EXPECT_FALSE(q.offer(make_request(3, 0.0, 0.05), 0.2));
  EXPECT_EQ(q.shed().queue_full, 1);
  EXPECT_EQ(q.shed().deadline_expired, 1);
  ASSERT_EQ(q.rejects().size(), 2u);
  EXPECT_EQ(q.rejects()[0].first, 2);
  EXPECT_EQ(q.rejects()[0].second, RejectReason::QueueFull);
  EXPECT_EQ(q.rejects()[1].first, 3);
  EXPECT_EQ(q.rejects()[1].second, RejectReason::DeadlineExpired);
}

TEST(AdmissionQueue, ShedExpiredDropsOnlyExpired) {
  AdmissionQueue q(8);
  EXPECT_TRUE(q.offer(make_request(0, 0.0, 0.1), 0.0));
  EXPECT_TRUE(q.offer(make_request(1, 0.0, 1.0), 0.0));
  q.shed_expired(0.5);
  EXPECT_EQ(q.depth(), 1u);
  Request got;
  ASSERT_TRUE(q.pop(0.5, &got));
  EXPECT_EQ(got.id, 1);
  EXPECT_EQ(q.shed().deadline_expired, 1);
  // pop() sheds expired entries it walks over.
  EXPECT_TRUE(q.offer(make_request(2, 0.5, 0.1), 0.5));
  EXPECT_FALSE(q.pop(1.0, &got));
  EXPECT_EQ(q.shed().deadline_expired, 2);
}

// ---- KV-cache decode bit-identity ------------------------------------------

bool rows_bitwise_equal(const Tensor& full, std::int64_t b, std::int64_t t,
                        const Tensor& step, std::int64_t sb) {
  // full [B, S, V] row (b, t) vs step [B, 1, V] row (sb, 0).
  const std::int64_t v = full.dim(2);
  return std::memcmp(full.data() + (b * full.dim(1) + t) * v,
                     step.data() + sb * v,
                     static_cast<std::size_t>(v) * sizeof(float)) == 0;
}

TEST(KvDecode, SerialDecodeMatchesFullForwardBitwise) {
  const train::LmConfig cfg = small_lm();
  Rng wrng(3);
  train::LanguageModel model(cfg, wrng);
  const std::int64_t batch = 2;
  std::vector<int> tokens;
  Rng data_rng(11);
  for (std::int64_t i = 0; i < batch * cfg.seq; ++i) {
    tokens.push_back(static_cast<int>(
        data_rng.next_below(static_cast<std::uint64_t>(cfg.vocab))));
  }
  Tensor full = model.forward(tokens, batch);  // [b, s, vocab]

  train::LmDecodeState state = model.make_decode_state(batch);
  for (std::int64_t t = 0; t < cfg.seq; ++t) {
    std::vector<int> step_tokens;
    for (std::int64_t b = 0; b < batch; ++b) {
      step_tokens.push_back(tokens[static_cast<std::size_t>(b * cfg.seq + t)]);
    }
    Tensor logits = model.forward_step(step_tokens, state);
    for (std::int64_t b = 0; b < batch; ++b) {
      EXPECT_TRUE(rows_bitwise_equal(full, b, t, logits, b))
          << "position " << t << " batch " << b;
    }
  }
}

TEST(KvDecode, ResetSlotRestartsCleanly) {
  const train::LmConfig cfg = small_lm();
  Rng wrng(3);
  train::LanguageModel model(cfg, wrng);
  train::LmDecodeState state = model.make_decode_state(1);
  // Pollute the slot with a few tokens, then reset and replay a sequence:
  // logits must be bitwise those of a fresh state (dead rows really zeroed).
  std::vector<int> junk = {5};
  (void)model.forward_step(junk, state);
  (void)model.forward_step(junk, state);
  model.reset_slot(state, 0);
  std::vector<int> seq = {1, 4, 2};
  train::LmDecodeState fresh = model.make_decode_state(1);
  for (int t : seq) {
    std::vector<int> one = {t};
    Tensor a = model.forward_step(one, state);
    Tensor b = model.forward_step(one, fresh);
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<std::size_t>(a.numel()) * sizeof(float)),
              0);
  }
}

TEST(KvDecode, TesseractDecodeMatchesFullForwardBitwise) {
  const train::LmConfig cfg = small_lm();
  const std::int64_t batch = 4;  // divides d*q = 2
  std::vector<int> tokens;
  Rng data_rng(13);
  for (std::int64_t i = 0; i < batch * cfg.seq; ++i) {
    tokens.push_back(static_cast<int>(
        data_rng.next_below(static_cast<std::uint64_t>(cfg.vocab))));
  }
  comm::World world(4, topo::MachineSpec::meluxina());
  std::vector<int> mismatches(4, 0);
  world.run([&](comm::Communicator& c) {
    par::TesseractContext ctx(c, /*q=*/2, /*d=*/1);
    Rng wrng(3);
    train::TesseractLanguageModel model(ctx, cfg, wrng);
    Tensor full = model.forward(tokens, batch);
    train::LmDecodeState state = model.make_decode_state(batch);
    int bad = 0;
    for (std::int64_t t = 0; t < cfg.seq; ++t) {
      std::vector<int> step_tokens;
      for (std::int64_t b = 0; b < batch; ++b) {
        step_tokens.push_back(
            tokens[static_cast<std::size_t>(b * cfg.seq + t)]);
      }
      Tensor logits = model.forward_step(step_tokens, state);
      for (std::int64_t b = 0; b < batch; ++b) {
        if (!rows_bitwise_equal(full, b, t, logits, b)) ++bad;
      }
    }
    mismatches[static_cast<std::size_t>(c.rank())] = bad;
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(mismatches[static_cast<std::size_t>(r)], 0);
}

TEST(KvDecode, NeighborSlotChurnDoesNotPerturbLogits) {
  // Continuous batching's core guarantee: a sequence's logits do not depend
  // on what the other slots are doing (parked, mid-prefill, reset, ...).
  const train::LmConfig cfg = small_lm();
  Rng wrng(5);
  train::LanguageModel model(cfg, wrng);
  const std::vector<int> seq = {3, 7, 1, 9, 2};

  // Reference: slot 0 alone (slot 1 parked the whole time).
  train::LmDecodeState ref = model.make_decode_state(2);
  std::vector<Tensor> expected;
  for (int t : seq) {
    ref.lens[1] = 0;  // parked
    std::vector<int> toks = {t, 0};
    expected.push_back(model.forward_step(toks, ref));
  }

  // Same sequence in slot 0 while slot 1 churns: prefill of another
  // request, completion, reset, new request.
  train::LmDecodeState state = model.make_decode_state(2);
  const std::vector<int> churn = {8, 8, 6, 0, 12};
  model.reset_slot(state, 0);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i == 2) model.reset_slot(state, 1);  // neighbor request swapped out
    std::vector<int> toks = {seq[i], churn[i]};
    Tensor got = model.forward_step(toks, state);
    // Compare slot 0's row only.
    const std::int64_t v = cfg.vocab;
    EXPECT_EQ(std::memcmp(got.data(), expected[i].data(),
                          static_cast<std::size_t>(v) * sizeof(float)),
              0)
        << "step " << i;
  }
}

// ---- End-to-end serving loop -----------------------------------------------

ServingConfig small_serving(ArrivalPattern p) {
  ServingConfig cfg;
  cfg.model = small_lm();
  cfg.q = 2;
  cfg.d = 1;
  cfg.slots = 4;
  cfg.queue_depth = 8;
  cfg.workload = small_workload(p);
  cfg.workload.rate = 80.0;
  cfg.workload.duration = 0.1;
  cfg.workload.prompt_max = 3;
  cfg.workload.decode_max = 4;
  return cfg;
}

std::string result_bytes(const ServingResult& r) {
  char buf[128];
  std::string out;
  std::snprintf(buf, sizeof(buf), "off=%lld shed=%lld/%lld steps=%lld tok=%lld ",
                static_cast<long long>(r.offered),
                static_cast<long long>(r.shed.queue_full),
                static_cast<long long>(r.shed.deadline_expired),
                static_cast<long long>(r.steps),
                static_cast<long long>(r.tokens_generated));
  out += buf;
  std::snprintf(buf, sizeof(buf), "mk=%a p50=%a p99=%a gp=%a ", r.makespan,
                r.p50, r.p99, r.goodput);
  out += buf;
  for (const CompletionRecord& c : r.completed) {
    std::snprintf(buf, sizeof(buf), "%lld:%a:%d;",
                  static_cast<long long>(c.id), c.latency, c.slo_ok ? 1 : 0);
    out += buf;
  }
  return out;
}

TEST(ServingLoop, DeterministicAcrossBackends) {
  ScopedRunConfig run;
  const ServingConfig cfg = small_serving(ArrivalPattern::Bursty);
  std::vector<std::string> runs;
  for (const Backend& b : kMatrix) {
    SCOPED_TRACE(b.label);
    apply_backend(b, run);
    comm::World world(4, topo::MachineSpec::meluxina());
    ServingResult res = run_serving(world, cfg);
    EXPECT_GT(res.completed.size() + static_cast<std::size_t>(res.shed.total()),
              0u);
    runs.push_back(result_bytes(res));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ServingLoop, CompletesAndAccountsEveryRequest) {
  const ServingConfig cfg = small_serving(ArrivalPattern::Poisson);
  comm::World world(4, topo::MachineSpec::meluxina());
  ServingResult res = run_serving(world, cfg);
  EXPECT_EQ(static_cast<std::int64_t>(res.completed.size()) +
                res.shed.total(),
            res.offered);
  EXPECT_EQ(res.shed.total(), static_cast<std::int64_t>(res.rejects.size()));
  for (const CompletionRecord& c : res.completed) {
    EXPECT_GT(c.latency, 0.0);
    EXPECT_EQ(c.slo_ok, c.finish <= c.arrival + cfg.workload.slo_latency);
  }
  EXPECT_GT(res.makespan, 0.0);
  EXPECT_GE(res.p99, res.p50);
}

TEST(ServingLoop, StragglerInflatesTailLatency) {
  const ServingConfig cfg = small_serving(ArrivalPattern::Poisson);
  comm::World clean(4, topo::MachineSpec::meluxina());
  ServingResult base = run_serving(clean, cfg);

  fault::FaultPlan plan;
  plan.slow_ranks.push_back({0, 3.0});
  comm::World slow(4, topo::MachineSpec::meluxina());
  slow.install_fault_plan(plan);
  ServingResult hit = run_serving(slow, cfg);

  ASSERT_FALSE(base.completed.empty());
  ASSERT_FALSE(hit.completed.empty());
  EXPECT_GT(hit.p99, base.p99);
  EXPECT_GT(hit.makespan, base.makespan);
}

TEST(ServingLoop, ExactQuantileNearestRank) {
  std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.2), 1.0);   // ceil(1.0) -> rank 1
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.21), 2.0);  // just past the boundary
  EXPECT_DOUBLE_EQ(exact_quantile({}, 0.5), 0.0);
}

}  // namespace
}  // namespace tsr::serve
