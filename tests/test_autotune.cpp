// The auto-parallelization search: candidate enumeration must be the exact
// factorization set (every legal q*q*d*stages == P mapping, no duplicates,
// baselines always present), Pareto extraction must match hand-computed
// oracles, and the whole search must be a deterministic pure function of its
// configuration.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "perf/autotune.hpp"
#include "scoped_config.hpp"

namespace tsr::perf {
namespace {

/// Small search problem every scoring test shares: 4-rank worlds, tiny dims.
AutotuneConfig small_config(int gpus) {
  AutotuneConfig cfg;
  cfg.gpus = gpus;
  cfg.dims = LayerDims{4, 8, 16, 4};
  cfg.layers = 4;
  cfg.micros = 2;
  cfg.max_stages = 4;
  return cfg;
}

/// Divisibility-friendly model for enumeration tests: hidden and heads
/// divide every q up to 8 and every Megatron p up to 64.
AutotuneConfig enum_config(int gpus) {
  AutotuneConfig cfg;
  cfg.gpus = gpus;
  cfg.dims = LayerDims{8, 4, 128, 64};
  cfg.layers = 8;
  cfg.micros = 2;
  cfg.max_stages = 8;
  return cfg;
}

/// Independent brute-force count of the legal Tesseract mappings: iterate
/// ALL (q, d, stages) triples up to P and count the ones the enumerator's
/// contract admits (zero variants counted once more when d > 1).
int brute_force_tesseract_count(const AutotuneConfig& cfg) {
  int n = 0;
  for (int stages = 1; stages <= cfg.max_stages; ++stages) {
    if (cfg.layers % stages != 0) continue;
    for (int q = 1; q <= cfg.gpus; ++q) {
      if (cfg.dims.hidden % q != 0 || cfg.dims.heads % q != 0) continue;
      for (int d = 1; d <= cfg.gpus; ++d) {
        if (q * q * d * stages != cfg.gpus) continue;
        n += d > 1 ? 2 : 1;
      }
    }
  }
  return n;
}

TEST(Enumerate, ExactSetAtFourGpus) {
  const std::vector<PlanCandidate> cands =
      enumerate_candidates(enum_config(4));
  std::vector<std::string> labels;
  for (const PlanCandidate& c : cands) labels.push_back(c.label());
  const std::vector<std::string> expected = {
      "Megatron-LM [4]",
      "Optimus [2,2]",
      "Tesseract [1,1,4]",
      "Tesseract [1,1,4] zero",
      "Tesseract [2,2,1]",
      "Tesseract [1,1,2] pp2",
      "Tesseract [1,1,2] pp2 zero",
      "Tesseract [1,1,1] pp4",
  };
  EXPECT_EQ(labels, expected);
}

class EnumerateFactorizations : public ::testing::TestWithParam<int> {};

TEST_P(EnumerateFactorizations, LegalUniqueAndComplete) {
  const AutotuneConfig cfg = enum_config(GetParam());
  const std::vector<PlanCandidate> cands = enumerate_candidates(cfg);

  // Baselines first: the model dims divide every grid here, so both exist.
  ASSERT_GE(cands.size(), 2u);
  EXPECT_EQ(cands[0].scheme, Scheme::Megatron1D);
  EXPECT_EQ(cands[0].p, cfg.gpus);
  EXPECT_EQ(cands[1].scheme, Scheme::Optimus2D);
  EXPECT_EQ(cands[1].q * cands[1].q, cfg.gpus);

  std::set<std::string> seen;
  int tesseract = 0;
  for (const PlanCandidate& c : cands) {
    // Every candidate occupies exactly the GPU budget...
    EXPECT_EQ(c.total_ranks(), cfg.gpus) << c.label();
    // ...respects the model/search divisibility constraints...
    if (c.scheme == Scheme::Tesseract) {
      ++tesseract;
      EXPECT_EQ(c.q * c.q * c.d * c.stages, cfg.gpus) << c.label();
      EXPECT_EQ(cfg.dims.hidden % c.q, 0) << c.label();
      EXPECT_EQ(cfg.dims.heads % c.q, 0) << c.label();
      EXPECT_EQ(cfg.layers % c.stages, 0) << c.label();
      EXPECT_LE(c.stages, cfg.max_stages) << c.label();
      if (c.zero) {
        EXPECT_GT(c.d, 1) << c.label();
      }
    } else {
      EXPECT_EQ(c.stages, 1) << c.label();
      EXPECT_FALSE(c.zero) << c.label();
    }
    // ...and appears exactly once.
    EXPECT_TRUE(seen.insert(c.label()).second)
        << "duplicate candidate " << c.label();
  }
  // The enumerator found every legal factorization, per the independent
  // brute-force oracle.
  EXPECT_EQ(tesseract, brute_force_tesseract_count(cfg));
}

INSTANTIATE_TEST_SUITE_P(Budgets, EnumerateFactorizations,
                         ::testing::Values(4, 16, 64));

TEST(Enumerate, BaselinesAbsentWhenDimsDoNotDivide) {
  // 64 heads do not divide into 24 Megatron ranks; 24 is not a square, so
  // no Optimus either. Tesseract grids with q in {1, 2} survive.
  AutotuneConfig cfg = enum_config(24);
  const std::vector<PlanCandidate> cands = enumerate_candidates(cfg);
  ASSERT_FALSE(cands.empty());
  for (const PlanCandidate& c : cands) {
    EXPECT_EQ(c.scheme, Scheme::Tesseract) << c.label();
  }
}

TEST(Pareto, HandComputedOracles) {
  using P3 = std::array<double, 3>;
  // Single point is always on the front.
  EXPECT_EQ(pareto_front({P3{1, 1, 1}}), std::vector<bool>({true}));
  // One dominator kills everything else.
  EXPECT_EQ(pareto_front({P3{1, 2, 3}, P3{2, 1, 3}, P3{3, 3, 3}, P3{1, 1, 1}}),
            std::vector<bool>({false, false, false, true}));
  // Incomparable points all stay.
  EXPECT_EQ(pareto_front({P3{1, 3, 2}, P3{3, 1, 2}, P3{2, 2, 2}}),
            std::vector<bool>({true, true, true}));
  // Equality on some axes + strict improvement on one axis dominates.
  EXPECT_EQ(pareto_front({P3{1, 2, 2}, P3{1, 2, 3}}),
            std::vector<bool>({true, false}));
  // Exact duplicates do not dominate each other: both kept.
  EXPECT_EQ(pareto_front({P3{1, 1, 1}, P3{1, 1, 1}, P3{2, 2, 2}}),
            std::vector<bool>({true, true, false}));
  EXPECT_TRUE(pareto_front({}).empty());
}

TEST(Score, BasicInvariantsOnFourGpus) {
  const AutotuneConfig cfg = small_config(4);
  const std::vector<ScoredCandidate> results = autotune(cfg);
  ASSERT_FALSE(results.empty());
  bool any_pareto = false;
  for (const ScoredCandidate& r : results) {
    any_pareto = any_pareto || r.pareto;
    EXPECT_GT(r.score.step_seconds, 0.0) << r.cand.label();
    EXPECT_GT(r.score.peak_bytes, 0.0) << r.cand.label();
    // The canned straggler can only slow a step down.
    EXPECT_GE(r.score.straggler_inflation, 1.0) << r.cand.label();
    // The breakdown adds up to the headline number.
    EXPECT_NEAR(r.score.step_seconds,
                r.score.fwd_seconds + r.score.bwd_seconds +
                    r.score.bubble_seconds + r.score.opt_seconds,
                1e-12)
        << r.cand.label();
    if (r.cand.stages == 1) {
      EXPECT_EQ(r.score.bubble_seconds, 0.0) << r.cand.label();
    } else {
      EXPECT_GT(r.score.bubble_seconds, 0.0) << r.cand.label();
    }
    // q = 1 grids have singleton row/col groups (no forward comm) and the
    // depth gradient all-reduce only appears in the backward replay.
    if (r.cand.scheme != Scheme::Tesseract || r.cand.q > 1) {
      EXPECT_GT(r.score.fwd_stats.msgs_sent, 0) << r.cand.label();
    }
    if (r.cand.scheme == Scheme::Tesseract && r.cand.d > 1) {
      EXPECT_GT(r.score.bwd_stats.msgs_sent, 0) << r.cand.label();
    }
  }
  EXPECT_TRUE(any_pareto);
}

TEST(Score, ZeroShardsOptimizerState) {
  const AutotuneConfig cfg = small_config(4);
  PlanCandidate plain;  // Tesseract [1,1,4]
  plain.q = 1;
  plain.d = 4;
  PlanCandidate zero = plain;
  zero.zero = true;
  const PlanScore a = score_candidate(cfg, plain);
  const PlanScore b = score_candidate(cfg, zero);
  // ZeRO-1 divides the Adam moments across the depth group...
  EXPECT_NEAR(b.opt_state_bytes, a.opt_state_bytes / 4.0,
              a.opt_state_bytes * 1e-9);
  EXPECT_LT(b.peak_bytes, a.peak_bytes);
  // ...and pays a value all-gather for it.
  EXPECT_GT(b.opt_seconds, 0.0);
  // Weights and activations are untouched by optimizer sharding.
  EXPECT_EQ(a.weight_bytes, b.weight_bytes);
  EXPECT_EQ(a.activation_bytes, b.activation_bytes);
}

TEST(Search, DeterministicAcrossRuns) {
  const AutotuneConfig cfg = small_config(4);
  const std::string a = autotune_to_json(cfg, autotune(cfg)).dump(2);
  const std::string b = autotune_to_json(cfg, autotune(cfg)).dump(2);
  EXPECT_EQ(a, b);
}

TEST(Search, JsonDocumentShape) {
  const AutotuneConfig cfg = small_config(4);
  const std::vector<ScoredCandidate> results = autotune(cfg);
  const obs::JsonValue doc = autotune_to_json(cfg, results);
  ASSERT_NE(doc.find("cases"), nullptr);
  EXPECT_EQ(doc.find("cases")->size(), results.size());
  ASSERT_NE(doc.find("pareto"), nullptr);
  EXPECT_GT(doc.find("pareto")->size(), 0u);
  ASSERT_NE(doc.find("config"), nullptr);
  EXPECT_NE(doc.find("config")->find("straggler_scale"), nullptr);
  // The envelope's fault plan fingerprints the search's canned straggler,
  // independent of whatever Worlds ran earlier in this process.
  ASSERT_NE(doc.find("fault_plan"), nullptr);
  EXPECT_NE(doc.find("fault_plan")->as_string(), "none");
}

TEST(Explain, ReportComesFromTheRollupMachinery) {
  AutotuneConfig cfg = small_config(4);
  PlanCandidate cand;  // Tesseract [2,2,1]
  cand.q = 2;
  cand.d = 1;
  cfg.gpus = cand.total_ranks();
  PlanScore score;
  const RunReport rep = explain_candidate(cfg, cand, &score);
  EXPECT_EQ(rep.name, cand.label());
  ASSERT_EQ(rep.ranks.size(), 4u);
  EXPECT_GT(rep.makespan, 0.0);
  for (const auto& r : rep.ranks) EXPECT_GT(r.compute, 0.0);
  EXPECT_GT(score.step_seconds, 0.0);
}

// The planner knobs a bench or tool main reads, from a fake environment.
AutotuneConfig from_env(const std::map<std::string, std::string>& env) {
  return AutotuneConfig::from(parse_run_config(fake_env(env)));
}

TEST(Config, EnvOverridesAndValidation) {
  AutotuneConfig cfg = from_env({{"TESSERACT_PLAN_GPUS", "32"},
                                 {"TESSERACT_PLAN_MICROS", "8"},
                                 {"TESSERACT_PLAN_MAX_STAGES", "2"},
                                 {"TESSERACT_PLAN_STRAGGLER_SCALE", "2.5"}});
  EXPECT_EQ(cfg.gpus, 32);
  EXPECT_EQ(cfg.micros, 8);
  EXPECT_EQ(cfg.max_stages, 2);
  EXPECT_DOUBLE_EQ(cfg.straggler_scale, 2.5);

  // A misconfigured search fails loudly instead of searching the wrong space.
  EXPECT_THROW(from_env({{"TESSERACT_PLAN_GPUS", "zero"}}), std::runtime_error);
  EXPECT_THROW(from_env({{"TESSERACT_PLAN_GPUS", "-4"}}), std::runtime_error);
  EXPECT_THROW(from_env({{"TESSERACT_PLAN_STRAGGLER_SCALE", "0.5"}}),
               std::runtime_error);

  cfg = from_env({});
  EXPECT_EQ(cfg.gpus, AutotuneConfig{}.gpus);  // the defaults
  EXPECT_EQ(cfg.gpus, 64);
}

}  // namespace
}  // namespace tsr::perf
