// Live telemetry plane: online sampler determinism across scheduler
// backends, TIMELINE stream format, per-rank tensor accounting, the
// expectation monitor's drift taxonomy, fault-plan fingerprints, and the run
// report's embedded timeline section.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "fault/fault.hpp"
#include "obs/expect.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "perf/cost_model.hpp"
#include "perf/export.hpp"
#include "perf/run_report.hpp"
#include "perf/trace.hpp"
#include "scoped_config.hpp"
#include "tensor/tensor.hpp"

namespace tsr {
namespace {

// Small Tesseract [2,2,2] phantom replay: 8 ranks, finishes in well under a
// second of wall time, covers compute charges, collectives and waits.
const perf::LayerDims kDims{4, 8, 64, 4};
constexpr int kLayers = 2;

void phantom_workload(comm::Communicator& c) {
  const perf::EvalConfig one_layer{.scheme = perf::Scheme::Tesseract,
                                   .q = 2,
                                   .d = 2,
                                   .dims = kDims,
                                   .layers = 1};
  for (int l = 0; l < kLayers; ++l) {
    perf::replay_schedule(one_layer, c, /*backward=*/false);
    perf::replay_schedule(one_layer, c, /*backward=*/true);
  }
}

double clean_makespan() {
  static const double m = [] {
    comm::World world(8, topo::MachineSpec::meluxina());
    world.run(phantom_workload);
    return world.max_sim_time();
  }();
  return m;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs the phantom workload with a live sampler streaming to `path`;
// returns the file contents.
std::string run_with_timeline(const std::string& path, double interval) {
  comm::World world(8, topo::MachineSpec::meluxina());
  world.enable_metrics();
  obs::LiveConfig cfg;
  cfg.interval = interval;
  cfg.label = "test";
  cfg.path = path;
  world.enable_live(cfg);
  world.run(phantom_workload);
  world.finish_live();
  return slurp(path);
}

TEST(LiveSampler, StreamsWellFormedJsonlWithHeaderAndFinal) {
  const double interval = clean_makespan() / 24.0;
  const std::string text =
      run_with_timeline("TIMELINE_test_format.json", interval);
  std::istringstream in(text);
  std::string line;
  int windows = 0;
  bool saw_header = false, saw_final = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    std::string err;
    const obs::JsonValue v = obs::json_parse(line, &err);
    ASSERT_EQ(err, "") << "line " << line_no << ": " << line;
    if (line_no == 0) {
      saw_header = true;
      ASSERT_NE(v.find("kind"), nullptr);
      EXPECT_EQ(v.find("kind")->as_string(), "timeline");
      EXPECT_EQ(v.find("schema_version")->as_int(), obs::kTimelineSchemaVersion);
      EXPECT_EQ(v.find("nranks")->as_int(), 8);
      EXPECT_EQ(v.find("fault_plan")->as_string(), "none");
      // Host identity must NOT leak into the stream: same-seed timelines are
      // byte-compared across scheduler backends.
      EXPECT_EQ(v.find("backend"), nullptr);
      EXPECT_EQ(v.find("workers"), nullptr);
    } else if (const obs::JsonValue* w = v.find("w")) {
      windows += 1;
      const obs::JsonValue* ranks = v.find("ranks");
      ASSERT_NE(ranks, nullptr);
      ASSERT_EQ(ranks->size(), 8u);
      // Cumulative counters are monotone in the window index, so per-window
      // deltas never go negative (wire_s included: per-span accounting).
      (void)w;
    } else if (v.find("final") != nullptr) {
      saw_final = true;
      const obs::JsonValue* f = v.find("final");
      EXPECT_GT(f->find("windows")->as_int(), 0);
      EXPECT_GT(f->find("samples")->as_int(), 0);
      EXPECT_GT(f->find("makespan")->as_double(), 0.0);
    }
    line_no += 1;
  }
  EXPECT_TRUE(saw_header);
  EXPECT_TRUE(saw_final);
  EXPECT_GE(windows, 16);
}

TEST(LiveSampler, CumulativeCountersAreMonotone) {
  const double interval = clean_makespan() / 24.0;
  const std::string text =
      run_with_timeline("TIMELINE_test_monotone.json", interval);
  std::istringstream in(text);
  std::string line, err;
  std::vector<obs::JsonValue> prev;
  while (std::getline(in, line)) {
    const obs::JsonValue v = obs::json_parse(line, &err);
    ASSERT_EQ(err, "");
    if (v.find("w") == nullptr) continue;
    const auto& ranks = v.find("ranks")->items();
    if (!prev.empty()) {
      for (std::size_t r = 0; r < ranks.size(); ++r) {
        for (const char* key : {"ops", "msgs", "bytes"}) {
          EXPECT_GE(ranks[r].find(key)->as_int(), prev[r].find(key)->as_int());
        }
        for (const char* key : {"t", "compute_s", "wire_s", "wait_s"}) {
          EXPECT_GE(ranks[r].find(key)->as_double(),
                    prev[r].find(key)->as_double());
        }
      }
    }
    prev = ranks;
  }
  ASSERT_FALSE(prev.empty());
}

TEST(LiveSampler, TimelineBitIdenticalAcrossBackends) {
  const double interval = clean_makespan() / 24.0;
  ScopedRunConfig run;

  run->workers = 1;
  run->spmd_threads = false;
  const std::string w1 =
      run_with_timeline("TIMELINE_test_w1.json", interval);
  run->workers = 4;
  const std::string w4 =
      run_with_timeline("TIMELINE_test_w4.json", interval);
  run->spmd_threads = true;
  const std::string threads =
      run_with_timeline("TIMELINE_test_threads.json", interval);

  ASSERT_FALSE(w1.empty());
  EXPECT_EQ(w1, w4) << "fibers W=1 vs W=4 timelines differ";
  EXPECT_EQ(w1, threads) << "fibers vs threads timelines differ";
}

TEST(LiveSampler, RecordsCountersIntoRegistry) {
  comm::World world(8, topo::MachineSpec::meluxina());
  world.enable_metrics();
  obs::LiveConfig cfg;
  cfg.interval = clean_makespan() / 24.0;
  world.enable_live(cfg);  // no path: ring-only sampling
  obs::ExpectationMonitor monitor(obs::ExpectationProfile{},
                                  obs::DriftConfig{}, world.size());
  world.live()->set_monitor(&monitor);
  world.run(phantom_workload);
  world.finish_live();

  const obs::Snapshot snap = world.metrics().snapshot();
  EXPECT_GT(snap.counters.at("runtime.live.samples"), 0);
  EXPECT_GT(snap.counters.at("runtime.live.windows_flushed"), 0);
  EXPECT_EQ(snap.counters.at("obs.expect.drift_events"), 0);
  EXPECT_EQ(snap.counters.at("obs.expect.stall_flags"), 0);
  EXPECT_GT(snap.counters.at("obs.expect.windows_checked"), 0);
  EXPECT_FALSE(world.live()->ring().empty());
  EXPECT_EQ(world.live()->windows_flushed(),
            snap.counters.at("runtime.live.windows_flushed"));
}

TEST(LiveSampler, RingStaysBounded) {
  comm::World world(8, topo::MachineSpec::meluxina());
  obs::LiveConfig cfg;
  cfg.interval = clean_makespan() / 64.0;
  cfg.ring_windows = 4;
  world.enable_live(cfg);
  world.run(phantom_workload);
  world.finish_live();
  EXPECT_LE(world.live()->ring().size(), 4u);
  EXPECT_GT(world.live()->ring_evictions(), 0);
  // Ring keeps the newest windows: the last ring entry is the last flushed.
  const auto ring = world.live()->ring();
  EXPECT_EQ(ring.back().window + 1,
            static_cast<int>(world.live()->windows_flushed()));
}

TEST(ExpectationMonitor, FlagsInjectedStragglerOnTheRightRank) {
  comm::World world(8, topo::MachineSpec::meluxina());
  fault::FaultPlan plan;
  plan.slow_ranks.push_back({3, 1.5});
  world.install_fault_plan(plan);
  obs::LiveConfig cfg;
  cfg.interval = clean_makespan() / 32.0;
  world.enable_live(cfg);
  obs::ExpectationMonitor monitor(obs::ExpectationProfile{},
                                  obs::DriftConfig{}, world.size());
  world.live()->set_monitor(&monitor);
  world.run(phantom_workload);
  world.finish_live();

  const std::vector<obs::DriftEvent> events = world.live()->drift_events();
  int slowdowns = 0;
  for (const obs::DriftEvent& e : events) {
    if (e.type != obs::DriftEvent::Type::RankSlowdown) continue;
    slowdowns += 1;
    EXPECT_EQ(e.rank, 3) << "slowdown flagged on the wrong rank";
    // The +50% straggler converges to factor ~1.5 over the healthy median;
    // at flag time the ratio is at least the 1.3 confirmation threshold.
    EXPECT_GE(e.factor, 1.3);
    EXPECT_LE(e.factor, 1.8);
    // Bounded detection latency: confirmed within the first half of the run.
    EXPECT_LE(e.window, 16);
  }
  EXPECT_EQ(slowdowns, 1) << "straggler must be flagged exactly once";
}

TEST(ExpectationMonitor, SilentOnCleanRun) {
  comm::World world(8, topo::MachineSpec::meluxina());
  obs::LiveConfig cfg;
  cfg.interval = clean_makespan() / 32.0;
  world.enable_live(cfg);
  obs::ExpectationMonitor monitor(obs::ExpectationProfile{},
                                  obs::DriftConfig{}, world.size());
  world.live()->set_monitor(&monitor);
  world.run(phantom_workload);
  world.finish_live();
  EXPECT_TRUE(world.live()->drift_events().empty());
}

TEST(ExpectationMonitor, CostModelProfileMatchesItsOwnReplay) {
  // The profile predicts the very workload we then instrument, so the
  // profile-relative checks (behind_expectation, link_degraded) must stay
  // silent too — the cost model agreeing with itself is the base case of
  // the DistIR premise.
  const perf::EvalConfig eval_cfg{.scheme = perf::Scheme::Tesseract,
                                  .q = 2,
                                  .d = 2,
                                  .dims = kDims,
                                  .layers = kLayers};
  const obs::ExpectationProfile profile =
      perf::expectation_from_cost_model(eval_cfg);
  ASSERT_TRUE(profile.valid());
  EXPECT_GT(profile.ops_per_second, 0.0);
  EXPECT_GT(profile.busy_fraction, 0.0);
  EXPECT_LE(profile.busy_fraction + profile.wait_fraction, 1.0 + 1e-9);

  comm::World world(8, topo::MachineSpec::meluxina());
  obs::LiveConfig cfg;
  cfg.interval = profile.makespan / 32.0;
  world.enable_live(cfg);
  obs::ExpectationMonitor monitor(profile, obs::DriftConfig{}, world.size());
  world.live()->set_monitor(&monitor);
  world.run(phantom_workload);
  world.finish_live();
  EXPECT_TRUE(world.live()->drift_events().empty());
}

// ---- Monitor unit tests on synthetic windows --------------------------------

obs::WindowSnapshot synthetic_window(int w, int nranks) {
  obs::WindowSnapshot snap;
  snap.window = w;
  snap.ranks.resize(static_cast<std::size_t>(nranks));
  return snap;
}

TEST(ExpectationMonitor, StallDetectorFiresAfterConfiguredHorizon) {
  obs::DriftConfig cfg;
  obs::ExpectationMonitor monitor(obs::ExpectationProfile{}, cfg, 4);
  const double interval = 1e-3;
  std::vector<obs::DriftEvent> all;
  for (int w = 0; w < 16; ++w) {
    obs::WindowSnapshot snap = synthetic_window(w, 4);
    for (int r = 0; r < 4; ++r) {
      obs::RankSample& s = snap.ranks[static_cast<std::size_t>(r)];
      s.t = (w + 1) * interval;
      // Rank 2's counters freeze after window 2; peers keep completing ops.
      const int effective = (r == 2 && w > 2) ? 2 : w;
      s.ops = 10 * (effective + 1);
      s.compute_s = 1e-4 * (w + 1);  // equal busy: no slowdown suspicion
    }
    for (obs::DriftEvent& e : monitor.on_window(snap, interval)) {
      all.push_back(e);
    }
  }
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].type, obs::DriftEvent::Type::RankStalled);
  EXPECT_EQ(all[0].rank, 2);
  // Zero-progress windows start at w=3; the flag lands stall_windows later.
  EXPECT_EQ(all[0].window, 2 + cfg.stall_windows);
  EXPECT_EQ(monitor.stall_flags(), 1);
}

TEST(ExpectationMonitor, ReportsDeadRankOnce) {
  obs::ExpectationMonitor monitor(obs::ExpectationProfile{}, obs::DriftConfig{},
                                  2);
  std::vector<obs::DriftEvent> all;
  for (int w = 0; w < 4; ++w) {
    obs::WindowSnapshot snap = synthetic_window(w, 2);
    for (int r = 0; r < 2; ++r) {
      snap.ranks[static_cast<std::size_t>(r)].ops = 5 * (w + 1);
      snap.ranks[static_cast<std::size_t>(r)].compute_s = 1e-4 * (w + 1);
    }
    if (w >= 1) snap.ranks[1].dead = true;
    for (obs::DriftEvent& e : monitor.on_window(snap, 1e-3)) all.push_back(e);
  }
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].type, obs::DriftEvent::Type::RankDead);
  EXPECT_EQ(all[0].rank, 1);
  EXPECT_EQ(all[0].window, 1);
}

TEST(ExpectationMonitor, BehindExpectationNeedsAValidProfile) {
  const double interval = 1e-3;
  obs::DriftConfig cfg;
  // Frozen cluster: all ranks stop completing ops. Without a profile this is
  // indistinguishable from a quiet phase; with one, it is a confirmed lag.
  const auto run = [&](obs::ExpectationProfile profile) {
    obs::ExpectationMonitor monitor(profile, cfg, 4);
    std::vector<obs::DriftEvent> all;
    for (int w = 0; w < 6; ++w) {
      obs::WindowSnapshot snap = synthetic_window(w, 4);
      for (int r = 0; r < 4; ++r) {
        snap.ranks[static_cast<std::size_t>(r)].ops = 1;  // frozen cumulative
        snap.ranks[static_cast<std::size_t>(r)].compute_s = 1e-5;
      }
      for (obs::DriftEvent& e : monitor.on_window(snap, interval)) {
        all.push_back(e);
      }
    }
    return all;
  };

  EXPECT_TRUE(run(obs::ExpectationProfile{}).empty());

  obs::ExpectationProfile profile;
  profile.makespan = 1.0;
  profile.ops_per_second = 10000.0;  // expects 10 ops per window; sees 4 total
  const std::vector<obs::DriftEvent> events = run(profile);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, obs::DriftEvent::Type::BehindExpectation);
  EXPECT_EQ(events[0].rank, -1);
  EXPECT_EQ(events[0].window, cfg.confirm_windows - 1);
}

TEST(ExpectationMonitor, LinkDegradedWhenWaitInflatesWithoutAStraggler) {
  obs::ExpectationProfile profile;
  profile.makespan = 1.0;
  profile.ops_per_second = 4000.0;
  profile.wait_fraction = 0.01;
  obs::ExpectationMonitor monitor(profile, obs::DriftConfig{}, 4);
  const double interval = 1e-3;
  std::vector<obs::DriftEvent> all;
  for (int w = 0; w < 4; ++w) {
    obs::WindowSnapshot snap = synthetic_window(w, 4);
    const double t_end = (w + 1) * interval;
    for (int r = 0; r < 4; ++r) {
      obs::RankSample& s = snap.ranks[static_cast<std::size_t>(r)];
      s.ops = static_cast<std::int64_t>(1 + w) * 1;  // on-rate: 4/window
      s.compute_s = 1e-4 * (w + 1);                  // equal busy, no straggler
      s.wait_s = 0.5 * t_end;                        // half the window blocked
    }
    for (obs::DriftEvent& e : monitor.on_window(snap, interval)) {
      all.push_back(e);
    }
  }
  bool saw_link = false;
  for (const obs::DriftEvent& e : all) {
    if (e.type == obs::DriftEvent::Type::LinkDegraded) {
      saw_link = true;
      EXPECT_EQ(e.rank, -1);
      EXPECT_GT(e.factor, 1.0);
    }
    EXPECT_NE(e.type, obs::DriftEvent::Type::RankSlowdown);
  }
  EXPECT_TRUE(saw_link);
}

// ---- Per-rank tensor accounting ---------------------------------------------

TEST(RankMemory, PerRankLiveBytesTrackOwningRank) {
  comm::World world(4, topo::MachineSpec::zero_cost());
  world.run([&](comm::Communicator& c) {
    const int r = c.rank();
    const std::int64_t before = obs::rank_live_tensor_bytes(r);
    {
      Tensor t({64, (std::int64_t)(r + 1)});
      const std::int64_t held = obs::rank_live_tensor_bytes(r);
      EXPECT_EQ(held - before,
                static_cast<std::int64_t>(t.numel() * sizeof(float)));
    }
    EXPECT_EQ(obs::rank_live_tensor_bytes(r), before);
  });
  EXPECT_EQ(obs::rank_live_tensor_bytes(-1), 0);
  EXPECT_EQ(obs::rank_live_tensor_bytes(1 << 20), 0);
}

// ---- Fault-plan fingerprints ------------------------------------------------

TEST(FaultFingerprint, EmptyPlanIsNoneAndPlansAreStable) {
  const fault::FaultPlan empty;
  EXPECT_EQ(fault::plan_fingerprint(empty), "none");

  fault::FaultPlan a;
  a.slow_ranks.push_back({3, 1.5});
  fault::FaultPlan b;
  b.slow_ranks.push_back({3, 1.5});
  fault::FaultPlan c;
  c.slow_ranks.push_back({2, 1.5});
  EXPECT_EQ(fault::plan_fingerprint(a), fault::plan_fingerprint(b));
  EXPECT_NE(fault::plan_fingerprint(a), fault::plan_fingerprint(c));
  EXPECT_NE(fault::plan_fingerprint(a), "none");
  EXPECT_EQ(fault::plan_fingerprint(a).size(), 16u);  // FNV-1a 64 hex
}

TEST(FaultFingerprint, TimelineHeaderCarriesThePlan) {
  fault::FaultPlan plan;
  plan.slow_ranks.push_back({1, 2.0});
  comm::World world(8, topo::MachineSpec::meluxina());
  world.install_fault_plan(plan);
  obs::LiveConfig cfg;
  cfg.interval = clean_makespan() / 16.0;
  cfg.path = "TIMELINE_test_fp.json";
  world.enable_live(cfg);
  world.run(phantom_workload);
  world.finish_live();

  std::ifstream in("TIMELINE_test_fp.json");
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  std::string err;
  const obs::JsonValue h = obs::json_parse(header, &err);
  ASSERT_EQ(err, "");
  EXPECT_EQ(h.find("fault_plan")->as_string(), fault::plan_fingerprint(plan));
}

TEST(FaultFingerprint, StampedIntoReportEnvelope) {
  fault::FaultPlan plan;
  plan.slow_ranks.push_back({0, 3.0});
  comm::World world(2, topo::MachineSpec::zero_cost());
  world.install_fault_plan(plan);  // makes the plan the process-active one
  obs::JsonValue doc = obs::JsonValue::object();
  perf::stamp_envelope(doc, "test");
  ASSERT_NE(doc.find("fault_plan"), nullptr);
  EXPECT_EQ(doc.find("fault_plan")->as_string(), fault::plan_fingerprint(plan));
}

// ---- Run-report timeline section --------------------------------------------

TEST(RunReportTimeline, EmbedsRingWindowsInSharedSchema) {
  comm::World world(8, topo::MachineSpec::meluxina());
  world.enable_tracing();
  world.enable_metrics();
  obs::LiveConfig cfg;
  cfg.interval = clean_makespan() / 16.0;
  world.enable_live(cfg);
  world.run(phantom_workload);
  world.finish_live();

  const perf::RunReport rep = perf::build_run_report(world, "live_test");
  EXPECT_GT(rep.timeline_interval, 0.0);
  EXPECT_GT(rep.timeline_windows_flushed, 0);
  ASSERT_FALSE(rep.timeline.empty());
  EXPECT_EQ(rep.timeline.front().ranks.size(), 8u);

  const obs::JsonValue doc = rep.to_json();
  const obs::JsonValue* tl = doc.find("timeline");
  ASSERT_NE(tl, nullptr);
  EXPECT_EQ(tl->find("schema_version")->as_int(), obs::kTimelineSchemaVersion);
  const obs::JsonValue* windows = tl->find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_GT(windows->size(), 0u);
  const obs::JsonValue& w0 = windows->items()[0];
  ASSERT_NE(w0.find("ranks"), nullptr);
  EXPECT_EQ(w0.find("ranks")->size(), 8u);

  // Two same-seed reports (same backend state) diff clean, timeline included.
  comm::World world2(8, topo::MachineSpec::meluxina());
  world2.enable_tracing();
  world2.enable_metrics();
  world2.enable_live(cfg);
  world2.run(phantom_workload);
  world2.finish_live();
  const obs::JsonValue doc2 =
      perf::build_run_report(world2, "live_test").to_json();
  const perf::ReportDiffResult diff = perf::diff_run_reports(doc, doc2);
  EXPECT_TRUE(diff.clean()) << diff.to_string();
}

}  // namespace
}  // namespace tsr
