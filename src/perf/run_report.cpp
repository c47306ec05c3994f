#include "perf/run_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "perf/export.hpp"

namespace tsr::perf {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Tiles `rank`'s copy of [0, makespan] into the four attribution buckets.
// Cuts are exact recorded timestamps (span boundaries, wait-interval
// boundaries, the rank's end time), so consecutive piece durations telescope
// to the makespan with no accumulation error beyond fp addition.
RankAttribution attribute_rank(const comm::World& world, int rank,
                               double makespan) {
  RankAttribution a;
  a.rank = rank;
  a.end_time = world.clock(rank).now();

  struct Wait {
    double t0, t1;
  };
  std::vector<Wait> waits;
  for (const comm::FlowRecv& f : world.flow_recvs(rank)) {
    if (f.blocked && f.t > f.wait_from) waits.push_back({f.wait_from, f.t});
  }
  std::sort(waits.begin(), waits.end(),
            [](const Wait& x, const Wait& y) { return x.t0 < y.t0; });

  const std::vector<comm::TraceEvent>& trace = world.trace(rank);
  std::vector<double> cuts = {0.0, makespan};
  if (a.end_time > 0.0 && a.end_time < makespan) cuts.push_back(a.end_time);
  for (const comm::TraceEvent& e : trace) {
    if (e.t0 > 0.0 && e.t0 < makespan) cuts.push_back(e.t0);
    if (e.t1 > 0.0 && e.t1 < makespan) cuts.push_back(e.t1);
  }
  for (const Wait& w : waits) {
    if (w.t0 > 0.0 && w.t0 < makespan) cuts.push_back(w.t0);
    if (w.t1 > 0.0 && w.t1 < makespan) cuts.push_back(w.t1);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  for (std::size_t i = 1; i < cuts.size(); ++i) {
    const double x = cuts[i - 1];
    const double y = cuts[i];
    if (!(y > x)) continue;
    const double dur = y - x;
    // Blocked wait wins: a receive that advanced the clock is wait time even
    // though it lies inside the enclosing collective's span.
    bool in_wait = false;
    for (const Wait& w : waits) {
      if (w.t0 <= x && w.t1 >= y) {
        in_wait = true;
        break;
      }
      if (w.t0 >= y) break;
    }
    if (in_wait) {
      a.wait += dur;
      continue;
    }
    // Innermost covering span (latest start wins; ties to the shorter span),
    // the same nesting rule the critical-path analyzer uses.
    const comm::TraceEvent* best = nullptr;
    for (const comm::TraceEvent& e : trace) {
      if (e.t0 <= x && e.t1 >= y && e.t1 > e.t0) {
        if (best == nullptr || e.t0 > best->t0 ||
            (e.t0 == best->t0 && e.t1 < best->t1)) {
          best = &e;
        }
      }
    }
    if (best != nullptr && best->kind == comm::SpanKind::Kernel) {
      a.compute += dur;
    } else if (best != nullptr && best->kind == comm::SpanKind::Collective) {
      a.wire += dur;
    } else {
      // Marker-only stretches, uncharged gaps, and everything after the
      // rank's own end time.
      a.idle += dur;
    }
  }
  return a;
}

obs::JsonValue rollup_to_json(const OpRollup& r) {
  obs::JsonValue j = obs::JsonValue::object();
  j["name"] = r.name;
  j["calls"] = r.calls;
  j["total_sim_seconds"] = r.total_seconds;
  j["mean"] = r.mean;
  j["p50"] = r.p50;
  j["p95"] = r.p95;
  j["p99"] = r.p99;
  j["max"] = r.max;
  if (r.bytes > 0) j["bytes"] = r.bytes;
  return j;
}

// ---- formatting helpers ----------------------------------------------------

std::string fmt_seconds(double s) {
  char buf[48];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f us", s * 1e6);
  }
  return buf;
}

std::string fmt_bytes(std::int64_t b) {
  char buf[48];
  if (b >= (1 << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(b) / (1 << 20));
  } else if (b >= (1 << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(b) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lld B", static_cast<long long>(b));
  }
  return buf;
}

std::string fmt_pct(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * frac);
  return buf;
}

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

double num(const obs::JsonValue* v, double fallback = 0.0) {
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

std::int64_t inum(const obs::JsonValue* v, std::int64_t fallback = 0) {
  return v != nullptr && v->is_number() ? v->as_int() : fallback;
}

}  // namespace

// ---------------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------------

RunReport build_run_report(const comm::World& world, std::string name) {
  RunReport rep;
  rep.name = std::move(name);
  rep.nranks = world.size();
  rep.makespan = world.max_sim_time();
  rep.traced = world.tracing();
  rep.metered = world.metrics_enabled();

  const int n = world.size();
  rep.matrix.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                    CommEdge{});
  for (int r = 0; r < n; ++r) {
    for (const comm::FlowSend& f : world.flow_sends(r)) {
      CommEdge& e = rep.matrix[static_cast<std::size_t>(r * n + f.dst)];
      if (f.phantom) {
        e.phantom_msgs += 1;
        e.phantom_bytes += f.bytes;
      } else {
        e.msgs += 1;
        e.bytes += f.bytes;
      }
    }
  }

  rep.ranks.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    rep.ranks.push_back(attribute_rank(world, r, rep.makespan));
  }

  if (rep.metered) {
    const obs::Snapshot snap = world.metrics().snapshot();
    for (const auto& [hname, h] : snap.histograms) {
      if (!ends_with(hname, ".sim_seconds")) continue;
      const std::string base = hname.substr(0, hname.size() - 12);
      OpRollup r;
      r.calls = h.count;
      r.total_seconds = h.sum;
      r.mean = h.mean();
      r.p50 = h.p50();
      r.p95 = h.p95();
      r.p99 = h.p99();
      r.max = h.max;
      const auto bytes_it = snap.counters.find(base + ".bytes");
      if (bytes_it != snap.counters.end()) r.bytes = bytes_it->second;
      if (starts_with(base, "comm.")) {
        r.name = base.substr(5);
        rep.collectives.push_back(std::move(r));
      } else {
        r.name = base;
        rep.rollups.push_back(std::move(r));
      }
    }
    const auto by_total = [](const OpRollup& x, const OpRollup& y) {
      return x.total_seconds != y.total_seconds
                 ? x.total_seconds > y.total_seconds
                 : x.name < y.name;
    };
    std::sort(rep.collectives.begin(), rep.collectives.end(), by_total);
    std::sort(rep.rollups.begin(), rep.rollups.end(), by_total);
  }

  if (const obs::LiveSampler* live = world.live()) {
    rep.timeline_interval = live->config().interval;
    rep.timeline_windows_flushed = live->windows_flushed();
    rep.timeline = live->ring();
    rep.timeline_drift = live->drift_events();
  }

  if (const fault::Injector* inj = world.fault_injector()) {
    rep.fault_active = true;
    const fault::FaultReport fr = inj->report();
    rep.fault_kills = fr.kills;
    rep.fault_delayed_msgs = fr.delayed_msgs;
    rep.fault_delay_seconds = fr.injected_delay_seconds;
    rep.dead_ranks = fr.dead_ranks;

    for (const fault::SlowRankSpec& s : inj->plan().slow_ranks) {
      if (!(s.scale > 1.0)) continue;
      for (int r = 0; r < n; ++r) {
        if (s.rank >= 0 && s.rank != r) continue;
        // Local advances (compute + NIC serialization) are what the
        // straggler scale inflates; the surplus over a healthy rank is
        // local * (scale-1)/scale.
        const double local = rep.ranks[static_cast<std::size_t>(r)].compute +
                             rep.ranks[static_cast<std::size_t>(r)].wire;
        StragglerCharge c;
        c.rank = r;
        c.scale = s.scale;
        c.extra_seconds = local * (s.scale - 1.0) / s.scale;
        rep.stragglers.push_back(c);
      }
    }
    for (const fault::SlowLinkSpec& s : inj->plan().slow_links) {
      DegradedLinkCharge c;
      c.src = s.src;
      c.dst = s.dst;
      c.alpha_scale = s.alpha_scale;
      c.beta_scale = s.beta_scale;
      for (int src = 0; src < n; ++src) {
        if (s.src >= 0 && s.src != src) continue;
        for (int dst = 0; dst < n; ++dst) {
          if (s.dst >= 0 && s.dst != dst) continue;
          const topo::LinkType link = world.spec().link(src, dst);
          if (link == topo::LinkType::Self) continue;
          const CommEdge& e = rep.edge(src, dst);
          if (e.total_msgs() == 0) continue;
          const topo::LinkParams p = world.spec().params(link);
          c.matched_msgs += e.total_msgs();
          c.matched_bytes += e.total_bytes();
          c.extra_seconds +=
              static_cast<double>(e.total_msgs()) * p.alpha *
                  (s.alpha_scale - 1.0) +
              static_cast<double>(e.total_bytes()) * p.beta *
                  (s.beta_scale - 1.0);
        }
      }
      rep.degraded_links.push_back(c);
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

obs::JsonValue RunReport::to_json() const {
  obs::JsonValue root = obs::JsonValue::object();
  stamp_envelope(root, "run_report");
  root["name"] = name;
  root["makespan_sim_seconds"] = makespan;
  root["nranks"] = static_cast<std::int64_t>(nranks);
  root["traced"] = traced;
  root["metered"] = metered;

  obs::JsonValue attr = obs::JsonValue::array();
  for (const RankAttribution& a : ranks) {
    obs::JsonValue j = obs::JsonValue::object();
    j["rank"] = static_cast<std::int64_t>(a.rank);
    j["compute"] = a.compute;
    j["wire"] = a.wire;
    j["wait"] = a.wait;
    j["idle"] = a.idle;
    j["end_time"] = a.end_time;
    attr.push_back(std::move(j));
  }
  root["attribution"] = std::move(attr);

  obs::JsonValue mat = obs::JsonValue::object();
  const auto matrix_of = [&](auto field) {
    obs::JsonValue rows = obs::JsonValue::array();
    for (int s = 0; s < nranks; ++s) {
      obs::JsonValue row = obs::JsonValue::array();
      for (int d = 0; d < nranks; ++d) row.push_back(field(edge(s, d)));
      rows.push_back(std::move(row));
    }
    return rows;
  };
  mat["msgs"] = matrix_of([](const CommEdge& e) { return e.msgs; });
  mat["bytes"] = matrix_of([](const CommEdge& e) { return e.bytes; });
  mat["phantom_msgs"] =
      matrix_of([](const CommEdge& e) { return e.phantom_msgs; });
  mat["phantom_bytes"] =
      matrix_of([](const CommEdge& e) { return e.phantom_bytes; });
  root["comm_matrix"] = std::move(mat);

  obs::JsonValue colls = obs::JsonValue::array();
  for (const OpRollup& r : collectives) colls.push_back(rollup_to_json(r));
  root["collectives"] = std::move(colls);
  obs::JsonValue rolls = obs::JsonValue::array();
  for (const OpRollup& r : rollups) rolls.push_back(rollup_to_json(r));
  root["rollups"] = std::move(rolls);

  if (timeline_interval > 0.0) {
    // Same schema as the streamed TIMELINE file (obs::window_to_json), so
    // tooling that reads one reads the other.
    obs::JsonValue tl = obs::JsonValue::object();
    tl["schema_version"] = obs::kTimelineSchemaVersion;
    tl["interval"] = timeline_interval;
    tl["windows_flushed"] = timeline_windows_flushed;
    obs::JsonValue windows = obs::JsonValue::array();
    for (const obs::WindowSnapshot& w : timeline) {
      windows.push_back(obs::window_to_json(w));
    }
    tl["windows"] = std::move(windows);
    obs::JsonValue drift = obs::JsonValue::array();
    for (const obs::DriftEvent& e : timeline_drift) {
      drift.push_back(e.to_json());
    }
    tl["drift"] = std::move(drift);
    root["timeline"] = std::move(tl);
  }

  if (fault_active) {
    obs::JsonValue f = obs::JsonValue::object();
    f["kills"] = fault_kills;
    f["delayed_msgs"] = fault_delayed_msgs;
    f["injected_delay_seconds"] = fault_delay_seconds;
    obs::JsonValue dead = obs::JsonValue::array();
    for (int r : dead_ranks) dead.push_back(static_cast<std::int64_t>(r));
    f["dead_ranks"] = std::move(dead);
    obs::JsonValue strag = obs::JsonValue::array();
    for (const StragglerCharge& c : stragglers) {
      obs::JsonValue j = obs::JsonValue::object();
      j["rank"] = static_cast<std::int64_t>(c.rank);
      j["scale"] = c.scale;
      j["extra_seconds"] = c.extra_seconds;
      strag.push_back(std::move(j));
    }
    f["stragglers"] = std::move(strag);
    obs::JsonValue links = obs::JsonValue::array();
    for (const DegradedLinkCharge& c : degraded_links) {
      obs::JsonValue j = obs::JsonValue::object();
      j["src"] = static_cast<std::int64_t>(c.src);
      j["dst"] = static_cast<std::int64_t>(c.dst);
      j["alpha_scale"] = c.alpha_scale;
      j["beta_scale"] = c.beta_scale;
      j["matched_msgs"] = c.matched_msgs;
      j["matched_bytes"] = c.matched_bytes;
      j["extra_seconds"] = c.extra_seconds;
      links.push_back(std::move(j));
    }
    f["degraded_links"] = std::move(links);
    root["fault"] = std::move(f);
  }
  return root;
}

std::string RunReport::to_string() const {
  return run_report_summary(to_json());
}

bool write_run_report(const comm::World& world, const std::string& name) {
  const RunReport rep = build_run_report(world, name);
  const obs::JsonValue doc = rep.to_json();
  if (!obs::write_json_file(obs::artifact_path("REPORT_" + name + ".json"),
                            doc, 2)) {
    return false;
  }
  std::ofstream html(obs::artifact_path("REPORT_" + name + ".html"));
  if (!html) return false;
  html << RunReport::run_report_html(doc);
  return static_cast<bool>(html);
}

// ---------------------------------------------------------------------------
// Rendering (over the JSON document, shared with the CLI)
// ---------------------------------------------------------------------------

std::string RunReport::run_report_summary(const obs::JsonValue& doc) {
  std::ostringstream os;
  const double makespan = num(doc.find("makespan_sim_seconds"));
  const std::int64_t nranks = inum(doc.find("nranks"));
  const obs::JsonValue* name = doc.find("name");
  os << "run report";
  if (name != nullptr && name->is_string()) os << " '" << name->as_string() << "'";
  os << ": makespan " << fmt_seconds(makespan) << " over " << nranks
     << " rank(s)";
  if (const obs::JsonValue* backend = doc.find("backend")) {
    if (backend->is_string()) os << ", backend " << backend->as_string();
  }
  if (const obs::JsonValue* kv = doc.find("kernel_variant")) {
    if (kv->is_string()) os << ", kernel " << kv->as_string();
  }
  if (const obs::JsonValue* cf = doc.find("cpu_features")) {
    if (cf->is_string()) os << " (" << cf->as_string() << ")";
  }
  if (const obs::JsonValue* sha = doc.find("git_sha")) {
    if (sha->is_string()) {
      os << ", git " << sha->as_string();
      const obs::JsonValue* dirty = doc.find("git_dirty");
      if (dirty != nullptr && dirty->kind() == obs::JsonValue::Kind::Bool &&
          dirty->as_bool()) {
        os << "+dirty";
      }
    }
  }
  os << "\n";

  if (const obs::JsonValue* attr = doc.find("attribution")) {
    os << "\nper-rank makespan attribution (compute / wire / wait / idle):\n";
    for (const obs::JsonValue& a : attr->items()) {
      const double compute = num(a.find("compute"));
      const double wire = num(a.find("wire"));
      const double wait = num(a.find("wait"));
      const double idle = num(a.find("idle"));
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  rank %2lld  %12s %12s %12s %12s",
                    static_cast<long long>(inum(a.find("rank"))),
                    fmt_seconds(compute).c_str(), fmt_seconds(wire).c_str(),
                    fmt_seconds(wait).c_str(), fmt_seconds(idle).c_str());
      os << line;
      if (makespan > 0.0) {
        os << "  (" << fmt_pct(compute / makespan) << " compute, "
           << fmt_pct(wait / makespan) << " wait)";
      }
      os << "\n";
    }
  }

  if (const obs::JsonValue* mat = doc.find("comm_matrix")) {
    std::int64_t bytes = 0, phantom = 0, msgs = 0;
    const auto sum = [](const obs::JsonValue* rows) {
      std::int64_t t = 0;
      if (rows == nullptr) return t;
      for (const obs::JsonValue& row : rows->items()) {
        for (const obs::JsonValue& cell : row.items()) t += cell.as_int();
      }
      return t;
    };
    bytes = sum(mat->find("bytes"));
    phantom = sum(mat->find("phantom_bytes"));
    msgs = sum(mat->find("msgs")) + sum(mat->find("phantom_msgs"));
    os << "\ncommunication: " << msgs << " msgs, " << fmt_bytes(bytes)
       << " real + " << fmt_bytes(phantom) << " phantom\n";
  }

  const auto print_rollups = [&os](const obs::JsonValue* arr, const char* title,
                                   std::size_t limit) {
    if (arr == nullptr || arr->items().empty()) return;
    os << "\n" << title << " (by total simulated time):\n";
    std::size_t shown = 0;
    for (const obs::JsonValue& r : arr->items()) {
      if (shown++ == limit) {
        os << "  ... " << (arr->items().size() - limit) << " more\n";
        break;
      }
      const obs::JsonValue* n2 = r.find("name");
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %-36s calls %6lld  total %12s  p50 %10s  p99 %10s",
                    n2 != nullptr ? n2->as_string().c_str() : "?",
                    static_cast<long long>(inum(r.find("calls"))),
                    fmt_seconds(num(r.find("total_sim_seconds"))).c_str(),
                    fmt_seconds(num(r.find("p50"))).c_str(),
                    fmt_seconds(num(r.find("p99"))).c_str());
      os << line << "\n";
    }
  };
  print_rollups(doc.find("collectives"), "collectives", 12);
  print_rollups(doc.find("rollups"), "layers / kernels", 12);

  if (const obs::JsonValue* f = doc.find("fault")) {
    os << "\nfault attribution:\n"
       << "  kills " << inum(f->find("kills")) << ", delayed "
       << inum(f->find("delayed_msgs")) << ", injected delay "
       << fmt_seconds(num(f->find("injected_delay_seconds"))) << "\n";
    if (const obs::JsonValue* strag = f->find("stragglers")) {
      for (const obs::JsonValue& s : strag->items()) {
        os << "  straggler rank " << inum(s.find("rank")) << " (x"
           << num(s.find("scale")) << "): +"
           << fmt_seconds(num(s.find("extra_seconds"))) << "\n";
      }
    }
    if (const obs::JsonValue* links = f->find("degraded_links")) {
      for (const obs::JsonValue& l : links->items()) {
        os << "  degraded link " << inum(l.find("src")) << "->"
           << inum(l.find("dst")) << ": +"
           << fmt_seconds(num(l.find("extra_seconds"))) << " over "
           << inum(l.find("matched_msgs")) << " msgs\n";
      }
    }
  }
  return os.str();
}

std::string RunReport::run_report_html(const obs::JsonValue& doc) {
  std::ostringstream os;
  const double makespan = num(doc.find("makespan_sim_seconds"));
  const obs::JsonValue* name = doc.find("name");
  const std::string title =
      name != nullptr && name->is_string() ? name->as_string() : "run";

  os << "<!doctype html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
     << "<title>Tesseract run report: " << html_escape(title)
     << "</title>\n<style>\n"
     << "body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;"
        "max-width:70em;color:#222}\n"
     << "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em}\n"
     << "table{border-collapse:collapse;margin:0.5em 0}\n"
     << "td,th{border:1px solid #ccc;padding:0.25em 0.6em;text-align:right;"
        "font-variant-numeric:tabular-nums}\n"
     << "th{background:#f2f2f2;text-align:center}\n"
     << "td.l,th.l{text-align:left}\n"
     << ".bar{display:inline-block;height:0.7em;background:#1f77b4}\n"
     << ".envelope{color:#555}\n"
     << "td.heat{min-width:4.5em}\n"
     << "</style>\n</head>\n<body>\n"
     << "<h1>Tesseract run report: " << html_escape(title) << "</h1>\n";

  os << "<p class=\"envelope\">makespan <b>" << fmt_seconds(makespan)
     << "</b> &middot; " << inum(doc.find("nranks")) << " ranks";
  if (const obs::JsonValue* backend = doc.find("backend")) {
    if (backend->is_string())
      os << " &middot; backend " << html_escape(backend->as_string());
  }
  os << " &middot; schema v" << inum(doc.find("schema_version"));
  if (const obs::JsonValue* label = doc.find("run_label")) {
    if (label->is_string())
      os << " &middot; label " << html_escape(label->as_string());
  }
  os << "</p>\n";

  // ---- per-rank attribution with proportional bars ----
  if (const obs::JsonValue* attr = doc.find("attribution")) {
    os << "<h2>Per-rank makespan attribution</h2>\n<table>\n"
       << "<tr><th>rank</th><th>compute</th><th>wire</th><th>wait</th>"
       << "<th>idle</th><th class=\"l\">share of makespan</th></tr>\n";
    for (const obs::JsonValue& a : attr->items()) {
      const double compute = num(a.find("compute"));
      const double wire = num(a.find("wire"));
      const double wait = num(a.find("wait"));
      const double idle = num(a.find("idle"));
      os << "<tr><td>" << inum(a.find("rank")) << "</td><td>"
         << fmt_seconds(compute) << "</td><td>" << fmt_seconds(wire)
         << "</td><td>" << fmt_seconds(wait) << "</td><td>"
         << fmt_seconds(idle) << "</td><td class=\"l\">";
      if (makespan > 0.0) {
        const auto bar = [&os, makespan](double v, const char* color) {
          const double w = 240.0 * v / makespan;
          if (w < 0.5) return;
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "<span class=\"bar\" style=\"width:%.1fpx;"
                        "background:%s\"></span>",
                        w, color);
          os << buf;
        };
        bar(compute, "#2ca02c");
        bar(wire, "#1f77b4");
        bar(wait, "#d62728");
        bar(idle, "#c7c7c7");
      }
      os << "</td></tr>\n";
    }
    os << "</table>\n"
       << "<p class=\"envelope\">green = compute, blue = collective wire, "
          "red = blocked wait, grey = idle</p>\n";
  }

  // ---- comm matrix heatmap ----
  if (const obs::JsonValue* mat = doc.find("comm_matrix")) {
    const obs::JsonValue* bytes = mat->find("bytes");
    const obs::JsonValue* phantom = mat->find("phantom_bytes");
    const obs::JsonValue* msgs = mat->find("msgs");
    const obs::JsonValue* pmsgs = mat->find("phantom_msgs");
    if (bytes != nullptr && !bytes->items().empty()) {
      const std::size_t n = bytes->items().size();
      std::int64_t max_cell = 0;
      const auto cell_bytes = [&](std::size_t s, std::size_t d) {
        std::int64_t v = bytes->items()[s].items()[d].as_int();
        if (phantom != nullptr) v += phantom->items()[s].items()[d].as_int();
        return v;
      };
      const auto cell_msgs = [&](std::size_t s, std::size_t d) {
        std::int64_t v = 0;
        if (msgs != nullptr) v += msgs->items()[s].items()[d].as_int();
        if (pmsgs != nullptr) v += pmsgs->items()[s].items()[d].as_int();
        return v;
      };
      for (std::size_t s = 0; s < n; ++s)
        for (std::size_t d = 0; d < n; ++d)
          max_cell = std::max(max_cell, cell_bytes(s, d));
      os << "<h2>Point-to-point communication matrix</h2>\n"
         << "<p class=\"envelope\">cell = bytes sent (real + phantom) from "
            "row rank to column rank; hover for message counts</p>\n<table>\n"
         << "<tr><th>src \\ dst</th>";
      for (std::size_t d = 0; d < n; ++d) os << "<th>" << d << "</th>";
      os << "</tr>\n";
      for (std::size_t s = 0; s < n; ++s) {
        os << "<tr><th>" << s << "</th>";
        for (std::size_t d = 0; d < n; ++d) {
          const std::int64_t v = cell_bytes(s, d);
          const double alpha =
              max_cell > 0 ? 0.85 * static_cast<double>(v) /
                                 static_cast<double>(max_cell)
                           : 0.0;
          char style[96];
          std::snprintf(style, sizeof(style),
                        " style=\"background:rgba(31,119,180,%.3f)\"", alpha);
          os << "<td class=\"heat\"" << (v > 0 ? style : "") << " title=\""
             << cell_msgs(s, d) << " msgs\">"
             << (v > 0 ? fmt_bytes(v) : std::string("&middot;")) << "</td>";
        }
        os << "</tr>\n";
      }
      os << "</table>\n";
    }
  }

  // ---- rollups ----
  const auto rollup_table = [&os](const obs::JsonValue* arr,
                                  const char* heading) {
    if (arr == nullptr || arr->items().empty()) return;
    os << "<h2>" << heading << "</h2>\n<table>\n"
       << "<tr><th class=\"l\">op</th><th>calls</th><th>total</th>"
       << "<th>mean</th><th>p50</th><th>p95</th><th>p99</th><th>max</th>"
       << "<th>bytes</th></tr>\n";
    for (const obs::JsonValue& r : arr->items()) {
      const obs::JsonValue* rname = r.find("name");
      const std::int64_t rbytes = inum(r.find("bytes"));
      os << "<tr><td class=\"l\">"
         << html_escape(rname != nullptr ? rname->as_string() : "?")
         << "</td><td>" << inum(r.find("calls")) << "</td><td>"
         << fmt_seconds(num(r.find("total_sim_seconds"))) << "</td><td>"
         << fmt_seconds(num(r.find("mean"))) << "</td><td>"
         << fmt_seconds(num(r.find("p50"))) << "</td><td>"
         << fmt_seconds(num(r.find("p95"))) << "</td><td>"
         << fmt_seconds(num(r.find("p99"))) << "</td><td>"
         << fmt_seconds(num(r.find("max"))) << "</td><td>"
         << (rbytes > 0 ? fmt_bytes(rbytes) : std::string("&middot;"))
         << "</td></tr>\n";
    }
    os << "</table>\n";
  };
  rollup_table(doc.find("collectives"), "Collective rollups");
  rollup_table(doc.find("rollups"), "Layer and kernel rollups");

  // ---- fault section ----
  if (const obs::JsonValue* f = doc.find("fault")) {
    os << "<h2>Fault attribution</h2>\n<table>\n"
       << "<tr><th class=\"l\">counter</th><th>value</th></tr>\n";
    const auto row = [&os, f](const char* key, const char* label) {
      os << "<tr><td class=\"l\">" << label << "</td><td>"
         << inum(f->find(key)) << "</td></tr>\n";
    };
    row("kills", "rank kills");
    row("delayed_msgs", "delayed messages");
    os << "<tr><td class=\"l\">injected delay</td><td>"
       << fmt_seconds(num(f->find("injected_delay_seconds")))
       << "</td></tr>\n</table>\n";
    if (const obs::JsonValue* strag = f->find("stragglers")) {
      if (!strag->items().empty()) {
        os << "<h2>Straggler charges</h2>\n<table>\n<tr><th>rank</th>"
           << "<th>slowdown</th><th>extra time</th></tr>\n";
        for (const obs::JsonValue& s : strag->items()) {
          os << "<tr><td>" << inum(s.find("rank")) << "</td><td>x"
             << num(s.find("scale")) << "</td><td>"
             << fmt_seconds(num(s.find("extra_seconds"))) << "</td></tr>\n";
        }
        os << "</table>\n";
      }
    }
    if (const obs::JsonValue* links = f->find("degraded_links")) {
      if (!links->items().empty()) {
        os << "<h2>Degraded-link charges</h2>\n<table>\n<tr><th>src</th>"
           << "<th>dst</th><th>alpha x</th><th>beta x</th><th>msgs</th>"
           << "<th>bytes</th><th>extra time</th></tr>\n";
        for (const obs::JsonValue& l : links->items()) {
          os << "<tr><td>" << inum(l.find("src")) << "</td><td>"
             << inum(l.find("dst")) << "</td><td>" << num(l.find("alpha_scale"))
             << "</td><td>" << num(l.find("beta_scale")) << "</td><td>"
             << inum(l.find("matched_msgs")) << "</td><td>"
             << fmt_bytes(inum(l.find("matched_bytes"))) << "</td><td>"
             << fmt_seconds(num(l.find("extra_seconds"))) << "</td></tr>\n";
        }
        os << "</table>\n";
      }
    }
  }

  os << "</body>\n</html>\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

namespace {

// Envelope fields that describe the host environment, not simulated results.
bool skip_at_root(const std::string& key) {
  return key == "backend" || key == "workers" || key == "host_cores" ||
         key == "run_label" || key == "name" || key == "kernel_variant" ||
         key == "cpu_features" || key == "git_sha" || key == "git_dirty";
}

// Exact comparison: the metrics registry shards recordings per rank and
// reduces the shards in fixed rank order (obs/metrics.hpp), so rollup sums
// are bit-identical across backends and worker counts. Before that fix the
// registry summed histogram samples in wall-clock arrival order, and a
// 1e-12 relative floor papered over the resulting few-ulp drift; any
// nonzero difference now is a real result change.
constexpr double kNoiseFloor = 0.0;

struct DiffWalker {
  double threshold;
  ReportDiffResult* out;

  void number(const std::string& path, double a, double b) {
    if (a == b) return;
    const double mag = std::max(std::fabs(a), std::fabs(b));
    const double rel = mag > 0.0 ? std::fabs(b - a) / mag : 0.0;
    if (rel <= kNoiseFloor) return;
    ReportDelta d;
    d.path = path;
    d.a = a;
    d.b = b;
    d.rel = rel;
    d.regression = d.rel > threshold;
    if (d.regression) out->regressions += 1;
    out->deltas.push_back(std::move(d));
  }

  void walk(const std::string& path, const obs::JsonValue& a,
            const obs::JsonValue& b) {
    if (a.is_number() && b.is_number()) {
      number(path, a.as_double(), b.as_double());
      return;
    }
    if (a.kind() != b.kind()) {
      out->structural.push_back(path + ": kind mismatch");
      return;
    }
    switch (a.kind()) {
      case obs::JsonValue::Kind::Object: {
        for (const auto& [key, av] : a.members()) {
          if (path.empty() && skip_at_root(key)) continue;
          const obs::JsonValue* bv = b.find(key);
          if (bv == nullptr) {
            out->structural.push_back(path + "/" + key + ": only in first");
            continue;
          }
          walk(path + "/" + key, av, *bv);
        }
        for (const auto& [key, bv] : b.members()) {
          (void)bv;
          if (path.empty() && skip_at_root(key)) continue;
          if (a.find(key) == nullptr) {
            out->structural.push_back(path + "/" + key + ": only in second");
          }
        }
        return;
      }
      case obs::JsonValue::Kind::Array: {
        if (a.items().size() != b.items().size()) {
          out->structural.push_back(
              path + ": length " + std::to_string(a.items().size()) + " vs " +
              std::to_string(b.items().size()));
          return;
        }
        for (std::size_t i = 0; i < a.items().size(); ++i) {
          walk(path + "/" + std::to_string(i), a.items()[i], b.items()[i]);
        }
        return;
      }
      case obs::JsonValue::Kind::String:
        if (a.as_string() != b.as_string()) {
          out->structural.push_back(path + ": \"" + a.as_string() + "\" vs \"" +
                                    b.as_string() + "\"");
        }
        return;
      case obs::JsonValue::Kind::Bool:
        if (a.as_bool() != b.as_bool()) {
          out->structural.push_back(path + ": bool mismatch");
        }
        return;
      default:
        return;  // null == null
    }
  }
};

}  // namespace

ReportDiffResult diff_run_reports(const obs::JsonValue& a,
                                  const obs::JsonValue& b, double threshold) {
  ReportDiffResult res;
  DiffWalker w{threshold, &res};
  w.walk("", a, b);
  return res;
}

std::string ReportDiffResult::to_string() const {
  std::ostringstream os;
  if (clean()) {
    os << "reports identical (0 deltas)\n";
    return os.str();
  }
  os << deltas.size() << " delta(s), " << regressions << " regression(s), "
     << structural.size() << " structural difference(s)\n";
  for (const std::string& s : structural) os << "  STRUCT " << s << "\n";
  std::size_t shown = 0;
  for (const ReportDelta& d : deltas) {
    if (shown++ == 50) {
      os << "  ... " << (deltas.size() - 50) << " more deltas\n";
      break;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.3f%%", 100.0 * (d.b - d.a) /
                                                   (d.a != 0.0 ? std::fabs(d.a)
                                                               : 1.0));
    os << (d.regression ? "  REGRESSION " : "  delta      ") << d.path << ": "
       << d.a << " -> " << d.b << " (" << buf << ")\n";
  }
  return os.str();
}

}  // namespace tsr::perf
