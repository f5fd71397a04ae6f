// Preprocessing-pipeline benchmark: quality-loss-vs-speedup curves for
// the staged prep pipeline (kernelization / label propagation / cut
// sparsification) across three generator families, plus hard gates on
// the pipeline's contracts.
//
// Per (family, mode) cell:
//  * reduction_ratio — (vertices + pins) shrink of the reduced instance;
//  * minc_orig / minc_red — global min cut (Gomory–Hu tree minimum) of
//    the original vs. the reduced instance;
//  * build speedup — full snapshot build (all three tree artifacts) on
//    the original vs. the preprocessed path;
//  * bisect_loss_pct — balanced-bisection cut served from the
//    preprocessed snapshot, evaluated on the ORIGINAL hypergraph,
//    relative to the prep-off answer.
//
// Hard gates (non-zero exit — perf-smoke runs this as a regression
// gate, not a timing printout):
//  * exact mode preserves the global min-cut value on every family;
//  * at least one family reaches >= 5x reduction at < 5% bisection
//    cut loss.
//
// Output: a table plus BENCH_preprocess.json; CI validates the JSON and
// soft-warns when the headline reduction or quality loss regresses
// against bench/baselines/BENCH_preprocess_baseline.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ht/hypertree.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ht::hypergraph::Hypergraph;

double ms_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin)
      .count();
}

/// Global minimum cut as the Gomory–Hu tree's cheapest parent edge
/// (exact for connected instances).
double global_min_cut(const Hypergraph& h) {
  const auto gh = ht::CutEngine().gomory_hu(h);
  double best = -1.0;
  for (std::int32_t v = 0; v < h.num_vertices(); ++v) {
    if (v == gh.tree.root) continue;
    const double cut = gh.tree.parent_cut[static_cast<std::size_t>(v)];
    if (best < 0.0 || cut < best) best = cut;
  }
  return best;
}

/// delta_H of a side assignment, evaluated directly on `h`.
double side_cut(const Hypergraph& h, const std::vector<bool>& side) {
  double cut = 0.0;
  for (std::int32_t e = 0; e < h.num_edges(); ++e) {
    bool saw0 = false, saw1 = false;
    for (const std::int32_t v : h.pins(e)) {
      (side[static_cast<std::size_t>(v)] ? saw1 : saw0) = true;
      if (saw0 && saw1) break;
    }
    if (saw0 && saw1) cut += h.edge_weight(e);
  }
  return cut;
}

/// Duplicates every edge of `base` `copies` times — the workload the
/// exact duplicate-merge rule collapses back down.
Hypergraph replicate_edges(const Hypergraph& base, int copies) {
  Hypergraph h(base.num_vertices());
  for (int c = 0; c < copies; ++c) {
    for (std::int32_t e = 0; e < base.num_edges(); ++e) {
      const auto pins = base.pins(e);
      h.add_edge({pins.begin(), pins.end()}, base.edge_weight(e));
    }
  }
  h.finalize();
  return h;
}

struct Cell {
  std::string family;
  std::string mode;
  std::int32_t n = 0, red_n = 0;
  std::int32_t m = 0, red_m = 0;
  std::int64_t pins = 0, red_pins = 0;
  double reduction_ratio = 1.0;
  double pipeline_ms = 0.0;
  double minc_orig = -1.0, minc_red = -1.0;
  double build_off_ms = 0.0, build_prep_ms = 0.0, speedup = 1.0;
  double bisect_cut_off = -1.0, bisect_cut_prep = -1.0;
  double bisect_loss_pct = 0.0;
  bool exact = false;
};

/// Builds a snapshot under `config`, serves one bisection from it, and
/// evaluates the answer's cut on the ORIGINAL hypergraph. Returns the
/// build wall time; cut < 0 flags a failed query, which includes a served
/// side that does not hold exactly n/2 original vertices.
double build_and_bisect(const Hypergraph& h, const ht::prep::PrepConfig& config,
                        const std::string& path, double* cut_on_original) {
  ht::snapshot::BuildOptions options;
  options.seed = 7;
  options.prep = config;
  const auto begin = Clock::now();
  const ht::Status st = ht::snapshot::write(h, path, options);
  const double build_ms = ms_since(begin);
  *cut_on_original = -1.0;
  if (!st.ok()) return build_ms;
  auto server = ht::TreeServer::open(path);
  if (!server.has_value()) return build_ms;
  const auto answer = server->bisection();
  if (!answer.has_value()) return build_ms;
  const auto& side = answer->side;
  const auto ones = static_cast<std::size_t>(
      std::count(side.begin(), side.end(), true));
  if (side.size() != static_cast<std::size_t>(h.num_vertices()) ||
      2 * ones != side.size()) {
    std::printf("unbalanced bisection from %s: %zu of %zu vertices\n",
                path.c_str(), ones, side.size());
    return build_ms;
  }
  *cut_on_original = side_cut(h, side);
  return build_ms;
}

Cell run_cell(const std::string& family, const Hypergraph& h,
              ht::prep::PrepConfig::Mode mode, double minc_orig,
              double build_off_ms, double bisect_cut_off) {
  Cell cell;
  cell.family = family;
  cell.mode = ht::prep::mode_name(mode);
  cell.n = h.num_vertices();
  cell.m = h.num_edges();
  cell.pins = ht::prep::total_pins(h);
  cell.minc_orig = minc_orig;
  cell.build_off_ms = build_off_ms;
  cell.bisect_cut_off = bisect_cut_off;

  ht::prep::PrepConfig config;
  config.mode = mode;
  const auto begin = Clock::now();
  const auto result = ht::prep::run_pipeline(h, config);
  cell.pipeline_ms = ms_since(begin);
  cell.red_n = result->reduced.num_vertices();
  cell.red_m = result->reduced.num_edges();
  cell.red_pins = ht::prep::total_pins(result->reduced);
  cell.reduction_ratio = result->reduction_ratio();
  cell.exact = result->exact();
  cell.minc_red = cell.red_n >= 2 ? global_min_cut(result->reduced)
                                  : 0.0;

  const std::string path = "bench_preprocess_" + family + "_" + cell.mode +
                           ".htsnap";
  cell.build_prep_ms =
      build_and_bisect(h, config, path, &cell.bisect_cut_prep);
  std::remove(path.c_str());
  cell.speedup = cell.build_prep_ms > 0.0
                     ? cell.build_off_ms / cell.build_prep_ms
                     : 1.0;
  if (cell.bisect_cut_off > 0.0 && cell.bisect_cut_prep >= 0.0) {
    cell.bisect_loss_pct = 100.0 *
                           (cell.bisect_cut_prep - cell.bisect_cut_off) /
                           cell.bisect_cut_off;
  }
  return cell;
}

void append_cell_json(std::string& json, const Cell& cell, bool last) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    \"%s\": {\"n\": %d, \"m\": %d, \"pins\": %lld, "
      "\"red_n\": %d, \"red_m\": %d, \"red_pins\": %lld, "
      "\"reduction_ratio\": %.3f, \"pipeline_ms\": %.3f, "
      "\"minc_orig\": %.3f, \"minc_red\": %.3f, "
      "\"build_off_ms\": %.3f, \"build_prep_ms\": %.3f, "
      "\"speedup\": %.3f, \"bisect_cut_off\": %.3f, "
      "\"bisect_cut_prep\": %.3f, \"bisect_loss_pct\": %.3f, "
      "\"exact\": %s}%s\n",
      cell.mode.c_str(), cell.n, cell.m,
      static_cast<long long>(cell.pins), cell.red_n, cell.red_m,
      static_cast<long long>(cell.red_pins), cell.reduction_ratio,
      cell.pipeline_ms, cell.minc_orig, cell.minc_red, cell.build_off_ms,
      cell.build_prep_ms, cell.speedup, cell.bisect_cut_off,
      cell.bisect_cut_prep, cell.bisect_loss_pct,
      cell.exact ? "true" : "false", last ? "" : ",");
  json += buf;
}

}  // namespace

int main() {
  // Three families: exact-collapsible duplication, planted communities
  // (label propagation's target), and a dense random instance (the
  // sparsifier's target). All even n (bisection queries), all connected
  // by construction for the chosen seeds (asserted below).
  std::vector<std::pair<std::string, Hypergraph>> families;
  {
    ht::Rng rng(11);
    const auto base = ht::hypergraph::netlist_like(240, 480, 4, rng);
    families.emplace_back("replicated", replicate_edges(base, 8));
  }
  {
    ht::Rng rng(12);
    families.emplace_back(
        "planted", ht::hypergraph::planted_parts(8, 40, 3, 160, 40, rng));
  }
  {
    ht::Rng rng(13);
    families.emplace_back("dense",
                          ht::hypergraph::random_uniform(160, 1600, 4, rng));
  }

  std::vector<Cell> cells;
  for (const auto& [family, h] : families) {
    if (!ht::hypergraph::is_connected(h)) {
      std::fprintf(stderr, "family %s is not connected; pick a new seed\n",
                   family.c_str());
      return 1;
    }
    const double minc_orig = global_min_cut(h);
    double bisect_cut_off = -1.0;
    const std::string off_path = "bench_preprocess_" + family + "_off.htsnap";
    const double build_off_ms =
        build_and_bisect(h, ht::prep::PrepConfig{}, off_path,
                         &bisect_cut_off);
    std::remove(off_path.c_str());
    for (const auto mode : {ht::prep::PrepConfig::Mode::kExactOnly,
                            ht::prep::PrepConfig::Mode::kAggressive}) {
      cells.push_back(
          run_cell(family, h, mode, minc_orig, build_off_ms, bisect_cut_off));
    }
  }

  std::printf("%-11s %-10s %7s %9s %9s %9s %9s %8s %9s\n", "family", "mode",
              "ratio", "minc", "minc_red", "build_ms", "prep_ms", "speedup",
              "loss_pct");
  for (const auto& c : cells) {
    std::printf("%-11s %-10s %7.2f %9.1f %9.1f %9.1f %9.1f %8.2f %9.2f\n",
                c.family.c_str(), c.mode.c_str(), c.reduction_ratio,
                c.minc_orig, c.minc_red, c.build_off_ms, c.build_prep_ms,
                c.speedup, c.bisect_loss_pct);
  }

  // Gate 1: exact mode preserves the global min-cut value everywhere.
  bool exact_ok = true;
  for (const auto& c : cells) {
    if (c.mode != "exact") continue;
    if (!c.exact || std::abs(c.minc_red - c.minc_orig) > 1e-9) {
      exact_ok = false;
      std::printf("FAIL exact gate: %s min cut %f -> %f\n", c.family.c_str(),
                  c.minc_orig, c.minc_red);
    }
  }
  // Gate 2: some family reaches >= 5x reduction at < 5% bisection loss.
  const Cell* headline = nullptr;
  for (const auto& c : cells) {
    if (c.reduction_ratio >= 5.0 && c.bisect_cut_prep >= 0.0 &&
        c.bisect_loss_pct < 5.0 &&
        (headline == nullptr ||
         c.reduction_ratio > headline->reduction_ratio)) {
      headline = &c;
    }
  }
  if (headline != nullptr) {
    std::printf("headline: %s/%s %.2fx reduction at %.2f%% loss -> PASS\n",
                headline->family.c_str(), headline->mode.c_str(),
                headline->reduction_ratio, headline->bisect_loss_pct);
  } else {
    std::printf("FAIL reduction gate: no family reached 5x at < 5%% loss\n");
  }

  std::string json = "{\n  \"families\": {\n";
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    json += "  \"" + cells[i].family + "\": {\n";
    append_cell_json(json, cells[i], false);
    append_cell_json(json, cells[i + 1], true);
    json += i + 2 < cells.size() ? "  },\n" : "  }\n";
  }
  json += "  },\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"headline\": {\"family\": \"%s\", \"mode\": \"%s\", "
                  "\"reduction_ratio\": %.3f, \"bisect_loss_pct\": %.3f}\n",
                  headline != nullptr ? headline->family.c_str() : "none",
                  headline != nullptr ? headline->mode.c_str() : "none",
                  headline != nullptr ? headline->reduction_ratio : 0.0,
                  headline != nullptr ? headline->bisect_loss_pct : 0.0);
    json += buf;
  }
  json += "}\n";
  if (std::FILE* f = std::fopen("BENCH_preprocess.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote BENCH_preprocess.json\n");
  }
  return exact_ok && headline != nullptr ? 0 : 1;
}
