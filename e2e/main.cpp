// e2e: hMetis file -> snapshot build -> served answers, end to end.
//
//   e2e_bench --workload ring|planted|ring-sharded --seed N --seconds S
//              --trace 0|1 --workdir DIR [--outdir DIR] [--expect-hash H]
//              [--smoke]
//
// One process, one closed-loop client thread. The program writes the
// workload's instance as an hMetis file, then runs the user's path through
// the ht::Solver facade (read_hmetis -> build_snapshot or
// build_snapshot_sharded -> serve) kRepeats times with tracing off and
// reports the median set-up. The last server then answers a query mix drawn
// from --seed for --seconds, and the answers are checked against max-flow
// references outside the timed sections.
//
// --trace 1 adds one traced pass that calls each layer's public entry point
// in path order, each call inside a TraceSpan opened here, and reports the
// per-layer metrics (span durations, registry counters, the server's own
// latency histograms) instead of the end-to-end ones.
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; the line before it starting with "record " is the full
// machine-readable record of the run. Every check, build and query is one
// attempted operation; a failed one is counted, never filtered out.
// --smoke additionally feeds the checks known-bad answers and exits
// non-zero on any failure (the benchmark's own tests).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "ht/hypertree.hpp"
#include "lp/spectral.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "partition/min_ratio_cut.hpp"
#include "partition/sparsest_cut.hpp"
#include "trace_summary.hpp"
#include "util/hash64.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using ht::hypergraph::Hypergraph;

constexpr int kRepeats = 3;         // set-ups per run; the median is reported
constexpr int kSmokeRepeats = 2;
constexpr std::size_t kPairPool = 4096;
constexpr std::size_t kCheckedPairs = 24;
constexpr std::size_t kSetPairs = 64;
constexpr std::size_t kMinCutBatch = 2048;
constexpr int kMinHeavyCalls = 3;   // bisection / kway calls per run, at least
constexpr std::int32_t kKway = 4;
constexpr std::uint64_t kQuerySalt = 0x9e3779b97f4a7c15ULL;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir;
  std::string outdir;
  std::string expect_hash;
};

// ---------------------------------------------------------------- output

std::string json_string(const std::string& s) {
  return "\"" + ht::obs::json_escape(s) + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order, so tables list them as defined.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (index_.emplace(name, items_.size()).second) {
      items_.push_back({name, {value, unit}});
    } else {
      items_[index_[name]].second = {value, unit};
    }
  }
  const std::vector<std::pair<std::string, Metric>>& items() const {
    return items_;
  }
  std::string json() const {
    std::string out = "{";
    for (const auto& [name, m] : items_) {
      if (out.size() > 1) out += ", ";
      out += json_string(name) + ": {\"value\": " + json_number(m.value) +
             ", \"unit\": " + json_string(m.unit) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
  std::map<std::string, std::size_t> index_;
};

/// Every build, query and check is one operation.
struct Ops {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void check(bool ok, const std::string& what) {
    count(ok);
    if (!ok && failures.size() < 32) failures.push_back(what);
  }
};

// ---------------------------------------------------------------- helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Value at fraction q of the sorted sample (nearest rank).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

/// Resets the kernel's high-water RSS mark to the current RSS.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// High-water RSS since the last reset, in MB (VmHWM; ru_maxrss if /proc
/// is unavailable).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

std::string file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    ht::hash64(bytes.data(), bytes.size())));
  return buf;
}

/// Process-wide metric values (counters, gauges, histogram sums).
std::uint64_t registry_count(const std::string& name) {
  const auto snap = ht::obs::MetricsRegistry::global().snapshot();
  if (auto it = snap.counters.find(name); it != snap.counters.end())
    return it->second;
  if (auto it = snap.histograms.find(name); it != snap.histograms.end())
    return it->second.sum;
  return 0;
}

// ---------------------------------------------------------------- set-up

struct Context {
  Args args;
  e2e::Workload w;
  std::size_t threads = 1;
  std::string hmetis;
  std::string snapshot;
};

ht::Solver make_solver(const Context& c) {
  ht::RunContext ctx;
  ctx.with_threads(c.threads);
  return ht::Solver(ctx);
}

ht::snapshot::BuildOptions build_options(const e2e::Workload& w) {
  ht::snapshot::BuildOptions options;
  if (w.prep_exact) options.prep.mode = ht::prep::PrepConfig::Mode::kExactOnly;
  return options;
}

ht::scale::ShardOptions shard_options(const Context& c,
                                      const std::string& temp_dir) {
  ht::scale::ShardOptions options;
  options.shards = c.w.shards;
  options.resident = c.w.resident;
  options.memory_budget_bytes = c.w.budget_bytes;
  options.temp_dir = temp_dir;
  return options;
}

/// Set-up as a user sees it: hMetis file on disk -> TreeServer serving.
struct Setup {
  double wall_s = 0.0;
  double rss_mb = 0.0;
  std::string hash;
  std::optional<ht::TreeServer> server;
};

Setup run_setup(const Context& c, Ops& ops) {
  Setup out;
  ht::Solver solver = make_solver(c);
  reset_peak_rss();
  bool built = false;
  ht::Timer timer;
  if (c.w.path == e2e::BuildPath::kSharded) {
    built = solver
                .build_snapshot_sharded(
                    c.hmetis, c.snapshot,
                    shard_options(c, c.args.workdir + "/setup.shards"))
                .ok();
  } else {
    auto h = ht::Solver::read_hmetis(c.hmetis);
    built = h.ok() &&
            solver.build_snapshot(*h, c.snapshot, build_options(c.w)).ok();
  }
  if (built) {
    auto server = solver.serve(c.snapshot);
    if (server.ok()) out.server.emplace(std::move(*server));
  }
  out.wall_s = timer.seconds();
  out.rss_mb = peak_rss_mb();
  ops.check(out.server.has_value(), "set-up: build or open failed");
  if (out.server.has_value()) out.hash = file_hash(c.snapshot);
  return out;
}

// ---------------------------------------------------------------- queries

struct SetPair {
  std::vector<std::int32_t> a, b;
};

struct Queries {
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
  std::vector<SetPair> sets;
};

Queries make_queries(std::int32_t n, std::uint64_t seed) {
  ht::Rng rng(seed ^ kQuerySalt);
  const auto pick = [&] {
    return static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
  };
  Queries q;
  while (q.pairs.size() < kPairPool) {
    const std::int32_t s = pick(), t = pick();
    if (s != t) q.pairs.emplace_back(s, t);
  }
  while (q.sets.size() < kSetPairs) {
    const auto size_a = 1 + static_cast<std::int32_t>(rng.next_below(3));
    const auto size_b = 1 + static_cast<std::int32_t>(rng.next_below(3));
    std::vector<std::int32_t> picked;
    while (static_cast<std::int32_t>(picked.size()) < size_a + size_b) {
      const std::int32_t v = pick();
      if (std::find(picked.begin(), picked.end(), v) == picked.end())
        picked.push_back(v);
    }
    SetPair p;
    p.a.assign(picked.begin(), picked.begin() + size_a);
    p.b.assign(picked.begin() + size_a, picked.end());
    q.sets.push_back(std::move(p));
  }
  return q;
}

struct Served {
  std::vector<double> mincut_rates;  // queries/s per batch
  std::vector<double> gmin_us;
  std::vector<double> setcut_us;
  std::vector<double> bisect_ms;
  std::vector<double> kway_ms;
};

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The closed-loop client: each query is sent when the previous one
/// returned. min_cut is measured in slices spread over the whole run
/// (after every set-up and between the other query kinds), and each slice
/// visits every core the process may use: on shared hardware the
/// neighbours' load slows cores unevenly, in phases of seconds, so batches
/// spread over cores and time see the rate the server sustains.
class Client {
 public:
  Client(const Queries& q, double mincut_slice_s, Ops& ops)
      : q_(q), slice_s_(mincut_slice_s), ops_(ops) {
    sched_getaffinity(0, sizeof allowed_, &allowed_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }

  void mincut_slice(const ht::TreeServer& server) {
    for (const int cpu : cpus_) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      const auto start = Clock::now();
      do {
        std::int64_t bad = 0;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kMinCutBatch; ++i) {
          const auto& [s, t] = q_.pairs[next_pair_++ % q_.pairs.size()];
          if (!server.min_cut(s, t).ok()) ++bad;
        }
        served.mincut_rates.push_back(static_cast<double>(kMinCutBatch) /
                                      seconds_since(t0));
        ops_.attempted += static_cast<std::int64_t>(kMinCutBatch);
        ops_.failed += bad;
      } while (seconds_since(start) <
               slice_s_ / static_cast<double>(cpus_.size()));
    }
    sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

  /// The other query kinds the snapshot serves, each for its share of
  /// `seconds`, with a min_cut slice before each and after the last.
  void mix(const ht::TreeServer& server, bool tree_queries, double seconds) {
    const auto timed = [&](double share, std::size_t min_calls, auto&& call,
                           std::vector<double>& sample, double scale) {
      mincut_slice(server);
      const auto start = Clock::now();
      while (sample.size() < min_calls || seconds_since(start) < seconds * share) {
        const auto t0 = Clock::now();
        const bool ok = call(sample.size());
        sample.push_back(seconds_since(t0) * scale);
        ops_.count(ok);
      }
    };
    if (tree_queries) {
      timed(0.15, 1,
            [&](std::size_t i) {
              const SetPair& p = q_.sets[i % q_.sets.size()];
              return server.set_cut(p.a, p.b).ok();
            },
            served.setcut_us, 1e6);
      timed(0.15, kMinHeavyCalls,
            [&](std::size_t) { return server.bisection().ok(); },
            served.bisect_ms, 1e3);
      timed(0.2, kMinHeavyCalls,
            [&](std::size_t) { return server.kway(kKway).ok(); },
            served.kway_ms, 1e3);
    } else {
      timed(0.3, 1, [&](std::size_t) { return server.global_min_cut().ok(); },
            served.gmin_us, 1e6);
    }
    mincut_slice(server);
  }

  /// min_cut slices the mix() call adds.
  static int mix_slices(bool tree_queries) { return tree_queries ? 4 : 2; }

  Served served;

 private:
  const Queries& q_;
  double slice_s_;
  Ops& ops_;
  std::size_t next_pair_ = 0;
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
};

// ---------------------------------------------------------------- checks

struct Quality {
  double setcut_ratio = 0.0;
  double bisect_cut = 0.0;
};

/// Answers against max-flow references on the original instance.
Quality check_answers(const ht::TreeServer& server, const Hypergraph& h,
                      const Queries& q, bool tree_queries, Ops& ops) {
  Quality out;
  const ht::flow::CutEngine engine;
  const auto state = server.state();
  const std::uint32_t flags = state->meta.artifact_flags;
  const auto info = server.info();
  ops.check(info.has_gomory_hu && (flags & ht::snapshot::kGomoryHuComplete),
            "completeness: Gomory-Hu tree missing or incomplete");
  if (tree_queries) {
    ops.check(info.has_vertex_cut_tree &&
                  (flags & ht::snapshot::kVertexCutTreeComplete),
              "completeness: vertex cut tree missing or incomplete");
    ops.check(info.has_decomposition &&
                  (flags & ht::snapshot::kDecompositionComplete),
              "completeness: decomposition tree missing or incomplete");
  } else {
    ops.check(info.sharded && info.shards_completed == info.num_shards,
              "completeness: not every shard was solved");
  }

  for (std::size_t i = 0; i < kCheckedPairs; ++i) {
    const auto [s, t] = q.pairs[i];
    const auto served = server.min_cut(s, t);
    const double ref = engine.min_hyperedge_cut(h, {s}, {t}).value;
    const std::string what = "min_cut(" + std::to_string(s) + "," +
                             std::to_string(t) + ") vs reference " +
                             json_number(ref);
    if (!served.ok()) {
      ops.check(false, what + ": query failed");
    } else if (served->dominating) {
      ops.check(e2e::dominating_ok(served->value, ref),
                what + ": dominating answer " + json_number(served->value));
    } else {
      ops.check(served->exact && e2e::exact_ok(served->value, ref),
                what + ": answer " + json_number(served->value));
    }
  }
  if (!tree_queries) return out;

  double ratio_sum = 0.0;
  for (const SetPair& p : q.sets) {
    const auto served = server.set_cut(p.a, p.b);
    const double ref = engine.min_hyperedge_cut(h, p.a, p.b).value;
    const bool ok = served.ok() && e2e::dominating_ok(served->value, ref);
    ops.check(ok, "set_cut under-reports reference " + json_number(ref));
    if (served.ok() && ref > 0) ratio_sum += served->value / ref;
  }
  out.setcut_ratio = ratio_sum / static_cast<double>(q.sets.size());

  const auto bisection = server.bisection();
  if (bisection.ok()) {
    out.bisect_cut = h.cut_weight(bisection->side);
    ops.check(e2e::bisection_ok(bisection->side, bisection->cut,
                                out.bisect_cut),
              "bisection unbalanced or reported cut " +
                  json_number(bisection->cut) + " != recomputed " +
                  json_number(out.bisect_cut));
  } else {
    ops.check(false, "bisection failed");
  }
  const auto kway = server.kway(kKway);
  ops.check(kway.ok() && e2e::kway_balanced(kway->part, kKway),
            "kway(4) failed or unbalanced");
  return out;
}

/// The checks must reject known-bad answers (smoke runs only).
void check_the_checks(Ops& ops) {
  ops.check(!e2e::exact_ok(2.0, 3.0), "canary: exact_ok accepts 2 vs 3");
  ops.check(!e2e::dominating_ok(2.0, 3.0),
            "canary: dominating_ok accepts an under-report");
  ops.check(e2e::dominating_ok(3.0, 3.0 - 1e-13),
            "canary: dominating_ok rejects rounding slack");
  ops.check(!e2e::bisection_ok({true, true, true, false}, 1.0, 1.0),
            "canary: bisection_ok accepts 3 vs 1");
  ops.check(!e2e::bisection_ok({true, false}, 1.0, 2.0),
            "canary: bisection_ok accepts a misreported cut");
  ops.check(!e2e::kway_balanced({0, 0, 1, 2}, 4),
            "canary: kway_balanced accepts an empty part");
  ops.check(!e2e::kway_balanced({0, 1, 2, 4}, 4),
            "canary: kway_balanced accepts part id k");
}

// ---------------------------------------------------------------- tracing

struct Traced {
  Metrics layers;
  double setup_s = 0.0;  // read + build_snapshot + open, traced
  double attributed_s = 0.0;  // the part of setup_s layer spans cover
  std::string snapshot_hash;
  std::map<std::string, e2e::SpanTotals> spans;
};

/// CPU seconds over (wall x threads) for one call.
double cpu_util(double cpu_s, double wall_s, std::size_t threads) {
  return wall_s > 0 ? cpu_s / (wall_s * static_cast<double>(threads)) : 0.0;
}

/// The traced pass: each layer's public entry point in path order, then
/// the whole build (for the assembly share) and open.
Traced traced_path(const Context& c, Ops& ops) {
  Traced out;
  ht::Solver solver = make_solver(c);
  const std::string traced_snapshot = c.args.workdir + "/traced.htsnap";
  auto& registry = ht::obs::MetricsRegistry::global();
  auto& tracer = ht::obs::Tracer::global();
  struct FlowCounts {
    std::uint64_t calls = 0, paths = 0, builds = 0;
  } flow;
  const auto read_flow = [&] {
    flow = {registry_count("flow.max_flow_calls"),
            registry_count("flow.augmenting_paths"),
            registry_count("flow.builds")};
  };
  double cpu_vct = 0, cpu_dtree = 0, cpu_build = 0;
  std::uint64_t pool_tasks = 0, pieces = 0;
  double pins_kept = 1.0;
  int star_iters = 0, clique_iters = 0;
  std::int64_t clique_edges = 0;
  std::int32_t vct_nodes = 0, dtree_nodes = 0;
  ht::scale::ShardBuildReport shard_report;
  std::size_t snapshot_bytes = 0;

  tracer.clear();
  ht::obs::set_tracing_enabled(true);
  {
    ht::obs::TraceSpan root("e2e.path");
    if (c.w.path == e2e::BuildPath::kSharded) {
      const std::string temp = c.args.workdir + "/traced.shards";
      ht::scale::IngestOptions ingest;
      ingest.shards = c.w.shards;
      ingest.temp_dir = temp;
      ingest.memory_budget_bytes = c.w.budget_bytes;
      ht::StatusOr<ht::scale::ShardManifest> manifest;
      {
        ht::obs::TraceSpan span("e2e.scale.ingest");
        manifest = ht::scale::shard_hmetis_file(c.hmetis, ingest);
      }
      ops.check(manifest.ok(), "traced: shard ingest failed");
      if (manifest.ok()) {
        registry.reset_all();
        ht::Status built;
        {
          ht::obs::TraceSpan span("e2e.scale.build");
          built = ht::scale::build_from_manifest(
              *manifest, c.args.workdir + "/layers.htsnap",
              shard_options(c, temp), &shard_report);
        }
        read_flow();
        ops.check(built.ok(), "traced: sharded build from manifest failed");
      }
      fs::remove_all(temp);
      registry.reset_all();
      const double cpu0 = cpu_seconds();
      ht::Status built;
      {
        ht::obs::TraceSpan span("e2e.serve.build_snapshot");
        built = solver.build_snapshot_sharded(
            c.hmetis, traced_snapshot,
            shard_options(c, c.args.workdir + "/traced2.shards"));
      }
      cpu_build = cpu_seconds() - cpu0;
      ops.check(built.ok(), "traced: sharded build failed");
    } else {
      ht::StatusOr<Hypergraph> read;
      {
        ht::obs::TraceSpan span("e2e.hypergraph.read");
        read = ht::Solver::read_hmetis(c.hmetis);
      }
      ops.check(read.ok(), "traced: read_hmetis failed");
      const Hypergraph h = read.ok() ? std::move(*read) : Hypergraph();
      const auto options = build_options(c.w);
      ht::StatusOr<ht::prep::PrepResult> prep;
      const Hypergraph* stored = &h;
      if (c.w.prep_exact && read.ok()) {
        {
          ht::obs::TraceSpan span("e2e.prep.run");
          prep = solver.preprocess(h, options.prep);
        }
        ops.check(prep.ok(), "traced: preprocess failed");
        if (prep.ok() && prep->applied()) stored = &prep->reduced;
        pins_kept = static_cast<double>(ht::prep::total_pins(*stored)) /
                    static_cast<double>(ht::prep::total_pins(h));
      }
      if (read.ok()) {
        registry.reset_all();
        ht::StatusOr<ht::flow::HypergraphGomoryHuRunResult> gh;
        {
          ht::obs::TraceSpan span("e2e.flow.gomory_hu");
          gh = solver.gomory_hu(*stored);
        }
        read_flow();
        ops.check(gh.ok(), "traced: gomory_hu incomplete");

        ht::reduction::StarExpansion star;
        {
          ht::obs::TraceSpan span("e2e.reduction.star");
          star = ht::reduction::star_expansion(*stored);
        }
        {
          ht::obs::TraceSpan span("e2e.lp.fiedler_star");
          ht::Rng rng(options.seed);
          star_iters = ht::lp::fiedler_vector(
                           star.graph, star.graph.vertex_weights(), rng)
                           .iterations;
        }
        {
          ht::obs::TraceSpan span("e2e.partition.min_ratio_root");
          ht::Rng rng(options.seed);
          ht::partition::min_ratio_vertex_cut(star.graph, rng);
        }
        ht::cuttree::VertexCutTreeOptions vct_options;
        vct_options.seed = options.seed;
        vct_options.alpha = options.alpha;
        ht::StatusOr<ht::cuttree::VertexCutTreeResult> vct;
        double cpu0 = cpu_seconds();
        {
          ht::obs::TraceSpan span("e2e.cuttree.vct");
          vct = solver.build_vertex_cut_tree(star.graph, vct_options);
        }
        cpu_vct = cpu_seconds() - cpu0;
        ops.check(vct.ok(), "traced: vertex cut tree incomplete");
        if (vct.has_value()) vct_nodes = vct->tree.num_nodes();

        ht::graph::Graph clique;
        {
          ht::obs::TraceSpan span("e2e.reduction.clique");
          clique = ht::reduction::clique_expansion(*stored);
          if (!clique.finalized()) clique.finalize();
        }
        clique_edges = clique.num_edges();
        {
          ht::obs::TraceSpan span("e2e.lp.fiedler_clique");
          ht::Rng rng(options.seed);
          clique_iters = ht::lp::fiedler_vector(clique, {}, rng).iterations;
        }
        // The decomposition tree's root oracle sees the expansion as a
        // 2-uniform hypergraph.
        Hypergraph wrapper(clique.num_vertices());
        for (const auto& e : clique.edges())
          wrapper.add_edge({e.u, e.v}, e.weight);
        wrapper.finalize();
        {
          ht::obs::TraceSpan span("e2e.partition.sparsest_root");
          ht::Rng rng(options.seed);
          ht::partition::sparsest_hyperedge_cut(wrapper, rng);
        }
        ht::cuttree::DecompositionOptions dtree_options;
        dtree_options.seed = options.seed;
        ht::StatusOr<ht::cuttree::DecompositionTreeResult> dtree;
        cpu0 = cpu_seconds();
        {
          ht::obs::TraceSpan span("e2e.cuttree.dtree");
          dtree = solver.decomposition_tree(clique, dtree_options);
        }
        cpu_dtree = cpu_seconds() - cpu0;
        ops.check(dtree.ok(), "traced: decomposition tree incomplete");
        if (dtree.has_value()) dtree_nodes = dtree->tree.num_nodes();
      }
      // Free the reduced copy so the full build starts from the same memory
      // state as an untraced set-up.
      prep = ht::StatusOr<ht::prep::PrepResult>();
      registry.reset_all();
      const double cpu0 = cpu_seconds();
      ht::Status built;
      {
        ht::obs::TraceSpan span("e2e.serve.build_snapshot");
        built = solver.build_snapshot(h, traced_snapshot, options);
      }
      cpu_build = cpu_seconds() - cpu0;
      ops.check(built.ok(), "traced: build_snapshot failed");
    }
    pool_tasks = registry_count("pool.tasks");
    pieces = registry_count("engine.pieces");
    ht::StatusOr<ht::TreeServer> server;
    {
      ht::obs::TraceSpan span("e2e.serve.open");
      server = solver.serve(traced_snapshot);
    }
    ops.check(server.ok(), "traced: open failed");
    if (server.ok()) {
      snapshot_bytes = server->info().snapshot_bytes;
      out.snapshot_hash = file_hash(traced_snapshot);
    }
  }
  ht::ThreadPool::global().wait_idle();
  ht::obs::set_tracing_enabled(false);
  if (!c.args.outdir.empty()) {
    tracer.write_chrome_trace(c.args.outdir + "/" + c.w.name + "-seed" +
                              std::to_string(c.args.seed) + ".trace.json");
  }
  const auto events = tracer.collect();
  out.spans = e2e::summarize(events);
  const double unattributed =
      e2e::unattributed_s(events, "e2e.serve.build_snapshot");
  tracer.clear();

  const auto span_s = [&](const char* name) {
    const auto it = out.spans.find(name);
    return it == out.spans.end() ? 0.0 : it->second.total_s;
  };
  const double build_s = span_s("e2e.serve.build_snapshot");
  const double artifacts =
      span_s("e2e.prep.run") + span_s("e2e.flow.gomory_hu") +
      span_s("e2e.reduction.star") + span_s("e2e.cuttree.vct") +
      span_s("e2e.reduction.clique") + span_s("e2e.cuttree.dtree") +
      span_s("e2e.scale.ingest") + span_s("e2e.scale.build");
  out.setup_s =
      span_s("e2e.hypergraph.read") + build_s + span_s("e2e.serve.open");
  out.attributed_s = out.setup_s - unattributed;
  const std::size_t threads = c.threads;

  Metrics& m = out.layers;
  m.set("hypergraph.read_s", span_s("e2e.hypergraph.read"), "s");
  m.set("prep.run_s", span_s("e2e.prep.run"), "s");
  m.set("prep.pins_kept_frac", pins_kept, "frac");
  m.set("flow.gomory_hu_s", span_s("e2e.flow.gomory_hu"), "s");
  m.set("flow.max_flow_calls", static_cast<double>(flow.calls), "count");
  m.set("flow.augmenting_paths", static_cast<double>(flow.paths), "count");
  m.set("flow.builds", static_cast<double>(flow.builds), "count");
  m.set("reduction.star_s", span_s("e2e.reduction.star"), "s");
  m.set("reduction.clique_s", span_s("e2e.reduction.clique"), "s");
  m.set("reduction.clique_edges", static_cast<double>(clique_edges), "count");
  m.set("lp.fiedler_star_s", span_s("e2e.lp.fiedler_star"), "s");
  m.set("lp.fiedler_star_iters", star_iters, "count");
  m.set("lp.fiedler_clique_s", span_s("e2e.lp.fiedler_clique"), "s");
  m.set("lp.fiedler_clique_iters", clique_iters, "count");
  m.set("partition.min_ratio_root_s", span_s("e2e.partition.min_ratio_root"),
        "s");
  m.set("partition.sparsest_root_s", span_s("e2e.partition.sparsest_root"),
        "s");
  m.set("cuttree.vct_s", span_s("e2e.cuttree.vct"), "s");
  m.set("cuttree.dtree_s", span_s("e2e.cuttree.dtree"), "s");
  m.set("cuttree.vct_cpu_util",
        cpu_util(cpu_vct, span_s("e2e.cuttree.vct"), threads), "frac");
  m.set("cuttree.dtree_cpu_util",
        cpu_util(cpu_dtree, span_s("e2e.cuttree.dtree"), threads), "frac");
  m.set("cuttree.vct_nodes", vct_nodes, "count");
  m.set("cuttree.dtree_nodes", dtree_nodes, "count");
  m.set("engine.pieces", static_cast<double>(pieces), "count");
  m.set("pool.tasks", static_cast<double>(pool_tasks), "count");
  m.set("pool.cpu_util", cpu_util(cpu_build, build_s, threads), "frac");
  m.set("serve.open_s", span_s("e2e.serve.open"), "s");
  m.set("serve.snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes");
  m.set("serve.assemble_s", build_s - artifacts, "s");
  m.set("scale.ingest_s", span_s("e2e.scale.ingest"), "s");
  m.set("scale.build_s", span_s("e2e.scale.build"), "s");
  m.set("scale.spill_bytes", static_cast<double>(shard_report.spill_bytes),
        "bytes");
  m.set("scale.peak_resident_bytes",
        static_cast<double>(shard_report.peak_resident_bytes), "bytes");
  m.set("scale.boundary_pins", static_cast<double>(shard_report.boundary_pins),
        "count");
  m.set("scale.shards_completed", shard_report.shards_completed, "count");
  return out;
}

// ---------------------------------------------------------------- main

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::stoull(value);
    } else if (key == "--seconds") {
      a->seconds = std::stod(value);
    } else if (key == "--trace") {
      a->trace = value == "1";
    } else if (key == "--workdir") {
      a->workdir = value;
    } else if (key == "--outdir") {
      a->outdir = value;
    } else if (key == "--expect-hash") {
      a->expect_hash = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->workdir.empty() && a->seconds > 0;
}

void print_table(const Metrics& metrics) {
  for (const auto& [name, m] : metrics.items()) {
    std::printf("  %-32s %16.6g  %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Context c;
  if (!parse_args(argc, argv, &c.args) ||
      !e2e::find_workload(c.args.workload, c.args.smoke, &c.w)) {
    std::cerr << "usage: e2e_bench --workload ring|planted|ring-sharded "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--outdir DIR] [--expect-hash H] [--smoke]\n";
    return 2;
  }
  fs::create_directories(c.args.workdir);
  if (!c.args.outdir.empty()) fs::create_directories(c.args.outdir);
  c.threads = std::min<std::size_t>(
      c.w.threads, std::max(1u, std::thread::hardware_concurrency()));
  c.hmetis = c.args.workdir + "/instance.hmetis";
  c.snapshot = c.args.workdir + "/instance.htsnap";
  const bool tree_queries = c.w.path == e2e::BuildPath::kInMemory;
  Ops ops;

  e2e::write_instance(c.w, c.hmetis);

  // Untraced set-ups; the last one's server answers the queries. Each
  // set-up is followed by a min_cut slice on its server.
  const Queries queries = make_queries(c.w.num_vertices(), c.args.seed);
  const int repeats = c.args.smoke ? kSmokeRepeats : kRepeats;
  // min_cut's share of the query time; mix() splits the rest.
  const double mincut_s = c.args.seconds * (tree_queries ? 0.5 : 0.7);
  Client client(queries,
                mincut_s / (repeats + Client::mix_slices(tree_queries)), ops);
  std::vector<double> walls, rss;
  std::vector<std::string> hashes;
  std::optional<ht::TreeServer> server;
  for (int r = 0; r < repeats; ++r) {
    server.reset();
    Setup s = run_setup(c, ops);
    walls.push_back(s.wall_s);
    rss.push_back(s.rss_mb);
    hashes.push_back(s.hash);
    server = std::move(s.server);
    if (server.has_value()) client.mincut_slice(*server);
  }
  const std::string hash = hashes.back();
  ops.check(std::all_of(hashes.begin(), hashes.end(),
                        [&](const std::string& h) { return h == hash; }),
            "determinism: snapshot hash differs between set-ups");
  if (!c.args.expect_hash.empty()) {
    ops.check(hash == c.args.expect_hash,
              "determinism: snapshot hash " + hash + " != earlier run's " +
                  c.args.expect_hash);
  }
  const double setup_s = median(walls);

  std::optional<Traced> traced;
  if (c.args.trace) {
    traced = traced_path(c, ops);
    ops.check(traced->snapshot_hash == hash,
              "determinism: the traced build's snapshot hash differs");
  }

  ht::obs::MetricsRegistry::global().reset_all();
  if (server.has_value()) client.mix(*server, tree_queries, c.args.seconds);
  const Served& served = client.served;

  auto ref = ht::Solver::read_hmetis(c.hmetis);
  if (!ref.ok()) {
    std::cerr << "cannot re-read " << c.hmetis << "\n";
    return 2;
  }
  const Hypergraph& h = *ref;
  const bool connected = ht::hypergraph::is_connected(h);
  ops.check(connected, "instance: generated hypergraph is not connected");
  Quality quality;
  if (server.has_value())
    quality = check_answers(*server, h, queries, tree_queries, ops);
  if (c.args.smoke) check_the_checks(ops);

  Metrics all;
  all.set("setup_s", setup_s, "s");
  all.set("peak_rss_mb", median(rss), "MB");
  // The rate the server sustains when the machine lets it: the 99th
  // percentile of the batch rates spread over the run and the cores (lower
  // percentiles follow the neighbours' load, by up to a third).
  all.set("mincut_qps", quantile(served.mincut_rates, 0.99), "1/s");
  all.set("ok_frac",
          1.0 - static_cast<double>(ops.failed) /
                    static_cast<double>(std::max<std::int64_t>(1, ops.attempted)),
          "frac");
  const std::size_t e2e_count = all.items().size();
  all.set("query.mincut_qps_p50", median(served.mincut_rates), "1/s");
  all.set("query.mincut_batches",
          static_cast<double>(served.mincut_rates.size()), "count");
  all.set("query.setcut_p50_us", quantile(served.setcut_us, 0.50), "us");
  all.set("query.setcut_p99_us", quantile(served.setcut_us, 0.99), "us");
  all.set("query.setcut_ratio", quality.setcut_ratio, "ratio");
  all.set("query.bisect_ms", median(served.bisect_ms), "ms");
  all.set("query.bisect_cut", quality.bisect_cut, "weight");
  all.set("query.kway_ms", median(served.kway_ms), "ms");
  const auto histograms = ht::obs::MetricsRegistry::global().snapshot().histograms;
  for (const char* kind : {"min_cut", "set_cut", "bisection", "kway"}) {
    const std::string name = std::string("serve.latency.") + kind;
    ht::obs::HistogramSnapshot hist;
    if (auto it = histograms.find(name); it != histograms.end()) hist = it->second;
    all.set(name + ".p50_us", hist.p50() * 1e-3, "us");
    all.set(name + ".p99_us", hist.p99() * 1e-3, "us");
  }
  if (traced.has_value()) {
    for (const auto& [name, m] : traced->layers.items())
      all.set(name, m.value, m.unit);
    all.set("obs.trace_overhead_frac", traced->setup_s / setup_s - 1.0, "frac");
    // The untraced set-up minus what spans account for in the traced one:
    // read, open, and the part of build_snapshot the library's layer spans
    // cover. Time outside every layer span (the facade's and the top-level
    // build span's own bookkeeping) stays in the residual, and so does
    // tracing overhead (with the opposite sign).
    all.set("e2e.residual_s", setup_s - traced->attributed_s, "s");
  }

  // Result metrics: the end-to-end ones untraced, every other one traced.
  Metrics result;
  for (std::size_t i = 0; i < all.items().size(); ++i) {
    if ((i < e2e_count) != c.args.trace) {
      result.set(all.items()[i].first, all.items()[i].second.value,
                 all.items()[i].second.unit);
    }
  }

  std::ostringstream rec;
  rec << "{\"workload\": " << json_string(c.w.name)
      << ", \"seed\": " << c.args.seed << ", \"smoke\": " << c.args.smoke
      << ", \"trace\": " << c.args.trace
      << ", \"why\": " << json_string(c.w.why)
      << ", \"predicted\": " << json_string(c.w.predicted)
      << ", \"instance\": {\"n\": " << h.num_vertices()
      << ", \"m\": " << h.num_edges()
      << ", \"pins\": " << ht::prep::total_pins(h)
      << ", \"connected\": " << (connected ? "true" : "false") << "}"
      << ", \"threads\": " << c.threads
      << ", \"snapshot_hash\": " << json_string(hash)
      << ", \"setup_walls_s\": [";
  for (std::size_t i = 0; i < walls.size(); ++i)
    rec << (i ? ", " : "") << json_number(walls[i]);
  rec << "], \"samples\": {\"mincut_batches\": " << served.mincut_rates.size()
      << ", \"mincut_batch\": " << kMinCutBatch
      << ", \"gmin\": " << served.gmin_us.size()
      << ", \"setcut\": " << served.setcut_us.size()
      << ", \"bisection\": " << served.bisect_ms.size()
      << ", \"kway\": " << served.kway_ms.size() << "}"
      << ", \"attempted\": " << ops.attempted << ", \"failed\": " << ops.failed
      << ", \"failures\": [";
  for (std::size_t i = 0; i < ops.failures.size(); ++i)
    rec << (i ? ", " : "") << json_string(ops.failures[i]);
  rec << "], \"metrics\": " << all.json();
  if (traced.has_value()) {
    rec << ", \"spans\": {";
    bool first = true;
    for (const auto& [name, t] : traced->spans) {
      rec << (first ? "" : ", ") << json_string(name) << ": {\"count\": "
          << t.count << ", \"total_s\": " << json_number(t.total_s)
          << ", \"self_s\": " << json_number(t.self_s) << "}";
      first = false;
    }
    rec << "}";
  }
  rec << "}";
  if (!c.args.outdir.empty()) {
    std::ofstream(c.args.outdir + "/" + c.w.name + "-seed" +
                  std::to_string(c.args.seed) + "-trace" +
                  std::to_string(c.args.trace) + ".record.json")
        << rec.str() << "\n";
  }

  std::printf("e2e %s seed=%llu%s: n=%d m=%d pins=%lld connected=%d "
              "threads=%zu snapshot_hash=%s\n",
              c.w.name.c_str(), static_cast<unsigned long long>(c.args.seed),
              c.args.smoke ? " (smoke)" : "", h.num_vertices(), h.num_edges(),
              static_cast<long long>(ht::prep::total_pins(h)), connected,
              c.threads, hash.c_str());
  std::printf("  why: %s\n  predicted: %s\n", c.w.why.c_str(),
              c.w.predicted.c_str());
  std::printf("samples: %zu min_cut batches of %zu, %zu global_min_cut, %zu "
              "set_cut, %zu bisection, %zu kway\n",
              served.mincut_rates.size(), kMinCutBatch, served.gmin_us.size(),
              served.setcut_us.size(), served.bisect_ms.size(),
              served.kway_ms.size());
  std::printf("metrics:\n");
  print_table(all);
  if (traced.has_value()) {
    std::printf("span self times (traced pass):\n  %-36s %8s %12s %12s\n",
                "span", "count", "total_s", "self_s");
    for (const auto& [name, t] : traced->spans) {
      std::printf("  %-36s %8lld %12.6f %12.6f\n", name.c_str(),
                  static_cast<long long>(t.count), t.total_s, t.self_s);
    }
  }
  for (const std::string& f : ops.failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("record %s\n", rec.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              ops.failed == 0 ? "true" : "false",
              static_cast<long long>(ops.attempted),
              static_cast<long long>(ops.failed), result.json().c_str());
  std::fflush(stdout);
  return c.args.smoke && ops.failed != 0 ? 1 : 0;
}
