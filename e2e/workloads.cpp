#include "workloads.hpp"

#include <fstream>
#include <numeric>
#include <stdexcept>

#include "hypergraph/generators.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using Net = std::vector<std::int32_t>;

// The instances do not depend on the run's seed, which draws only the
// queries. min_cut cost grows with the Gomory-Hu tree's depth, and the
// depth moves with the instance: planted instances drawn from run seeds
// 101-110 served 2.9M to 3.4M min_cut/s, and two block-flipped labelings
// of the ring 2.4M and 3.2M, wider than the benchmark's bounds allow.
constexpr std::uint64_t kPlantedInstanceSeed = 1;

Workload ring(bool smoke) {
  Workload w;
  w.name = "ring";
  w.threads = smoke ? 2 : 4;
  w.ring_blocks = smoke ? 40 : 600;
  w.why =
      "the ROADMAP scaling family: root Fiedler calls hit the 3000-iteration "
      "cap, the decomposition tree re-cuts every leaf of a 42.6k-edge clique "
      "expansion, and serial root pieces cap the 4-thread speed-up";
  w.predicted =
      "flow (Gomory-Hu) ~40%; lp, partition, cuttree and the pool most of "
      "the rest; prep and scale none";
  return w;
}

Workload planted(bool smoke) {
  Workload w;
  w.name = "planted";
  w.threads = 1;
  w.prep_exact = true;
  w.planted_half = smoke ? 100 : 1000;
  w.planted_edges = smoke ? 400 : 4000;
  w.planted_cross = smoke ? 8 : 40;
  w.copies = 4;
  w.why =
      "prep does real work (every net is written 4 times; the duplicate "
      "merge keeps 1 in 4), Fiedler converges in a few hundred iterations, "
      "and bisection queries are heavy; single-threaded, so a parallelism "
      "change should not move it";
  w.predicted =
      "flow (Gomory-Hu) ~55%, the root min-ratio oracle most of the rest; "
      "lp small; scale none";
  return w;
}

Workload ring_sharded(bool smoke) {
  Workload w;
  w.name = "ring-sharded";
  w.path = BuildPath::kSharded;
  w.threads = 1;
  w.ring_blocks = smoke ? 80 : 4800;
  w.shards = smoke ? 4 : 16;
  w.resident = 2;
  w.budget_bytes = 2u << 20;
  w.why =
      "the only workload for the out-of-core sharded build; only min_cut and "
      "global_min_cut are served, tagged dominating; it bypasses lp, "
      "cuttree and reduction";
  w.predicted = "flow (per-shard Gomory-Hu) essentially all; lp, cuttree, "
                "reduction none";
  return w;
}

/// Ring of clusters (the bench_shard ring): per block of 10 vertices one
/// fat net, a lattice of triangles, and two 2-pin bridges to the next
/// block.
std::vector<Net> ring_nets(std::int32_t blocks) {
  std::vector<Net> nets;
  nets.reserve(static_cast<std::size_t>(blocks) * (kRingBlockSize + 1));
  for (std::int32_t c = 0; c < blocks; ++c) {
    Net block(kRingBlockSize);
    std::iota(block.begin(), block.end(), c * kRingBlockSize);
    const std::int32_t next = ((c + 1) % blocks) * kRingBlockSize;
    nets.push_back(block);
    for (std::size_t i = 0; i + 2 < block.size(); ++i)
      nets.push_back({block[i], block[i + 1], block[i + 2]});
    nets.push_back({block[0], next});
    nets.push_back({block[1], next + 1});
  }
  return nets;
}

/// planted_bisection, re-drawn from the same stream until connected (the
/// tree builds and the Gomory-Hu artifact need a connected instance).
std::vector<Net> planted_nets(const Workload& w) {
  ht::Rng rng(kPlantedInstanceSeed);
  for (;;) {
    const auto h = ht::hypergraph::planted_bisection(
        w.planted_half, 3, w.planted_edges, w.planted_cross, rng);
    if (!ht::hypergraph::is_connected(h)) continue;
    std::vector<Net> nets;
    nets.reserve(static_cast<std::size_t>(h.num_edges()));
    for (ht::hypergraph::EdgeId e = 0; e < h.num_edges(); ++e) {
      const auto pins = h.pins(e);
      nets.emplace_back(pins.begin(), pins.end());
    }
    return nets;
  }
}

}  // namespace

bool find_workload(const std::string& name, bool smoke, Workload* out) {
  if (name == "ring") {
    *out = ring(smoke);
  } else if (name == "planted") {
    *out = planted(smoke);
  } else if (name == "ring-sharded") {
    *out = ring_sharded(smoke);
  } else {
    return false;
  }
  return true;
}

void write_instance(const Workload& w, const std::string& path) {
  const std::vector<Net> nets =
      w.ring_blocks > 0 ? ring_nets(w.ring_blocks) : planted_nets(w);
  std::ofstream out(path);
  out << nets.size() * static_cast<std::size_t>(w.copies) << ' '
      << w.num_vertices() << '\n';
  for (const Net& net : nets) {
    std::string line;
    for (std::size_t i = 0; i < net.size(); ++i) {
      if (i > 0) line += ' ';
      line += std::to_string(net[i] + 1);
    }
    line += '\n';
    for (std::int32_t k = 0; k < w.copies; ++k) out << line;
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

}  // namespace e2e
