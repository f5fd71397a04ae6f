#include "hypergraph/generators.hpp"

#include <algorithm>
#include <cmath>

namespace ht::hypergraph {

namespace {

std::vector<VertexId> random_pins(VertexId n, std::int32_t r, ht::Rng& rng) {
  auto sample = rng.sample_without_replacement(n, r);
  return {sample.begin(), sample.end()};
}

}  // namespace

Hypergraph random_uniform(VertexId n, EdgeId m, std::int32_t r,
                          ht::Rng& rng) {
  HT_CHECK(r >= 2 && r <= n);
  Hypergraph h(n);
  for (EdgeId e = 0; e < m; ++e) h.add_edge(random_pins(n, r, rng));
  h.finalize();
  return h;
}

Hypergraph gnpr(VertexId n, double p, std::int32_t r, ht::Rng& rng) {
  HT_CHECK(r >= 2 && r <= n);
  HT_CHECK(p >= 0.0);
  // Expected number of edges: C(n, r) * p. Computed in logs to avoid
  // overflow; we sample a Poisson approximation of the binomial count,
  // which matches G(n,p,r) in the sparse regimes of the paper's hardness
  // constructions.
  double log_count = std::log(p);
  for (std::int32_t i = 0; i < r; ++i) {
    log_count += std::log(static_cast<double>(n - i)) -
                 std::log(static_cast<double>(i + 1));
  }
  // Safety cap: refuse to materialize more than ~2M hyperedges — the
  // hardness constructions all live in the sparse regime.
  const double expected = std::min(std::exp(std::min(log_count, 20.0)), 2e6);
  // Poisson sampling via inversion for small mean, normal approx otherwise.
  std::int64_t m;
  if (expected < 64.0) {
    const double limit = std::exp(-expected);
    double prod = rng.next_double();
    m = 0;
    while (prod > limit) {
      prod *= rng.next_double();
      ++m;
    }
  } else {
    const double u1 = std::max(rng.next_double(), 1e-12);
    const double u2 = rng.next_double();
    const double gauss =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    m = std::llround(expected + std::sqrt(expected) * gauss);
    m = std::max<std::int64_t>(m, 0);
  }
  return random_uniform(n, static_cast<EdgeId>(m), r, rng);
}

PlantedInstance planted_dense(VertexId n, double p, std::int32_t r,
                              VertexId k, double beta, ht::Rng& rng) {
  HT_CHECK(2 <= r && r <= k && k <= n);
  PlantedInstance out;
  Hypergraph random_part = gnpr(n, p, r, rng);
  Hypergraph h(n);
  for (EdgeId e = 0; e < random_part.num_edges(); ++e) {
    auto span = random_part.pins(e);
    h.add_edge({span.begin(), span.end()}, random_part.edge_weight(e));
  }
  out.first_planted_edge = h.num_edges();
  out.planted_vertices = rng.sample_without_replacement(n, k);
  const auto planted_edges = static_cast<EdgeId>(std::max<std::int64_t>(
      1, std::llround(std::pow(static_cast<double>(k), 1.0 + beta) /
                      static_cast<double>(r))));
  for (EdgeId e = 0; e < planted_edges; ++e) {
    auto local = rng.sample_without_replacement(k, r);
    std::vector<VertexId> pins;
    pins.reserve(local.size());
    for (auto idx : local)
      pins.push_back(out.planted_vertices[static_cast<std::size_t>(idx)]);
    h.add_edge(std::move(pins));
  }
  h.finalize();
  out.hypergraph = std::move(h);
  return out;
}

Hypergraph single_spanning_edge(VertexId n, Weight w) {
  HT_CHECK(n >= 2);
  Hypergraph h(n);
  std::vector<VertexId> all(static_cast<std::size_t>(n));
  for (VertexId i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
  h.add_edge(std::move(all), w);
  h.finalize();
  return h;
}

Figure2Instance figure2(VertexId n, bool unweighted) {
  HT_CHECK(n >= 2);
  Figure2Instance out;
  Hypergraph h(n + 1);
  out.top = 0;
  out.u.resize(static_cast<std::size_t>(n));
  std::vector<VertexId> all_u;
  all_u.reserve(static_cast<std::size_t>(n));
  for (VertexId i = 0; i < n; ++i) {
    const VertexId ui = 1 + i;
    out.u[static_cast<std::size_t>(i)] = ui;
    all_u.push_back(ui);
    h.add_edge({out.top, ui}, 1.0);
  }
  const double sqrt_n = std::sqrt(static_cast<double>(n));
  if (unweighted) {
    const auto copies = static_cast<std::int32_t>(std::floor(sqrt_n));
    for (std::int32_t c = 0; c < copies; ++c) h.add_edge(all_u, 1.0);
  } else {
    h.add_edge(all_u, sqrt_n);
  }
  h.finalize();
  out.hypergraph = std::move(h);
  return out;
}

Hypergraph from_graph_edges(
    const std::vector<std::pair<VertexId, VertexId>>& edges, VertexId n) {
  Hypergraph h(n);
  for (const auto& [u, v] : edges) h.add_edge({u, v});
  h.finalize();
  return h;
}

Hypergraph quasi_uniform(VertexId n, double alpha, std::int32_t r,
                         ht::Rng& rng) {
  HT_CHECK(alpha > 0.0);
  // Target degree d = n^alpha; m = n*d/r edges. Round-robin over vertices
  // for one pin to keep degrees concentrated, remaining pins random.
  const double d = std::pow(static_cast<double>(n), alpha);
  const auto m = static_cast<EdgeId>(std::max<std::int64_t>(
      1, std::llround(static_cast<double>(n) * d / static_cast<double>(r))));
  Hypergraph h(n);
  for (EdgeId e = 0; e < m; ++e) {
    std::vector<VertexId> pins;
    pins.push_back(static_cast<VertexId>(e % n));
    while (static_cast<std::int32_t>(pins.size()) < r) {
      const auto v = static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (std::find(pins.begin(), pins.end(), v) == pins.end())
        pins.push_back(v);
    }
    h.add_edge(std::move(pins));
  }
  h.finalize();
  return h;
}

Hypergraph ring_of_clusters(std::int32_t clusters, VertexId size) {
  HT_CHECK(clusters >= 2 && size >= 3);
  Hypergraph h(clusters * size);
  for (std::int32_t c = 0; c < clusters; ++c) {
    const VertexId base = c * size;
    std::vector<VertexId> block(static_cast<std::size_t>(size));
    for (VertexId i = 0; i < size; ++i)
      block[static_cast<std::size_t>(i)] = base + i;
    h.add_edge(block);
    for (VertexId i = 0; i + 2 < size; ++i)
      h.add_edge({base + i, base + i + 1, base + i + 2});
    const VertexId next = ((c + 1) % clusters) * size;
    h.add_edge({base, next});
    h.add_edge({base + 1, next + 1});
  }
  h.finalize();
  return h;
}

Hypergraph planted_bisection(VertexId half, std::int32_t r,
                             EdgeId edges_per_side, EdgeId cross_edges,
                             ht::Rng& rng) {
  HT_CHECK(r >= 2 && r <= half);
  const VertexId n = 2 * half;
  Hypergraph h(n);
  for (VertexId side = 0; side < 2; ++side) {
    const VertexId base = side * half;
    for (EdgeId e = 0; e < edges_per_side; ++e) {
      auto local = rng.sample_without_replacement(half, r);
      std::vector<VertexId> pins;
      pins.reserve(local.size());
      for (auto idx : local) pins.push_back(base + idx);
      h.add_edge(std::move(pins));
    }
  }
  for (EdgeId e = 0; e < cross_edges; ++e) {
    // At least one pin per side.
    const auto left = static_cast<std::int32_t>(
        1 + rng.next_below(static_cast<std::uint64_t>(r - 1)));
    const std::int32_t right = r - left;
    std::vector<VertexId> pins;
    auto ls = rng.sample_without_replacement(half, std::min(left, half));
    auto rs = rng.sample_without_replacement(half, std::min(right, half));
    for (auto idx : ls) pins.push_back(idx);
    for (auto idx : rs) pins.push_back(half + idx);
    if (pins.size() >= 2) h.add_edge(std::move(pins));
  }
  h.finalize();
  return h;
}

Hypergraph planted_parts(std::int32_t parts, VertexId per, std::int32_t r,
                         EdgeId edges_per_part, EdgeId cross_edges,
                         ht::Rng& rng) {
  HT_CHECK(parts >= 2 && r >= 2 && r <= per);
  const VertexId n = parts * per;
  Hypergraph h(n);
  for (std::int32_t p = 0; p < parts; ++p) {
    const VertexId base = p * per;
    for (EdgeId e = 0; e < edges_per_part; ++e) {
      auto local = rng.sample_without_replacement(per, r);
      std::vector<VertexId> pins;
      pins.reserve(local.size());
      for (auto idx : local) pins.push_back(base + idx);
      h.add_edge(std::move(pins));
    }
  }
  for (EdgeId e = 0; e < cross_edges; ++e) {
    // One pin in each of two distinct groups, remaining pins in the first.
    const auto p1 = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(parts)));
    auto p2 = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(parts - 1)));
    if (p2 >= p1) ++p2;
    std::vector<VertexId> pins;
    auto first = rng.sample_without_replacement(per, std::min(r - 1, per));
    for (auto idx : first) pins.push_back(p1 * per + idx);
    pins.push_back(p2 * per +
                   static_cast<VertexId>(rng.next_below(
                       static_cast<std::uint64_t>(per))));
    h.add_edge(std::move(pins));
  }
  h.finalize();
  return h;
}

Hypergraph netlist_like(VertexId n, EdgeId nets, std::int32_t high_fanout_nets,
                        ht::Rng& rng) {
  HT_CHECK(n >= 8);
  Hypergraph h(n);
  for (EdgeId e = 0; e < nets; ++e) {
    // Net size 2 + Geometric(1/2), capped at 8: matches the small-net-heavy
    // distribution of circuit netlists.
    std::int32_t size = 2;
    while (size < 8 && rng.next_bool(0.45)) ++size;
    // Locality: pins cluster around a random anchor within a window,
    // mimicking placement locality.
    const auto anchor = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    const VertexId window = std::max<VertexId>(16, n / 16);
    std::vector<VertexId> pins{anchor};
    int guard = 0;
    while (static_cast<std::int32_t>(pins.size()) < size && guard < 64) {
      ++guard;
      const auto offset = static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(window)));
      const VertexId v = (anchor + offset) % n;
      if (std::find(pins.begin(), pins.end(), v) == pins.end())
        pins.push_back(v);
    }
    if (pins.size() >= 2) h.add_edge(std::move(pins));
  }
  for (std::int32_t i = 0; i < high_fanout_nets; ++i) {
    const VertexId fan = std::max<VertexId>(2, n / 8);
    auto pins = rng.sample_without_replacement(n, fan);
    h.add_edge({pins.begin(), pins.end()});
  }
  h.finalize();
  return h;
}

Hypergraph spmv_row_net(VertexId n, EdgeId rows, std::int32_t band,
                        double fill_p, ht::Rng& rng) {
  HT_CHECK(band >= 2);
  Hypergraph h(n);
  for (EdgeId row = 0; row < rows; ++row) {
    const VertexId center = static_cast<VertexId>(
        (static_cast<std::int64_t>(row) * n) / std::max<EdgeId>(rows, 1));
    std::vector<VertexId> pins;
    for (std::int32_t off = -band / 2; off <= band / 2; ++off) {
      const std::int64_t c = center + off;
      if (0 <= c && c < n) pins.push_back(static_cast<VertexId>(c));
    }
    for (VertexId c = 0; c < n; ++c)
      if (rng.next_bool(fill_p)) pins.push_back(c);
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() >= 2) h.add_edge(std::move(pins));
  }
  h.finalize();
  return h;
}

}  // namespace ht::hypergraph
