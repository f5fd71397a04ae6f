#include "lp/spectral.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace ht::lp {

using ht::graph::Graph;
using ht::graph::VertexId;

namespace {

ht::obs::Histogram& iterations_histogram() {
  static ht::obs::Histogram& h =
      ht::obs::MetricsRegistry::global().histogram("lp.fiedler.iterations");
  return h;
}

ht::obs::Counter& unconverged_counter() {
  static ht::obs::Counter& c =
      ht::obs::MetricsRegistry::global().counter("lp.fiedler.unconverged");
  return c;
}

// y = (c*I - L) x, where L is the weighted Laplacian. With c >= lambda_max,
// the smallest Laplacian eigenvalues become the largest of the shifted
// operator, so power iteration converges to them.
void apply_shifted(const Graph& g, double shift, const std::vector<double>& x,
                   std::vector<double>& y) {
  const std::size_t n = x.size();
  for (std::size_t v = 0; v < n; ++v) y[v] = shift * x[v];
  for (const auto& e : g.edges()) {
    const auto u = static_cast<std::size_t>(e.u);
    const auto v = static_cast<std::size_t>(e.v);
    // L x = D x - A x contributes w*(x_u - x_v) at u and w*(x_v - x_u) at v.
    y[u] -= e.weight * (x[u] - x[v]);
    y[v] -= e.weight * (x[v] - x[u]);
  }
}

void make_mass_orthogonal(std::vector<double>& x,
                          const std::vector<double>& mass) {
  double dot = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    dot += mass[i] * x[i];
    norm += mass[i] * mass[i];
  }
  if (norm <= 0.0) return;
  const double coeff = dot / norm;
  for (std::size_t i = 0; i < x.size(); ++i) x[i] -= coeff * mass[i];
}

double normalize(std::vector<double>& x) {
  double norm = 0.0;
  for (double v : x) norm += v * v;
  norm = std::sqrt(norm);
  if (norm > 0.0)
    for (double& v : x) v /= norm;
  return norm;
}

}  // namespace

FiedlerResult fiedler_vector(const Graph& g,
                             const std::vector<double>& vertex_mass,
                             ht::Rng& rng, int max_iterations,
                             double tolerance) {
  HT_CHECK(g.finalized());
  const auto n = static_cast<std::size_t>(g.num_vertices());
  HT_CHECK(n >= 2);
  std::vector<double> mass = vertex_mass;
  if (mass.empty()) mass.assign(n, 1.0);
  HT_CHECK(mass.size() == n);

  // Gershgorin bound: lambda_max(L) <= 2 * max weighted degree.
  std::vector<double> wdeg(n, 0.0);
  for (const auto& e : g.edges()) {
    wdeg[static_cast<std::size_t>(e.u)] += e.weight;
    wdeg[static_cast<std::size_t>(e.v)] += e.weight;
  }
  double shift = 0.0;
  for (double d : wdeg) shift = std::max(shift, 2.0 * d);
  shift += 1.0;  // keep the operator strictly positive definite

  FiedlerResult out;
  std::vector<double> x(n), y(n);
  for (double& v : x) v = rng.next_double() - 0.5;
  make_mass_orthogonal(x, mass);
  normalize(x);

  double prev_eig = 0.0;
  for (int it = 0; it < max_iterations; ++it) {
    apply_shifted(g, shift, x, y);
    make_mass_orthogonal(y, mass);
    const double norm = normalize(y);
    x.swap(y);
    out.iterations = it + 1;
    const double eig = shift - norm;  // Laplacian eigenvalue estimate
    if (it > 8 && std::fabs(eig - prev_eig) < tolerance) {
      prev_eig = eig;
      out.converged = true;
      break;
    }
    prev_eig = eig;
  }
  out.vector = std::move(x);
  out.eigenvalue = prev_eig;
  iterations_histogram().record(static_cast<std::uint64_t>(out.iterations));
  if (!out.converged) unconverged_counter().add();
  return out;
}

}  // namespace ht::lp
