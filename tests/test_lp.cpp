#include <gtest/gtest.h>

#include <cmath>

#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "lp/fractional_cut.hpp"
#include "lp/simplex.hpp"
#include "lp/spectral.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using ht::lp::Constraint;
using ht::lp::LpStatus;
using ht::lp::Relation;
using ht::lp::SimplexSolver;

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> opt 36 at (2, 6).
  SimplexSolver solver(2);
  solver.add_constraint({{1, 0}, Relation::kLessEqual, 4});
  solver.add_constraint({{0, 2}, Relation::kLessEqual, 12});
  solver.add_constraint({{3, 2}, Relation::kLessEqual, 18});
  const auto r = solver.maximize({3, 5});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-7);
  EXPECT_NEAR(r.solution[0], 2.0, 1e-7);
  EXPECT_NEAR(r.solution[1], 6.0, 1e-7);
}

TEST(Simplex, Minimization) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> opt at intersection
  // (8/5, 6/5), value 14/5.
  SimplexSolver solver(2);
  solver.add_constraint({{1, 2}, Relation::kGreaterEqual, 4});
  solver.add_constraint({{3, 1}, Relation::kGreaterEqual, 6});
  const auto r = solver.minimize({1, 1});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 14.0 / 5.0, 1e-7);
}

TEST(Simplex, EqualityConstraints) {
  // max x + 2y s.t. x + y = 3, x <= 2 -> (1...) best y: x=0,y=3 obj 6?
  // x + y = 3, x <= 2, x,y >= 0; max x + 2y -> x=0, y=3 -> 6.
  SimplexSolver solver(2);
  solver.add_constraint({{1, 1}, Relation::kEqual, 3});
  solver.add_constraint({{1, 0}, Relation::kLessEqual, 2});
  const auto r = solver.maximize({1, 2});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  SimplexSolver solver(1);
  solver.add_constraint({{1}, Relation::kLessEqual, 1});
  solver.add_constraint({{1}, Relation::kGreaterEqual, 2});
  EXPECT_EQ(solver.maximize({1}).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  SimplexSolver solver(2);
  solver.add_constraint({{1, -1}, Relation::kLessEqual, 1});
  EXPECT_EQ(solver.maximize({1, 1}).status, LpStatus::kUnbounded);
}

TEST(Simplex, UnconstrainedCases) {
  SimplexSolver solver(2);
  EXPECT_EQ(solver.maximize({1, 0}).status, LpStatus::kUnbounded);
  const auto r = solver.maximize({-1, -1});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x - y <= -1 means y >= x + 1; max x s.t. x <= 3, x - y <= -1, y <= 5.
  SimplexSolver solver(2);
  solver.add_constraint({{1, 0}, Relation::kLessEqual, 3});
  solver.add_constraint({{1, -1}, Relation::kLessEqual, -1});
  solver.add_constraint({{0, 1}, Relation::kLessEqual, 5});
  const auto r = solver.maximize({1, 0});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-7);
}

TEST(Simplex, DegenerateTerminates) {
  // Degenerate vertex; Bland's rule must still terminate.
  SimplexSolver solver(2);
  solver.add_constraint({{1, 1}, Relation::kLessEqual, 1});
  solver.add_constraint({{1, 1}, Relation::kLessEqual, 1});
  solver.add_constraint({{1, 0}, Relation::kLessEqual, 1});
  const auto r = solver.maximize({1, 1});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-7);
}

/// Two K5's joined by one edge.
ht::graph::Graph two_joined_cliques() {
  ht::graph::Graph g(10);
  for (int a = 0; a < 5; ++a)
    for (int b = a + 1; b < 5; ++b) {
      g.add_edge(a, b);
      g.add_edge(5 + a, 5 + b);
    }
  g.add_edge(0, 5);
  g.finalize();
  return g;
}

TEST(Spectral, FiedlerSeparatesTwoCliques) {
  // Fiedler vector signs split the cliques.
  const ht::graph::Graph g = two_joined_cliques();
  ht::Rng rng(1);
  const auto f = ht::lp::fiedler_vector(g, {}, rng);
  for (int v = 1; v < 5; ++v)
    EXPECT_GT(f.vector[0] * f.vector[static_cast<std::size_t>(v)], 0.0);
  for (int v = 6; v < 10; ++v)
    EXPECT_GT(f.vector[5] * f.vector[static_cast<std::size_t>(v)], 0.0);
  EXPECT_LT(f.vector[0] * f.vector[5], 0.0);
}

TEST(Spectral, PathEigenvalueMatchesClosedForm) {
  // Path P_n Laplacian: lambda_2 = 2(1 - cos(pi/n)).
  const int n = 12;
  const ht::graph::Graph g = ht::graph::path(n);
  ht::Rng rng(2);
  const auto f = ht::lp::fiedler_vector(g, {}, rng, 20000, 1e-12);
  const double expected = 2.0 * (1.0 - std::cos(M_PI / n));
  EXPECT_NEAR(f.eigenvalue, expected, 1e-4);
}

TEST(Spectral, ReportsConvergenceAndRecordsIterations) {
  // Two joined cliques settle well before the cap; the result says so and
  // the metrics see one converged call.
  const ht::graph::Graph g = two_joined_cliques();
  auto& registry = ht::obs::MetricsRegistry::global();
  auto& iterations = registry.histogram("lp.fiedler.iterations");
  auto& unconverged = registry.counter("lp.fiedler.unconverged");
  const std::uint64_t calls_before = iterations.count();
  const std::uint64_t iters_before = iterations.sum();
  const std::uint64_t unconverged_before = unconverged.value();
  ht::Rng rng(1);
  const auto f = ht::lp::fiedler_vector(g, {}, rng);
  EXPECT_TRUE(f.converged);
  EXPECT_LT(f.iterations, 3000);
  EXPECT_EQ(iterations.count() - calls_before, 1u);
  EXPECT_EQ(iterations.sum() - iters_before,
            static_cast<std::uint64_t>(f.iterations));
  EXPECT_EQ(unconverged.value(), unconverged_before);
}

TEST(Spectral, ReportsIterationCapAsUnconverged) {
  // A 200-vertex path has a tiny spectral gap: 20 iterations cannot meet
  // a 1e-12 tolerance, so the run stops at the cap and says so.
  const ht::graph::Graph g = ht::graph::path(200);
  auto& registry = ht::obs::MetricsRegistry::global();
  auto& iterations = registry.histogram("lp.fiedler.iterations");
  auto& unconverged = registry.counter("lp.fiedler.unconverged");
  const std::uint64_t iters_before = iterations.sum();
  const std::uint64_t unconverged_before = unconverged.value();
  ht::Rng rng(2);
  const auto f = ht::lp::fiedler_vector(g, {}, rng, 20, 1e-12);
  EXPECT_FALSE(f.converged);
  EXPECT_EQ(f.iterations, 20);
  EXPECT_EQ(f.vector.size(), 200u);
  EXPECT_EQ(iterations.sum() - iters_before, 20u);
  EXPECT_EQ(unconverged.value() - unconverged_before, 1u);
}

TEST(Spectral, VectorIsMassOrthogonalAndUnit) {
  ht::Rng rng(3);
  const ht::graph::Graph g = ht::graph::grid(4, 4);
  std::vector<double> mass(16, 1.0);
  mass[3] = 5.0;
  const auto f = ht::lp::fiedler_vector(g, mass, rng);
  double dot = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    dot += mass[i] * f.vector[i];
    norm += f.vector[i] * f.vector[i];
  }
  EXPECT_NEAR(dot, 0.0, 1e-5);
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(FractionalCut, MatchesFlowOnPath) {
  const ht::graph::Graph g = ht::graph::path(5);
  const auto lp = ht::lp::fractional_vertex_cut(g, {0}, {4});
  EXPECT_TRUE(lp.converged);
  EXPECT_NEAR(lp.value, 1.0, 1e-6);
}

TEST(FractionalCut, DisconnectedTerminalsCostZero) {
  ht::graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  const auto lp = ht::lp::fractional_vertex_cut(g, {0}, {3});
  EXPECT_TRUE(lp.converged);
  EXPECT_NEAR(lp.value, 0.0, 1e-9);
}

TEST(FractionalCut, LpEqualsIntegralVertexCut) {
  // The vertex-cut LP is integral: LP value == gamma from the flow solver.
  ht::Rng rng(4);
  for (int trial = 0; trial < 6; ++trial) {
    ht::graph::Graph g = ht::graph::gnp_connected(9, 0.35, rng);
    for (ht::graph::VertexId v = 0; v < g.num_vertices(); ++v)
      g.set_vertex_weight(v, static_cast<double>(1 + rng.next_below(3)));
    auto pick = rng.sample_without_replacement(9, 2);
    const std::vector<ht::graph::VertexId> a{pick[0]}, b{pick[1]};
    const auto lp = ht::lp::fractional_vertex_cut(g, a, b);
    const auto flow = ht::CutEngine().min_vertex_cut(g, a, b);
    ASSERT_TRUE(lp.converged);
    EXPECT_NEAR(lp.value, flow.value, 1e-5)
        << "trial " << trial << " terminals " << pick[0] << "," << pick[1];
  }
}

}  // namespace
