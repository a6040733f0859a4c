// The facade suite (solver/solver.hpp): the analyze → plan → factorize →
// solve state machine, symbolic-state reuse across repeated numeric
// factorizations, and the one-env-layer configuration path.
//
// Pinned properties:
//   * reuse is exact: a Solver analyzed once and factorized with a second
//     value set produces a factor bit-identical to a fresh end-to-end run
//     on that value set, across a 24-instance corpus (3 seeds × 4 pattern
//     families × 2 orderings) at w ∈ {1, 4} — the analyze/factorize
//     amortization production solvers rely on;
//   * SolverStats memory ledger: measured ≤ modeled ≤ budget on every
//     parallel run, and the facade's factor equals the hand-stitched
//     pipeline (order/ → symbolic/ → multifrontal/) bit for bit;
//   * wrong-phase-order calls throw clean errors naming the missing phase;
//   * multi-RHS solve equals per-column solve_with_factor on the permuted
//     system exactly, and solutions satisfy A x ≈ b in the original
//     ordering;
//   * out-of-core plans (budget below the in-core optimum) execute through
//     the facade and still reproduce the in-core factor bit for bit;
//   * kAuto's engine rule: a zero-slack plan (MinMem at the in-core
//     optimum) runs serially at exactly its planned peak, while a budget
//     with slack, or none, gets the parallel engine;
//   * solver_options_from_env applies TREEMEM_ORDERING / TREEMEM_TRAVERSAL
//     / TREEMEM_BUDGET / TREEMEM_WORKERS strictly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/postorder.hpp"
#include "multifrontal/numeric.hpp"
#include "solver/solver.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "symbolic/assembly_tree.hpp"
#include "order/ordering.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

/// Pattern families chosen for their assembly-tree shapes (same recipe as
/// the numeric_parallel suite): narrow banded → chain-like, arrowhead →
/// star-like, random → irregular, grid → realistic FEM-ish.
std::vector<SparsePattern> pattern_family(std::uint64_t seed) {
  Prng prng(seed * 9176);
  return {
      symmetrize(gen::banded(60, 2, 1.0, prng)),
      symmetrize(gen::arrowhead(48, 6)),
      symmetrize(gen::random_symmetric(64, 3.0, prng)),
      symmetrize(gen::grid2d(8, 8)),
  };
}

AnalyzeOptions analyze_options(OrderingChoice ordering, Index relax) {
  AnalyzeOptions options;
  options.ordering = ordering;
  options.relax = relax;
  return options;
}

FactorizeOptions workers_options(int workers) {
  FactorizeOptions options;
  options.workers = workers;
  return options;
}

// ---------------------------------------------------------------------------
// Reuse: analyze once, factorize many — bit-identical to fresh runs
// ---------------------------------------------------------------------------

class SolverReuseSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverReuseSweep, SecondFactorizationMatchesFreshRunBitForBit) {
  // 3 seeds × 4 patterns × 2 orderings = 24 instances ≥ the 20 the
  // acceptance criteria demand, each exercised at w ∈ {1, 4}.
  const std::uint64_t seed = GetParam();
  const Index relax_by_seed[] = {0, 1, 4};
  const Index relax = relax_by_seed[seed % 3];
  for (const SparsePattern& pattern : pattern_family(seed)) {
    const SymmetricMatrix first_values = make_spd_matrix(pattern, seed);
    const SymmetricMatrix second_values =
        make_spd_matrix(pattern, seed + 1000);
    for (const OrderingChoice ordering :
         {OrderingChoice::kMinDegree, OrderingChoice::kNestedDissection}) {
      SCOPED_TRACE(std::string(to_string(ordering)) + " seed " +
                   std::to_string(seed));
      for (const int workers : {1, 4}) {
        Solver reused;
        reused.analyze(pattern, analyze_options(ordering, relax)).plan();
        reused.factorize(first_values, workers_options(workers));
        const std::vector<double> first_factor = reused.factor().values;
        ASSERT_EQ(reused.stats().factorizations, 1);

        // Second value set on the cached symbolic state...
        reused.factorize(second_values, workers_options(workers));
        const std::vector<double> second_factor = reused.factor().values;
        ASSERT_EQ(reused.stats().factorizations, 2);

        // ...must equal a fresh end-to-end run bit for bit.
        Solver fresh;
        fresh.analyze(pattern, analyze_options(ordering, relax)).plan();
        fresh.factorize(second_values, workers_options(workers));
        EXPECT_EQ(second_factor, fresh.factor().values) << "w=" << workers;

        // And going back to the first value set reproduces the first run.
        reused.factorize(first_values, workers_options(workers));
        EXPECT_EQ(reused.factor().values, first_factor) << "w=" << workers;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverReuseSweep,
                         ::testing::Range<std::uint64_t>(1, 4));

// ---------------------------------------------------------------------------
// Memory ledger + parity with the hand-stitched pipeline
// ---------------------------------------------------------------------------

TEST(SolverStatsLedger, MeasuredWithinModeledWithinBudgetOnParallelRuns) {
  for (const std::uint64_t seed : {2ULL, 9ULL}) {
    for (const SparsePattern& pattern : pattern_family(seed)) {
      const SymmetricMatrix matrix = make_spd_matrix(pattern, seed);
      Solver solver;
      solver.analyze(pattern,
                     analyze_options(OrderingChoice::kMinDegree, 1));
      // A budget no reachable occupancy can exceed (all files resident
      // plus a full transient per worker): admission never blocks.
      const Tree& tree = solver.assembly().tree;
      Weight all_files = 0;
      for (NodeId i = 0; i < tree.size(); ++i) {
        all_files += tree.file_size(i);
      }
      PlanOptions plan;
      plan.memory_budget = all_files + 4 * tree.max_mem_req();
      solver.plan(plan);

      FactorizeOptions factorize = workers_options(4);
      factorize.engine = FactorizeEngine::kParallel;
      solver.factorize(matrix, factorize);
      const SolverStats& stats = solver.stats();
      EXPECT_EQ(stats.engine, "parallel");
      EXPECT_FALSE(stats.stall_fallback);
      EXPECT_LE(stats.measured_peak_entries, stats.modeled_peak_entries);
      EXPECT_LE(stats.modeled_peak_entries, stats.memory_budget);
      EXPECT_GT(stats.flops, 0);
    }
  }
}

TEST(SolverParity, FacadeEqualsHandStitchedPipelineBitForBit) {
  const SparsePattern pattern = symmetrize(gen::grid2d(9, 9));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 77);

  // The old five-module stitching the facade replaced.
  const std::vector<Index> perm = min_degree_order(pattern);
  const SymmetricMatrix permuted = matrix.permuted(perm);
  AssemblyTreeOptions tree_options;
  tree_options.relax = 2;
  const AssemblyTree assembly =
      build_assembly_tree(permuted.pattern(), tree_options);
  const MultifrontalResult stitched = multifrontal_cholesky(
      permuted, assembly, reverse_traversal(best_postorder(assembly.tree).order),
      KernelConfig{});

  Solver solver;
  PlanOptions plan;
  plan.policy = TraversalPolicy::kPostorder;
  solver.analyze(pattern, analyze_options(OrderingChoice::kMinDegree, 2))
      .plan(plan)
      .factorize(matrix, workers_options(1));
  EXPECT_EQ(solver.factor().values, stitched.factor.values);
  EXPECT_EQ(solver.stats().flops, stitched.flops);
  EXPECT_EQ(solver.stats().measured_peak_entries, stitched.peak_live_entries);
  EXPECT_EQ(solver.permutation(), perm);
}

TEST(SolverParity, FactorIsTraversalIndependent) {
  // The engine's factor is schedule-exact, so re-planning with a different
  // traversal must not change a bit — only the memory profile moves.
  const SparsePattern pattern = symmetrize(gen::grid2d(8, 8));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 5);
  Solver solver;
  solver.analyze(pattern, analyze_options(OrderingChoice::kMinDegree, 0));

  std::vector<double> reference;
  for (const TraversalPolicy policy :
       {TraversalPolicy::kPostorder, TraversalPolicy::kLiu,
        TraversalPolicy::kMinMem}) {
    PlanOptions plan;
    plan.policy = policy;
    solver.plan(plan).factorize(matrix, workers_options(1));
    EXPECT_LE(solver.stats().measured_peak_entries,
              solver.stats().planned_peak_entries)
        << to_string(policy);
    if (reference.empty()) {
      reference = solver.factor().values;
    } else {
      EXPECT_EQ(solver.factor().values, reference) << to_string(policy);
    }
  }
  // MinMem can only improve on the best postorder (paper's Theorem 1 gap).
  EXPECT_LE(solver.stats().in_core_optimum, solver.stats().best_postorder_peak);
}

// ---------------------------------------------------------------------------
// State machine: wrong-phase calls throw clean errors
// ---------------------------------------------------------------------------

TEST(SolverStateMachine, WrongPhaseOrderThrowsCleanErrors) {
  const SparsePattern pattern = symmetrize(gen::grid2d(5, 5));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 1);

  Solver solver;
  EXPECT_THROW(solver.plan(), Error);
  EXPECT_THROW(solver.factorize(matrix), Error);
  EXPECT_THROW(solver.solve(std::vector<double>(25, 1.0)), Error);
  EXPECT_THROW(solver.permutation(), Error);
  EXPECT_THROW(solver.assembly(), Error);
  EXPECT_THROW(solver.planned_traversal(), Error);
  EXPECT_THROW(solver.factor(), Error);

  solver.analyze(pattern);
  EXPECT_THROW(solver.factorize(matrix), Error);  // plan() missing
  EXPECT_THROW(solver.solve(std::vector<double>(25, 1.0)), Error);

  solver.plan();
  EXPECT_THROW(solver.solve(std::vector<double>(25, 1.0)), Error);
  solver.factorize(matrix);
  EXPECT_EQ(solver.solve(std::vector<double>(25, 1.0)).size(), 25u);

  // The error message names the missing phase.
  Solver fresh;
  try {
    fresh.plan();
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("analyze()"), std::string::npos);
  }

  // Re-analyzing invalidates the plan and the factor.
  solver.analyze(pattern);
  EXPECT_TRUE(solver.analyzed());
  EXPECT_FALSE(solver.planned());
  EXPECT_THROW(solver.factorize(matrix), Error);
}

TEST(SolverStateMachine, RejectsBadInputs) {
  Solver solver;
  // Unsymmetrized pattern: no diagonal, one triangle only.
  EXPECT_THROW(
      solver.analyze(SparsePattern::from_coo(3, 3, {{1, 0}, {2, 1}})), Error);
  // Non-square pattern.
  EXPECT_THROW(solver.analyze(SparsePattern::from_coo(2, 3, {{0, 0}})),
               Error);

  const SparsePattern pattern = symmetrize(gen::grid2d(5, 5));
  solver.analyze(pattern);
  PlanOptions plan;
  plan.memory_budget = 0;
  EXPECT_THROW(solver.plan(plan), Error);
  // Below max MemReq no schedule exists.
  plan.memory_budget = solver.assembly().tree.max_mem_req() - 1;
  EXPECT_THROW(solver.plan(plan), Error);

  solver.plan();
  // Mismatched matrix pattern.
  const SparsePattern other = symmetrize(gen::grid2d(6, 6));
  EXPECT_THROW(solver.factorize(make_spd_matrix(other, 3)), Error);
  // Wrong value count.
  EXPECT_THROW(solver.factorize(std::vector<double>(3, 1.0)), Error);
  // Negative workers.
  FactorizeOptions factorize;
  factorize.workers = -1;
  EXPECT_THROW(solver.factorize(make_spd_matrix(pattern, 3), factorize),
               Error);

  solver.factorize(make_spd_matrix(pattern, 3));
  // Wrong rhs size.
  EXPECT_THROW(solver.solve(std::vector<double>(7, 1.0)), Error);
}

TEST(Solver, PlanRejectsAnOutOfRangeTraversalPolicy) {
  // An unnamed policy value matches no planner: plan() must refuse it,
  // not "plan" an empty traversal with a zero peak for a pool to charge.
  Solver solver;
  solver.analyze(symmetrize(gen::grid2d(6, 6)));
  PlanOptions plan;
  plan.policy = static_cast<TraversalPolicy>(9);
  EXPECT_THROW(solver.plan(plan), Error);
  EXPECT_FALSE(solver.planned());
  plan.policy = static_cast<TraversalPolicy>(-1);
  EXPECT_THROW(solver.plan(plan), Error);
  EXPECT_FALSE(solver.planned());
  // The analysis survives: a valid policy still plans.
  solver.plan();
  EXPECT_GT(solver.stats().planned_peak_entries, 0);
}

// ---------------------------------------------------------------------------
// Solve: permutation round-trip, multi-RHS, residual
// ---------------------------------------------------------------------------

TEST(SolverSolve, MultiRhsMatchesPerColumnSolveWithFactor) {
  const SparsePattern pattern = symmetrize(gen::grid2d(7, 7));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 11);
  const std::size_t n = static_cast<std::size_t>(pattern.cols());

  Solver solver;
  solver.analyze(pattern).plan().factorize(matrix);

  Prng prng(303);
  std::vector<std::vector<double>> rhs(3, std::vector<double>(n));
  for (auto& column : rhs) {
    for (double& v : column) {
      v = 2.0 * prng.uniform_real() - 1.0;
    }
  }
  const std::vector<std::vector<double>> solutions = solver.solve(rhs);
  ASSERT_EQ(solutions.size(), rhs.size());
  EXPECT_EQ(solver.stats().rhs_solved, 3);

  const std::vector<Index>& perm = solver.permutation();
  for (std::size_t c = 0; c < rhs.size(); ++c) {
    // Per-column reference through the exported low-level entry point.
    std::vector<double> permuted_rhs(n);
    for (std::size_t k = 0; k < n; ++k) {
      permuted_rhs[k] = rhs[c][static_cast<std::size_t>(perm[k])];
    }
    const std::vector<double> y =
        solve_with_factor(solver.factor(), std::move(permuted_rhs));
    std::vector<double> expected(n);
    for (std::size_t k = 0; k < n; ++k) {
      expected[static_cast<std::size_t>(perm[k])] = y[k];
    }
    EXPECT_EQ(solutions[c], expected) << "column " << c;

    // And the solution actually solves A x = b in the original ordering.
    EXPECT_LT(relative_residual(matrix, solutions[c], rhs[c]), 1e-10)
        << "column " << c;
  }
}

// ---------------------------------------------------------------------------
// Out-of-core plans through the facade
// ---------------------------------------------------------------------------

TEST(SolverOutOfCore, TightBudgetPlansSpillsAndReproducesTheFactor) {
  // A mid-size grid under nested dissection leaves daylight between the
  // structural floor (max MemReq) and the in-core optimum — the regime
  // where a tight budget genuinely forces spills.
  const SparsePattern pattern = symmetrize(gen::grid2d(16, 16));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 23);

  Solver unconstrained;
  unconstrained
      .analyze(pattern, analyze_options(OrderingChoice::kNestedDissection, 1))
      .plan()
      .factorize(matrix, workers_options(1));
  const Weight optimum = unconstrained.stats().in_core_optimum;
  const Weight floor = unconstrained.assembly().tree.max_mem_req();
  ASSERT_LT(floor, optimum);

  Solver solver;
  solver.analyze(pattern,
                 analyze_options(OrderingChoice::kNestedDissection, 1));
  PlanOptions plan;
  plan.memory_budget = (floor + optimum) / 2;
  solver.plan(plan);
  EXPECT_NE(solver.stats().strategy.find("out-of-core"), std::string::npos);
  EXPECT_GT(solver.stats().planned_io_volume, 0);
  EXPECT_FALSE(solver.planned_io_schedule().writes.empty());

  // The parallel engine refuses an out-of-core plan explicitly...
  FactorizeOptions parallel;
  parallel.engine = FactorizeEngine::kParallel;
  EXPECT_THROW(solver.factorize(matrix, parallel), Error);

  // ...while kAuto routes to the serial spilling engine, which stays
  // within budget, reproduces the in-core factor bit for bit and reports
  // the same eliminations.
  solver.factorize(matrix, workers_options(4));
  EXPECT_EQ(solver.stats().engine, "out-of-core");
  EXPECT_LE(solver.stats().measured_peak_entries,
            solver.stats().memory_budget);
  EXPECT_TRUE(testing::bits_equal(solver.factor().values,
                                  unconstrained.factor().values));
  EXPECT_EQ(solver.stats().flops, unconstrained.stats().flops);

  // Solves work off the spilled-plan factor like any other.
  const std::vector<double> x =
      solver.solve(std::vector<double>(static_cast<std::size_t>(pattern.cols()), 1.0));
  EXPECT_EQ(x.size(), static_cast<std::size_t>(pattern.cols()));

  // Disallowing out-of-core turns the same budget into a clean error.
  plan.allow_out_of_core = false;
  EXPECT_THROW(solver.plan(plan), Error);

  // kAuto at w = 4 across the in-core regimes. MinMem at the in-core
  // optimum leaves zero slack: the serial engine runs the planned
  // traversal, never attempting a parallel schedule that could stall, and
  // its measured peak is the planned peak.
  plan = PlanOptions{};
  plan.policy = TraversalPolicy::kMinMem;
  plan.memory_budget = optimum;
  solver.plan(plan);
  ASSERT_EQ(solver.stats().planned_peak_entries, optimum);
  solver.factorize(matrix, workers_options(4));
  EXPECT_EQ(solver.stats().engine, "serial");
  EXPECT_FALSE(solver.stats().stall_fallback);
  EXPECT_EQ(solver.stats().measured_peak_entries, optimum);
  EXPECT_EQ(solver.factor().values, unconstrained.factor().values);

  // Any slack above the planned peak hands the run to the parallel engine.
  plan.memory_budget = optimum + optimum / 2;
  solver.plan(plan);
  solver.factorize(matrix, workers_options(4));
  EXPECT_EQ(solver.stats().engine, "parallel");
  EXPECT_EQ(solver.factor().values, unconstrained.factor().values);

  // So does an unbudgeted plan.
  solver.plan(PlanOptions{});
  solver.factorize(matrix, workers_options(4));
  EXPECT_EQ(solver.stats().engine, "parallel");
  EXPECT_EQ(solver.factor().values, unconstrained.factor().values);
}

// ---------------------------------------------------------------------------
// Environment overrides through the one strict layer
// ---------------------------------------------------------------------------

class SolverEnvGuard {
 public:
  SolverEnvGuard() {
    for (const char* name : kNames) {
      if (const char* value = std::getenv(name)) {
        saved_.emplace_back(name, value);
      }
      ::unsetenv(name);
    }
  }
  ~SolverEnvGuard() {
    for (const char* name : kNames) {
      ::unsetenv(name);
    }
    for (const auto& [name, value] : saved_) {
      ::setenv(name.c_str(), value.c_str(), 1);
    }
  }

 private:
  static constexpr const char* kNames[] = {
      "TREEMEM_ORDERING", "TREEMEM_TRAVERSAL", "TREEMEM_BUDGET",
      "TREEMEM_WORKERS", "TREEMEM_ADMISSION"};  // the last one is retired
  std::vector<std::pair<std::string, std::string>> saved_;
};

TEST(SolverOptionsEnv, AppliesAllKnobsStrictly) {
  SolverEnvGuard guard;
  // No overrides: compiled-in defaults pass through.
  const SolverOptions defaults = solver_options_from_env();
  EXPECT_EQ(defaults.analyze.ordering, OrderingChoice::kMinDegree);
  EXPECT_EQ(defaults.plan.policy, TraversalPolicy::kAuto);
  EXPECT_EQ(defaults.plan.memory_budget, kInfiniteWeight);
  EXPECT_EQ(defaults.factorize.workers, 0);

  ::setenv("TREEMEM_ORDERING", "nd", 1);
  ::setenv("TREEMEM_TRAVERSAL", "minmem", 1);
  ::setenv("TREEMEM_BUDGET", "123456", 1);
  ::setenv("TREEMEM_WORKERS", "8", 1);
  const SolverOptions options = solver_options_from_env();
  EXPECT_EQ(options.analyze.ordering, OrderingChoice::kNestedDissection);
  EXPECT_EQ(options.plan.policy, TraversalPolicy::kMinMem);
  EXPECT_EQ(options.plan.memory_budget, 123456);
  EXPECT_EQ(options.factorize.workers, 8);

  // TREEMEM_ADMISSION is no longer a knob: a leftover setting, even a
  // malformed one, changes nothing.
  ::setenv("TREEMEM_ADMISSION", "bogus", 1);
  EXPECT_EQ(solver_options_from_env().factorize.admission,
            AdmissionPolicy::kGreedy);
  ::unsetenv("TREEMEM_ADMISSION");

  // Malformed values throw instead of silently reconfiguring the run.
  ::setenv("TREEMEM_ORDERING", "metis", 1);
  EXPECT_THROW(solver_options_from_env(), Error);
  ::unsetenv("TREEMEM_ORDERING");
  ::setenv("TREEMEM_WORKERS", "many", 1);
  EXPECT_THROW(solver_options_from_env(), Error);
  ::unsetenv("TREEMEM_WORKERS");
  ::setenv("TREEMEM_BUDGET", "-5", 1);
  EXPECT_THROW(solver_options_from_env(), Error);
  ::unsetenv("TREEMEM_BUDGET");

  // A Solver built from env-derived options uses them end to end.
  ::setenv("TREEMEM_ORDERING", "natural", 1);
  const SparsePattern pattern = symmetrize(gen::grid2d(5, 5));
  Solver solver(solver_options_from_env());
  solver.analyze(pattern);
  EXPECT_EQ(solver.stats().ordering, "natural");
  const std::vector<Index>& perm = solver.permutation();
  for (Index k = 0; k < pattern.cols(); ++k) {
    EXPECT_EQ(perm[static_cast<std::size_t>(k)], k);
  }

  // A Solver NOT built from env-derived options is insulated from the
  // environment: even a malformed TREEMEM_WORKERS cannot reach its
  // factorize path (options flow only through SolverOptions).
  ::setenv("TREEMEM_WORKERS", "many", 1);
  Solver insulated;
  insulated.analyze(pattern).plan();
  FactorizeOptions parallel;
  parallel.engine = FactorizeEngine::kParallel;
  parallel.workers = 2;
  insulated.factorize(make_spd_matrix(pattern, 3), parallel);
  EXPECT_EQ(insulated.stats().engine, "parallel");
  EXPECT_EQ(insulated.stats().kernel, to_string(dispatched_isa()));
  ::unsetenv("TREEMEM_WORKERS");
}

// ---------------------------------------------------------------------------
// Stats bookkeeping
// ---------------------------------------------------------------------------

TEST(SolverStatsBookkeeping, PhaseTimersAndCountersBehave) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 7);
  Solver solver;
  solver.analyze(pattern).plan().factorize(matrix);
  const SolverStats& stats = solver.stats();
  EXPECT_EQ(stats.n, 36);
  EXPECT_EQ(stats.pattern_nnz, pattern.nnz());
  EXPECT_GE(stats.factor_nnz, pattern.nnz() / 2);  // fill only grows
  EXPECT_GT(stats.tree_nodes, 0);
  EXPECT_GE(stats.analyze_seconds, 0.0);
  EXPECT_GE(stats.plan_seconds, 0.0);
  EXPECT_GE(stats.factorize_seconds, 0.0);
  EXPECT_EQ(stats.factorizations, 1);
  EXPECT_EQ(stats.rhs_solved, 0);

  solver.solve(std::vector<double>(36, 1.0));
  EXPECT_EQ(solver.stats().rhs_solved, 1);

  // analyze() resets the cumulative counters.
  solver.analyze(pattern);
  EXPECT_EQ(solver.stats().factorizations, 0);
  EXPECT_EQ(solver.stats().rhs_solved, 0);
}

}  // namespace
}  // namespace treemem
