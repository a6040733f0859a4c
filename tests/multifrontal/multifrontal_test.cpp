// Tests for the numerical multifrontal engine: factorization correctness
// against dense references, the live-memory/abstract-model correspondence,
// traversal independence, the disk model, and execution traces.
#include <gtest/gtest.h>

#include <cmath>

#include "core/check.hpp"
#include "core/liu.hpp"
#include "core/minio.hpp"
#include "core/minmem.hpp"
#include "core/postorder.hpp"
#include "core/trace.hpp"
#include "multifrontal/disk_model.hpp"
#include "multifrontal/numeric.hpp"
#include "order/ordering.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "symbolic/assembly_tree.hpp"
#include "symbolic/symbolic.hpp"
#include "tree/generators.hpp"

namespace treemem {
namespace {

/// End-to-end helper: SPD matrix on a pattern, ordering, assembly tree,
/// factorization along the given planner's traversal.
struct Pipeline {
  SymmetricMatrix matrix;          // permuted
  AssemblyTree assembly;
  MultifrontalResult result;
};

Pipeline run_pipeline(const SparsePattern& raw, std::uint64_t seed,
                      Index relax, bool use_optimal_traversal) {
  const SparsePattern sym = symmetrize(raw);
  const SymmetricMatrix a = make_spd_matrix(sym, seed);
  const std::vector<Index> perm = min_degree_order(sym);
  const SymmetricMatrix permuted = a.permuted(perm);

  AssemblyTreeOptions options;
  options.relax = relax;
  AssemblyTree assembly = build_assembly_tree(permuted.pattern(), options);

  const Traversal order =
      use_optimal_traversal
          ? reverse_traversal(minmem_optimal(assembly.tree).order)
          : reverse_traversal(best_postorder(assembly.tree).order);
  MultifrontalResult result =
      multifrontal_cholesky(permuted, assembly, order);
  return Pipeline{permuted, std::move(assembly), std::move(result)};
}

TEST(SymmetricMatrix, ValueAccessAndPermutation) {
  const SparsePattern p = symmetrize(gen::grid2d(3, 3));
  const SymmetricMatrix a = make_spd_matrix(p, 42);
  EXPECT_GT(a.value_of(0, 0), 1.0);  // dominant diagonal
  EXPECT_EQ(a.value_of(0, 1), a.value_of(1, 0));
  EXPECT_EQ(a.value_of(0, 8), 0.0);  // far-away grid points

  Prng prng(3);
  const auto perm = random_order(p.cols(), prng);
  const SymmetricMatrix b = a.permuted(perm);
  const auto inv = invert_permutation(perm);
  for (Index j = 0; j < p.cols(); ++j) {
    for (const Index r : p.column(j)) {
      EXPECT_EQ(b.value_of(inv[static_cast<std::size_t>(r)],
                           inv[static_cast<std::size_t>(j)]),
                a.value_of(r, j));
    }
  }
}

TEST(SymmetricMatrix, RejectsAsymmetricValues) {
  const SparsePattern p =
      SparsePattern::from_coo(2, 2, {{0, 0}, {1, 1}, {0, 1}, {1, 0}});
  // values order: col0: (0,0),(1,0); col1: (0,1),(1,1)
  EXPECT_THROW(SymmetricMatrix(p, {1.0, 2.0, 3.0, 1.0}), Error);
  EXPECT_NO_THROW(SymmetricMatrix(p, {1.0, 2.0, 2.0, 1.0}));
}

class FactorizationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FactorizationSweep, ResidualTinyAcrossPatternsAndRelax) {
  const std::uint64_t seed = GetParam();
  Prng prng(seed * 101);
  const SparsePattern patterns[] = {
      gen::grid2d(7, 7),
      gen::grid3d(4, 4, 3),
      gen::random_symmetric(60, 3.0, prng),
      gen::banded(50, 4, 0.6, prng),
  };
  for (const auto& raw : patterns) {
    for (const Index relax : {0, 1, 4}) {
      const Pipeline pipe = run_pipeline(raw, seed, relax, true);
      const double residual = relative_residual(pipe.matrix, pipe.result.factor);
      EXPECT_LT(residual, 1e-12)
          << "seed=" << seed << " relax=" << relax << " n=" << raw.cols();
    }
  }
}

TEST_P(FactorizationSweep, TraversalDoesNotChangeTheFactor) {
  const std::uint64_t seed = GetParam();
  const SparsePattern raw = gen::grid2d(6, 6);
  const Pipeline with_optimal = run_pipeline(raw, seed, 2, true);
  const Pipeline with_postorder = run_pipeline(raw, seed, 2, false);
  ASSERT_EQ(with_optimal.result.factor.values.size(),
            with_postorder.result.factor.values.size());
  for (std::size_t i = 0; i < with_optimal.result.factor.values.size(); ++i) {
    EXPECT_NEAR(with_optimal.result.factor.values[i],
                with_postorder.result.factor.values[i], 1e-9);
  }
}

TEST_P(FactorizationSweep, SolveRecoversKnownSolution) {
  const std::uint64_t seed = GetParam();
  const Pipeline pipe = run_pipeline(gen::grid2d(8, 8), seed, 4, true);
  const Index n = pipe.matrix.size();
  // b = A * ones  =>  solution should be ones.
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  for (Index j = 0; j < n; ++j) {
    for (const Index r : pipe.matrix.pattern().column(j)) {
      b[static_cast<std::size_t>(r)] += pipe.matrix.value_of(r, j);
    }
  }
  const std::vector<double> x = solve_with_factor(pipe.result.factor, b);
  for (const double xi : x) {
    EXPECT_NEAR(xi, 1.0, 1e-9);
  }
}

TEST_P(FactorizationSweep, LiveMemoryMatchesAbstractModelForPerfectSupernodes) {
  // With relax=0 every front is exactly (eta+mu-1)^2, so the engine's live
  // entries at each step must equal the abstract in-tree transient of the
  // weighted assembly tree — the model and the machine agree exactly.
  const std::uint64_t seed = GetParam();
  Prng prng(seed * 709);
  const SparsePattern patterns[] = {gen::grid2d(6, 6),
                                    gen::random_symmetric(50, 3.0, prng)};
  for (const auto& raw : patterns) {
    const SparsePattern sym = symmetrize(raw);
    const SymmetricMatrix a = make_spd_matrix(sym, seed);
    const std::vector<Index> perm = min_degree_order(sym);
    const SymmetricMatrix permuted = a.permuted(perm);
    AssemblyTreeOptions options;
    options.relax = 0;
    const AssemblyTree assembly = build_assembly_tree(permuted.pattern(), options);

    const Traversal bottom_up =
        reverse_traversal(best_postorder(assembly.tree).order);
    const MultifrontalResult run =
        multifrontal_cholesky(permuted, assembly, bottom_up);
    EXPECT_EQ(run.peak_live_entries,
              in_tree_traversal_peak(assembly.tree, bottom_up))
        << "seed=" << seed << " n=" << sym.cols();
  }
}

TEST_P(FactorizationSweep, RelaxedFrontsNeverExceedTheModel) {
  const std::uint64_t seed = GetParam();
  const SparsePattern sym = symmetrize(gen::grid2d(7, 7));
  const SymmetricMatrix a = make_spd_matrix(sym, seed);
  const std::vector<Index> perm = min_degree_order(sym);
  const SymmetricMatrix permuted = a.permuted(perm);
  for (const Index relax : {1, 4, 16}) {
    AssemblyTreeOptions options;
    options.relax = relax;
    const AssemblyTree assembly = build_assembly_tree(permuted.pattern(), options);
    const Traversal bottom_up =
        reverse_traversal(best_postorder(assembly.tree).order);
    const MultifrontalResult run =
        multifrontal_cholesky(permuted, assembly, bottom_up);
    // Relaxed fronts hold exactly the model's η + µ − 1 rows (the padding
    // is explicit zeros inside them), so measured memory is the model's.
    EXPECT_EQ(run.peak_live_entries,
              in_tree_traversal_peak(assembly.tree, bottom_up))
        << "relax=" << relax;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactorizationSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Multifrontal, RejectsBadTraversals) {
  const Pipeline pipe = run_pipeline(gen::grid2d(4, 4), 1, 1, true);
  Traversal top_down = reverse_traversal(
      Traversal(pipe.result.live_after_step.size(), 0));  // bogus
  EXPECT_THROW(
      multifrontal_cholesky(pipe.matrix, pipe.assembly, top_down), Error);
}

TEST(Multifrontal, RejectsIndefiniteMatrix) {
  const SparsePattern sym = symmetrize(gen::grid2d(3, 3));
  SymmetricMatrix spd = make_spd_matrix(sym, 7);
  // Flip the sign of every value: negative definite now.
  std::vector<double> values;
  for (Index j = 0; j < sym.cols(); ++j) {
    for (const Index r : sym.column(j)) {
      values.push_back(-spd.value_of(r, j));
    }
  }
  const SymmetricMatrix negated(sym, std::move(values));
  AssemblyTreeOptions options;
  const AssemblyTree assembly = build_assembly_tree(sym, options);
  const Traversal bottom_up =
      reverse_traversal(best_postorder(assembly.tree).order);
  EXPECT_THROW(multifrontal_cholesky(negated, assembly, bottom_up), Error);
}

TEST(Multifrontal, RejectsAnAssemblyTreeOfAnotherPattern) {
  // Same n, other pattern: the 9-point grid's supernodes have other η and µ
  // than the 5-point grid's factor, so the engine refuses the tree.
  const SymmetricMatrix a = make_spd_matrix(symmetrize(gen::grid2d(5, 5)), 3);
  const AssemblyTree foreign =
      build_assembly_tree(symmetrize(gen::grid2d(5, 5, true)));
  ASSERT_EQ(foreign.columns, a.size());
  EXPECT_THROW(FrontalEngine engine(a, foreign), Error);
}

TEST(Multifrontal, RefusesATreeWithoutFactorStructure) {
  // amalgamate() sees only the forest and the counts, so its tree carries
  // no factor pattern and no member lists: the engine has nothing to read
  // the fronts off and must refuse it rather than rebuild them.
  const SparsePattern pattern = symmetrize(gen::grid2d(5, 5));
  const SymmetricMatrix a = make_spd_matrix(pattern, 3);
  const std::vector<Index> parent = elimination_tree(pattern);
  const AssemblyTree bare = amalgamate(parent, column_counts(pattern, parent));
  ASSERT_EQ(bare.columns, a.size());
  EXPECT_TRUE(bare.members.empty());
  EXPECT_THROW(FrontalEngine engine(a, bare), Error);
  const Traversal bottom_up =
      reverse_traversal(best_postorder(bare.tree).order);
  EXPECT_THROW(multifrontal_cholesky(a, bare, bottom_up), Error);
}

TEST(Multifrontal, FlopsArePositiveAndScaleWithFill) {
  const Pipeline small = run_pipeline(gen::grid2d(6, 6), 1, 4, true);
  const Pipeline large = run_pipeline(gen::grid2d(12, 12), 1, 4, true);
  EXPECT_GT(small.result.flops, 0);
  EXPECT_GT(large.result.flops, 4 * small.result.flops);
}

// ---------------------------------------------------------------------------
// Disk model
// ---------------------------------------------------------------------------

TEST(DiskModel, TimeAccountsLatencyAndVolume) {
  const Tree tree = gen::star(3, 1000, 0);
  IoSchedule schedule;
  schedule.order = {0, 1, 2, 3};
  schedule.writes.push_back({1, 3});
  DiskModel model;
  model.latency_s = 0.01;
  model.bandwidth_entries_s = 1e6;
  // one write + one read: 2 * (0.01 + 1000/1e6)
  EXPECT_NEAR(io_time_s(tree, schedule, model), 2 * (0.01 + 1e-3), 1e-12);
}

TEST(DiskModel, LatencyCanReorderHeuristics) {
  // Eviction need of 5 against resident files {2,2,7}: FirstFit writes one
  // file of 7 (volume 7, 1 op); LSNF writes 2+2+7 (volume 11, 3 ops).
  // By volume LSNF is worse; with a latency-dominated disk the gap widens.
  TreeBuilder b;
  const NodeId root = b.add_root(0, 0);
  const NodeId a1 = b.add_child(root, 2, 0);
  const NodeId a2 = b.add_child(root, 2, 0);
  const NodeId a3 = b.add_child(root, 7, 0);
  const NodeId e = b.add_child(root, 6, 0);
  b.add_child(a1, 1, 0);
  b.add_child(a2, 1, 0);
  b.add_child(a3, 1, 0);
  b.add_child(e, 6, 0);
  const Tree tree = std::move(b).build();
  const Traversal order{0, 4, 8, 3, 7, 2, 6, 1, 5};
  const Weight memory = 2 + 2 + 7 + 12 - 5;

  const MinIoResult ff =
      minio_heuristic(tree, order, memory, EvictionPolicy::kFirstFit);
  const MinIoResult lsnf =
      minio_heuristic(tree, order, memory, EvictionPolicy::kLsnf);
  DiskModel latency_heavy;
  latency_heavy.latency_s = 1.0;
  latency_heavy.bandwidth_entries_s = 1e9;
  EXPECT_LT(io_time_s(tree, ff, latency_heavy),
            io_time_s(tree, lsnf, latency_heavy) / 2.5);
}

// ---------------------------------------------------------------------------
// Execution traces
// ---------------------------------------------------------------------------

TEST(Trace, MatchesCheckerPeak) {
  Prng prng(11);
  gen::RandomTreeOptions options;
  const Tree tree = gen::random_tree(40, options, prng);
  const TraversalResult liu = liu_optimal(tree);
  const ExecutionTrace trace = trace_execution(tree, liu.order);
  EXPECT_EQ(trace.peak, liu.peak);
  EXPECT_EQ(trace.steps.size(), static_cast<std::size_t>(tree.size()));
  EXPECT_EQ(trace.steps.back().resident_after, 0);
  EXPECT_EQ(trace.io_volume, 0);
}

TEST(Trace, RecordsEvictionsAndReadbacks) {
  // tiny_mixed-style tree, forced to evict node 1's file at step 1.
  TreeBuilder b;
  const NodeId root = b.add_root(0, 1);
  const NodeId left = b.add_child(root, 4, 0);
  const NodeId right = b.add_child(root, 6, 2);
  b.add_child(left, 2, 0);
  b.add_child(right, 3, 1);
  const Tree tree = std::move(b).build();

  const Traversal order{0, 2, 4, 1, 3};
  const MinIoResult io =
      minio_heuristic(tree, order, 14, EvictionPolicy::kFirstFit);
  ASSERT_TRUE(io.feasible);
  const ExecutionTrace trace = trace_execution(tree, io.schedule);
  EXPECT_EQ(trace.io_volume, io.io_volume);
  EXPECT_LE(trace.peak, 14 + 0);  // fits in the budget by construction
  // Node 1's file (size 4) leaves at step 1 and returns at its execution.
  EXPECT_EQ(trace.steps[1].written, 4);
  bool read_back_seen = false;
  for (const TraceStep& step : trace.steps) {
    if (step.node == 1) {
      EXPECT_EQ(step.read_back, 4);
      read_back_seen = true;
    }
  }
  EXPECT_TRUE(read_back_seen);
}

TEST(Trace, RendersProfileWithPeakAnnotation) {
  const Tree tree = gen::star(4, 10, 2);
  const ExecutionTrace trace =
      trace_execution(tree, Traversal{0, 1, 2, 3, 4});
  const std::string plot = render_memory_profile(trace);
  EXPECT_NE(plot.find("peak 42"), std::string::npos);  // 0 + 2 + 4*10
  EXPECT_NE(plot.find("transient memory"), std::string::npos);
}

TEST(Trace, RejectsInvalidSchedules) {
  const Tree tree = gen::star(2, 5, 0);
  EXPECT_THROW(trace_execution(tree, Traversal{1, 0, 2}), Error);
  IoSchedule bad;
  bad.order = {0, 1, 2};
  bad.writes.push_back({0, 2});  // unproduced file
  EXPECT_THROW(trace_execution(tree, bad), Error);
}

}  // namespace
}  // namespace treemem
