// Tests for the symbolic factorization substrate: elimination trees,
// postorder, column counts (validated against the explicit symbolic
// factor), amalgamation, assembly-tree weights and front row sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "order/ordering.hpp"
#include "sparse/generators.hpp"
#include "sparse/pattern.hpp"
#include "support/prng.hpp"
#include "symbolic/assembly_tree.hpp"
#include "symbolic/symbolic.hpp"

namespace treemem {
namespace {

/// Dense reference: Cholesky fill by explicit elimination on a boolean
/// matrix. Returns the lower-triangular pattern of L (including diagonal).
std::vector<std::vector<char>> dense_fill(const SparsePattern& a) {
  const Index n = a.cols();
  std::vector<std::vector<char>> m(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (Index j = 0; j < n; ++j) {
    for (const Index i : a.column(j)) {
      m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
    }
  }
  for (Index k = 0; k < n; ++k) {
    for (Index i = k + 1; i < n; ++i) {
      if (!m[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]) {
        continue;
      }
      for (Index j = k + 1; j <= i; ++j) {
        if (m[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)]) {
          m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
        }
      }
    }
  }
  return m;
}

SparsePattern random_spd_pattern(std::uint64_t seed, Index n, double density) {
  Prng prng(seed);
  return symmetrize(gen::random_symmetric(n, density, prng));
}

class SymbolicSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymbolicSweep, EtreeMatchesDenseDefinition) {
  // parent(j) = min { i > j : L_ij != 0 } per the dense fill.
  const std::uint64_t seed = GetParam();
  for (const Index n : {5, 12, 25}) {
    const SparsePattern a = random_spd_pattern(seed * 37 + n, n, 2.5);
    const auto fill = dense_fill(a);
    const std::vector<Index> parent = elimination_tree(a);
    for (Index j = 0; j < n; ++j) {
      Index expected = -1;
      for (Index i = j + 1; i < n; ++i) {
        if (fill[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
          expected = i;
          break;
        }
      }
      EXPECT_EQ(parent[static_cast<std::size_t>(j)], expected)
          << "seed=" << seed << " n=" << n << " col=" << j;
    }
  }
}

TEST_P(SymbolicSweep, ColumnCountsMatchDenseFill) {
  const std::uint64_t seed = GetParam();
  for (const Index n : {5, 12, 25, 60}) {
    const SparsePattern a = random_spd_pattern(seed * 53 + n, n, 3.0);
    const auto fill = dense_fill(a);
    const std::vector<Index> parent = elimination_tree(a);
    const std::vector<Index> counts = column_counts(a, parent);
    for (Index j = 0; j < n; ++j) {
      Index expected = 0;
      for (Index i = j; i < n; ++i) {
        expected += fill[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      }
      EXPECT_EQ(counts[static_cast<std::size_t>(j)], expected)
          << "seed=" << seed << " n=" << n << " col=" << j;
    }
  }
}

TEST_P(SymbolicSweep, SymbolicCholeskyMatchesDenseFill) {
  const std::uint64_t seed = GetParam();
  for (const Index n : {5, 12, 30}) {
    const SparsePattern a = random_spd_pattern(seed * 71 + n, n, 3.5);
    const auto fill = dense_fill(a);
    const SparsePattern l = symbolic_cholesky(a);
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < n; ++i) {
        const bool expected =
            i >= j && fill[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        EXPECT_EQ(l.has_entry(i, j), expected)
            << "seed=" << seed << " n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Symbolic, EtreeOfTridiagonalIsAChain) {
  Prng prng(1);
  const SparsePattern a = symmetrize(gen::banded(8, 1, 1.0, prng));
  const std::vector<Index> parent = elimination_tree(a);
  for (Index j = 0; j + 1 < 8; ++j) {
    EXPECT_EQ(parent[static_cast<std::size_t>(j)], j + 1);
  }
  EXPECT_EQ(parent[7], -1);
}

TEST(Symbolic, PostorderIsValidAndContiguous) {
  const SparsePattern a = symmetrize(gen::grid2d(6, 6));
  const std::vector<Index> parent = elimination_tree(a);
  const std::vector<Index> post = etree_postorder(parent);
  std::vector<Index> position(post.size());
  for (std::size_t k = 0; k < post.size(); ++k) {
    position[static_cast<std::size_t>(post[k])] = static_cast<Index>(k);
  }
  for (std::size_t j = 0; j < parent.size(); ++j) {
    if (parent[j] != -1) {
      EXPECT_LT(position[j], position[static_cast<std::size_t>(parent[j])]);
    }
  }
}

TEST(Symbolic, FactorNnzOnGrid) {
  const SparsePattern a = symmetrize(gen::grid2d(8, 8));
  const SparsePattern l = symbolic_cholesky(a);
  EXPECT_EQ(factor_nnz(a), l.nnz());
  EXPECT_GE(l.nnz(), a.nnz() / 2);  // at least the lower triangle of A
}

// ---------------------------------------------------------------------------
// Amalgamation
// ---------------------------------------------------------------------------

TEST(Amalgamation, PerfectMergesChainSupernode) {
  // A chain etree with counts decreasing by one at each parent is one
  // fundamental supernode: 0 <- 1 <- 2 with counts 3, 2, 1.
  const std::vector<Index> parent{1, 2, -1};
  const std::vector<Index> counts{3, 2, 1};
  AssemblyTreeOptions options;
  options.relax = 0;
  const AssemblyTree at = amalgamate(parent, counts, options);
  EXPECT_EQ(at.tree.size(), 1);
  EXPECT_EQ(at.eta[0], 3);
  EXPECT_EQ(at.mu[0], 1);  // mu of the top column
  // Frontal weights: eta^2 + 2*eta*(mu-1) = 9, CB = 0.
  EXPECT_EQ(at.tree.work_size(0), 9);
  EXPECT_EQ(at.tree.file_size(0), 0);
}

TEST(Amalgamation, NoMergeWhenCountsDoNotChain) {
  const std::vector<Index> parent{1, 2, -1};
  const std::vector<Index> counts{3, 1, 1};  // 1 != 3-1: no perfect merge
  AssemblyTreeOptions options;
  options.relax = 0;
  const AssemblyTree at = amalgamate(parent, counts, options);
  EXPECT_EQ(at.tree.size(), 3);
  // Node weights follow the formulas with eta=1.
  for (NodeId i = 0; i < at.tree.size(); ++i) {
    const Weight mu = at.mu[static_cast<std::size_t>(i)];
    EXPECT_EQ(at.tree.work_size(i), 1 + 2 * (mu - 1));
    EXPECT_EQ(at.tree.file_size(i), (mu - 1) * (mu - 1));
  }
}

TEST(Amalgamation, RelaxedMergesDensestChild) {
  // Root 4 with children 1 (subtree {0,1}) and 3 (subtree {2,3}).
  // Counts make child 3 denser than child 1.
  const std::vector<Index> parent{1, 4, 3, 4, -1};
  const std::vector<Index> counts{2, 4, 2, 6, 1};
  AssemblyTreeOptions options;
  options.relax = 1;
  options.perfect = false;
  const AssemblyTree at = amalgamate(parent, counts, options);
  // Supernode of column 4 should have absorbed column 3 (mu=6 > mu=4).
  EXPECT_EQ(at.supernode_of[4], at.supernode_of[3]);
  EXPECT_NE(at.supernode_of[4], at.supernode_of[1]);
}

TEST(Amalgamation, VirtualRootForForests) {
  // Two independent chains: columns {0,1} and {2,3}.
  const std::vector<Index> parent{1, -1, 3, -1};
  const std::vector<Index> counts{2, 1, 2, 1};
  AssemblyTreeOptions options;
  options.relax = 0;
  options.perfect = false;
  const AssemblyTree at = amalgamate(parent, counts, options);
  EXPECT_TRUE(at.has_virtual_root);
  EXPECT_EQ(at.tree.num_children(at.tree.root()), 2);
  EXPECT_EQ(at.tree.file_size(at.tree.root()), 0);
  EXPECT_EQ(at.tree.work_size(at.tree.root()), 0);
}

TEST(Amalgamation, HigherRelaxNeverGrowsTree) {
  const SparsePattern a = symmetrize(gen::grid2d(12, 12));
  Index last = std::numeric_limits<Index>::max();
  for (const Index relax : {0, 1, 2, 4, 16}) {
    AssemblyTreeOptions options;
    options.relax = relax;
    const AssemblyTree at = build_assembly_tree(a, options);
    EXPECT_LE(at.tree.size(), last) << "relax=" << relax;
    last = at.tree.size();
    // Every column maps to a live supernode.
    for (Index j = 0; j < a.cols(); ++j) {
      ASSERT_NE(at.supernode_of[static_cast<std::size_t>(j)], kNoNode);
    }
    // Eta sums to the matrix dimension.
    const Weight eta_sum =
        std::accumulate(at.eta.begin(), at.eta.end(), Weight{0});
    EXPECT_EQ(eta_sum, a.cols());
  }
}

TEST(Amalgamation, WeightsFollowPaperFormulas) {
  const SparsePattern a = symmetrize(gen::grid2d(9, 9));
  AssemblyTreeOptions options;
  options.relax = 4;
  const AssemblyTree at = build_assembly_tree(a, options);
  for (NodeId i = 0; i < at.tree.size(); ++i) {
    if (at.has_virtual_root && i == at.tree.root()) {
      continue;
    }
    const Weight eta = at.eta[static_cast<std::size_t>(i)];
    const Weight mu = at.mu[static_cast<std::size_t>(i)];
    ASSERT_GE(eta, 1);
    ASSERT_GE(mu, 1);
    EXPECT_EQ(at.tree.work_size(i), eta * eta + 2 * eta * (mu - 1));
    EXPECT_EQ(at.tree.file_size(i), (mu - 1) * (mu - 1));
  }
}

// A supernode is a connected etree subtree topped by its largest member, so
// the union of its members' factor columns is the members followed by
// L(:,top) below the diagonal: η + µ − 1 rows. FrontalEngine reads its front
// rows off that identity; the union here is the reference it replaced.
TEST(Amalgamation, FrontRowsAreMembersThenTopColumn) {
  std::vector<SparsePattern> patterns = {
      symmetrize(gen::grid2d(12, 12)), symmetrize(gen::grid2d(9, 9, true)),
      symmetrize(gen::grid3d(5, 5, 5, true))};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    patterns.push_back(random_spd_pattern(seed, 60, 3.0));
  }
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const SparsePattern& raw = patterns[p];
    const std::vector<std::vector<Index>> orders = {
        natural_order(raw.cols()), rcm_order(raw), min_degree_order(raw),
        nested_dissection_order(raw)};
    for (std::size_t o = 0; o < orders.size(); ++o) {
      const SparsePattern a = permute_symmetric(raw, orders[o]);
      const SparsePattern l = symbolic_cholesky(a);
      for (const Index relax : {0, 1, 4, 16}) {
        AssemblyTreeOptions options;
        options.relax = relax;
        const AssemblyTree at = build_assembly_tree(a, options);
        std::vector<std::vector<Index>> members(
            static_cast<std::size_t>(at.tree.size()));
        for (Index j = 0; j < a.cols(); ++j) {
          members[static_cast<std::size_t>(
                      at.supernode_of[static_cast<std::size_t>(j)])]
              .push_back(j);
        }
        for (std::size_t s = 0; s < members.size(); ++s) {
          const std::vector<Index>& cols = members[s];
          if (cols.empty()) {
            continue;  // the virtual root eliminates nothing
          }
          std::vector<Index> row_union;
          for (const Index j : cols) {
            const auto lc = l.column(j);
            row_union.insert(row_union.end(), lc.begin(), lc.end());
          }
          std::sort(row_union.begin(), row_union.end());
          row_union.erase(std::unique(row_union.begin(), row_union.end()),
                          row_union.end());
          std::vector<Index> expected = cols;
          const auto top = l.column(cols.back());
          expected.insert(expected.end(), top.begin() + 1, top.end());
          const std::string where = "pattern " + std::to_string(p) +
                                    " order " + std::to_string(o) +
                                    " relax " + std::to_string(relax) +
                                    " supernode " + std::to_string(s);
          ASSERT_EQ(row_union, expected) << where;
          EXPECT_EQ(static_cast<Index>(row_union.size()),
                    at.eta[s] + at.mu[s] - 1)
              << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace treemem
