// Symbolic Cholesky factorization: elimination trees, postorderings and
// column counts of the factor L — the paper's `symbfact` substrate
// (Section VI-B).
//
// All routines take a *symmetric* pattern with a full diagonal (apply
// symmetrize() first) and treat it as the pattern of A in A = LLᵀ.
#pragma once

#include "sparse/pattern.hpp"

namespace treemem {

/// Elimination tree (Liu's algorithm with path compression): parent[j] is
/// the parent of column j, or -1 for roots. The result is a forest when the
/// graph of A is disconnected. O(nnz · α(n)).
std::vector<Index> elimination_tree(const SparsePattern& a);

/// A postorder of the forest `parent` (children before parents, each
/// subtree contiguous). Deterministic: children are visited in increasing
/// index order.
std::vector<Index> etree_postorder(const std::vector<Index>& parent);

/// Column counts of L: counts[j] = number of nonzeros in column j of L
/// *including* the diagonal — the µ of the paper's weight formulas.
/// Exact, via row-subtree traversals with marking; O(nnz(L)).
std::vector<Index> column_counts(const SparsePattern& a,
                                 const std::vector<Index>& parent);

/// Pattern of L (including the diagonal) from the elimination forest and
/// the exact column counts, built along the fundamental supernode chains
/// (a column whose parent has it as only child and one entry less). On a
/// chain c_1 < … < c_k, L(:,c_i) = {c_i, …, c_k} ∪ S with S = L(:,c_k)
/// below the diagonal, so each chain's S is one sorted merge (c_1's column
/// of A and its child chains' S) and every column is written as two
/// contiguous runs. build_assembly_tree runs it once per pattern; the
/// result equals symbolic_cholesky(a).
SparsePattern factor_pattern(const SparsePattern& a,
                             const std::vector<Index>& parent,
                             const std::vector<Index>& counts);

/// Full symbolic factorization (pattern of L, including the diagonal),
/// by merging each column with its elimination-tree children. The test
/// oracle for factor_pattern; no library path calls it.
SparsePattern symbolic_cholesky(const SparsePattern& a);

/// nnz(L) = sum of column counts (includes the diagonal).
std::int64_t factor_nnz(const SparsePattern& a);

}  // namespace treemem
