// Assembly-tree construction: relaxed node amalgamation on the elimination
// tree and the paper's node/edge weight assignment (Section VI-B).
//
// Pipeline: symmetric pattern  →  elimination tree + column counts
//           →  perfect amalgamation (fundamental supernode chains)
//           →  relaxed amalgamation (up to `r` extra nodes per supernode,
//              densest child first)
//           →  task tree with
//                 n_i = η² + 2η(µ−1)   (frontal matrix minus the CB)
//                 f_i = (µ−1)²         (contribution block)
// where η is the number of eliminated variables in the supernode and µ the
// column count of its highest (closest-to-root) node. MemReq(i) is then the
// frontal matrix plus the children contribution blocks — the in-core
// multifrontal assembly requirement.
//
// build_assembly_tree also stores the factor's structure, built once per
// pattern from the same elimination tree and counts: the exact pattern of
// L (factor_pattern, along the fundamental chains) and each supernode's
// member columns. Every numeric factorization reads the fronts off it
// (multifrontal/numeric.hpp) and does no symbolic work of its own.
#pragma once

#include <span>

#include "sparse/pattern.hpp"
#include "tree/tree.hpp"

namespace treemem {

struct AssemblyTreeOptions {
  /// Allowed relaxed amalgamations per node (the paper uses 1, 2, 4 and 16).
  /// 0 performs only perfect amalgamation.
  Index relax = 1;
  /// Perform perfect (fundamental supernode) amalgamation first.
  bool perfect = true;
};

struct AssemblyTree {
  /// The task tree in the paper's model (out-tree; use in-tree reading for
  /// the multifrontal bottom-up direction).
  Tree tree;
  /// supernode_of[j]: tree node holding elimination-tree column j. The
  /// virtual root (present iff the elimination forest had several roots)
  /// holds no column.
  std::vector<NodeId> supernode_of;
  /// Eliminated variables per tree node (η); 0 for the virtual root.
  std::vector<Index> eta;
  /// Column count of the top variable per tree node (µ); 0 for the root.
  std::vector<Index> mu;
  /// Number of etree columns (original matrix dimension).
  Index columns = 0;
  bool has_virtual_root = false;

  // Factor structure (build_assembly_tree only; amalgamate() leaves these
  // empty, and FrontalEngine refuses such a tree).
  /// The symmetric pattern the tree was built on. FrontalEngine compares
  /// it exactly with the matrix it factors.
  SparsePattern pattern;
  /// Exact pattern of L, diagonal included. A supernode's front rows are
  /// its members followed by L(:,top) below the diagonal.
  SparsePattern factor_pattern;
  /// Member columns of supernode s, ascending, at
  /// members[member_ptr[s] .. member_ptr[s + 1]) (tree.size() + 1 offsets;
  /// the inverse of supernode_of).
  std::vector<Index> member_ptr;
  std::vector<Index> members;

  std::span<const Index> members_of(NodeId s) const {
    return {members.data() + member_ptr[static_cast<std::size_t>(s)],
            members.data() + member_ptr[static_cast<std::size_t>(s) + 1]};
  }
};

/// Builds the assembly tree of a symmetric pattern (apply symmetrize()
/// first; the pattern must have a full diagonal), with its factor
/// structure; nnz(L) is factor_pattern.nnz().
AssemblyTree build_assembly_tree(const SparsePattern& a,
                                 const AssemblyTreeOptions& options = {});

/// Amalgamation on a precomputed elimination forest: exposed separately so
/// tests can drive it with handcrafted parents/counts. The result has no
/// factor structure (no pattern to build it from).
AssemblyTree amalgamate(const std::vector<Index>& parent,
                        const std::vector<Index>& counts,
                        const AssemblyTreeOptions& options = {});

}  // namespace treemem
