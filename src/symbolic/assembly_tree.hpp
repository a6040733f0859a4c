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
#pragma once

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
};

/// Builds the assembly tree of a symmetric pattern (apply symmetrize()
/// first; the pattern must have a full diagonal). A non-null `factor_nnz`
/// receives nnz(L), the sum of the column counts the tree is built from, so
/// a caller that needs both runs the elimination tree and counts once.
AssemblyTree build_assembly_tree(const SparsePattern& a,
                                 const AssemblyTreeOptions& options = {},
                                 std::int64_t* factor_nnz = nullptr);

/// Amalgamation on a precomputed elimination forest: exposed separately so
/// tests can drive it with handcrafted parents/counts.
AssemblyTree amalgamate(const std::vector<Index>& parent,
                        const std::vector<Index>& counts,
                        const AssemblyTreeOptions& options = {});

}  // namespace treemem
