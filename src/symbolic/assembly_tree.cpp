#include "symbolic/assembly_tree.hpp"

#include <algorithm>
#include <numeric>

#include "symbolic/symbolic.hpp"

namespace treemem {

namespace {

/// Union-find over etree columns; the representative carries the supernode
/// accumulators (η, and the top column whose count is µ).
class SupernodeForest {
 public:
  SupernodeForest(const std::vector<Index>& parent,
                  const std::vector<Index>& counts)
      : parent_(parent), counts_(counts),
        rep_(parent.size()), eta_(parent.size(), 1), top_(parent.size()) {
    std::iota(rep_.begin(), rep_.end(), Index{0});
    std::iota(top_.begin(), top_.end(), Index{0});
  }

  Index find(Index v) {
    Index root = v;
    while (rep_[static_cast<std::size_t>(root)] != root) {
      root = rep_[static_cast<std::size_t>(root)];
    }
    while (rep_[static_cast<std::size_t>(v)] != root) {
      const Index next = rep_[static_cast<std::size_t>(v)];
      rep_[static_cast<std::size_t>(v)] = root;
      v = next;
    }
    return root;
  }

  /// Merges the supernode of `child_col` into the supernode of `top_col`
  /// (which stays the representative top).
  void merge_into(Index top_col, Index child_col) {
    const Index a = find(top_col);
    const Index b = find(child_col);
    TM_ASSERT(a != b, "merging a supernode with itself");
    rep_[static_cast<std::size_t>(b)] = a;
    eta_[static_cast<std::size_t>(a)] += eta_[static_cast<std::size_t>(b)];
  }

  Index eta(Index v) { return eta_[static_cast<std::size_t>(find(v))]; }
  Index top(Index v) { return top_[static_cast<std::size_t>(find(v))]; }
  Index mu(Index v) {
    return counts_[static_cast<std::size_t>(top(v))];
  }

  /// Supernode parent column: etree parent of the top column.
  Index parent_col(Index v) {
    return parent_[static_cast<std::size_t>(top(v))];
  }

 private:
  const std::vector<Index>& parent_;
  const std::vector<Index>& counts_;
  std::vector<Index> rep_;
  std::vector<Index> eta_;
  std::vector<Index> top_;
};

}  // namespace

AssemblyTree amalgamate(const std::vector<Index>& parent,
                        const std::vector<Index>& counts,
                        const AssemblyTreeOptions& options) {
  const Index n = static_cast<Index>(parent.size());
  TM_CHECK(counts.size() == parent.size(),
           "amalgamate: counts/parent size mismatch");
  TM_CHECK(options.relax >= 0, "amalgamate: negative relax");
  TM_CHECK(n >= 1, "amalgamate: empty forest");
  for (Index j = 0; j < n; ++j) {
    TM_CHECK(counts[static_cast<std::size_t>(j)] >= 1,
             "amalgamate: column count below 1 at column " << j);
    const Index p = parent[static_cast<std::size_t>(j)];
    TM_CHECK(p == -1 || (p >= 0 && p < n && p != j),
             "amalgamate: bad parent " << p << " of " << j);
  }

  SupernodeForest forest(parent, counts);

  // Child lists of the elimination forest.
  std::vector<std::vector<Index>> children(static_cast<std::size_t>(n));
  std::vector<Index> roots;
  for (Index j = 0; j < n; ++j) {
    const Index p = parent[static_cast<std::size_t>(j)];
    if (p == -1) {
      roots.push_back(j);
    } else {
      children[static_cast<std::size_t>(p)].push_back(j);
    }
  }

  const std::vector<Index> post = etree_postorder(parent);

  // Perfect amalgamation: a node that is the only child of its parent and
  // whose parent's column has exactly one entry less is merged — these are
  // the fundamental supernodes the paper always realizes.
  if (options.perfect) {
    for (const Index j : post) {
      const Index p = parent[static_cast<std::size_t>(j)];
      if (p != -1 && children[static_cast<std::size_t>(p)].size() == 1 &&
          counts[static_cast<std::size_t>(p)] ==
              counts[static_cast<std::size_t>(j)] - 1) {
        forest.merge_into(p, j);
      }
    }
  }

  // Relaxed amalgamation, bottom-up: while the supernode holds no more than
  // `relax` amalgamated nodes (η ≤ relax), merge its densest child
  // supernode (largest µ; ties toward the smaller top column).
  if (options.relax > 0) {
    // Child supernodes of a supernode s = supernodes of etree children of
    // every member column... iterating over the top's subtree is enough if
    // we recompute lazily; we rebuild the candidate list on each merge.
    for (const Index j : post) {
      if (forest.top(j) != j) {
        continue;  // only process each supernode once, at its top column
      }
      while (forest.eta(j) <= options.relax) {
        // Collect current child supernodes of the supernode of j.
        Index best = -1;
        Index best_mu = -1;
        // Children of every member column are candidates; to stay O(subtree)
        // we scan the etree children of member columns. Members are exactly
        // the columns whose find() equals find(j); enumerating them all is
        // expensive, so we exploit that supernodes are connected: walk the
        // member set via a stack over etree children that are in-supernode.
        std::vector<Index> stack{j};
        while (!stack.empty()) {
          const Index m = stack.back();
          stack.pop_back();
          for (const Index c : children[static_cast<std::size_t>(m)]) {
            if (forest.find(c) == forest.find(j)) {
              stack.push_back(c);
            } else {
              const Index cmu = forest.mu(c);
              const Index ctop = forest.top(c);
              if (cmu > best_mu || (cmu == best_mu && ctop < best)) {
                best = ctop;
                best_mu = cmu;
              }
            }
          }
        }
        if (best == -1) {
          break;  // no child supernodes left
        }
        forest.merge_into(j, best);
      }
    }
  }

  // Materialize the supernode tree. The task Tree needs parents before
  // children, and in a postorder ancestors come last — so number the top
  // columns in *reverse* postorder.
  std::vector<Index> unique_tops;
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    if (forest.top(*it) == *it) {
      unique_tops.push_back(*it);
    }
  }

  AssemblyTree result;
  result.columns = n;
  result.has_virtual_root = roots.size() > 1;

  std::vector<NodeId> tree_id(static_cast<std::size_t>(n), kNoNode);
  std::vector<NodeId> tree_parent;
  std::vector<Weight> file;
  std::vector<Weight> work;

  if (result.has_virtual_root) {
    tree_parent.push_back(kNoNode);
    file.push_back(0);
    work.push_back(0);
    result.eta.push_back(0);
    result.mu.push_back(0);
  }

  for (const Index t : unique_tops) {
    const NodeId id = static_cast<NodeId>(tree_parent.size());
    tree_id[static_cast<std::size_t>(t)] = id;
    const Index parent_col = forest.parent_col(t);
    NodeId parent_id;
    if (parent_col == -1) {
      parent_id = result.has_virtual_root ? 0 : kNoNode;
    } else {
      parent_id = tree_id[static_cast<std::size_t>(forest.top(parent_col))];
      TM_ASSERT(parent_id != kNoNode,
                "assembly tree: parent supernode not yet numbered");
    }
    const Weight eta = forest.eta(t);
    const Weight mu = forest.mu(t);
    tree_parent.push_back(parent_id);
    file.push_back((mu - 1) * (mu - 1));
    work.push_back(eta * eta + 2 * eta * (mu - 1));
    result.eta.push_back(static_cast<Index>(eta));
    result.mu.push_back(static_cast<Index>(mu));
  }

  result.tree = Tree(std::move(tree_parent), std::move(file), std::move(work));
  result.supernode_of.assign(static_cast<std::size_t>(n), kNoNode);
  for (Index j = 0; j < n; ++j) {
    result.supernode_of[static_cast<std::size_t>(j)] =
        tree_id[static_cast<std::size_t>(forest.top(j))];
  }
  return result;
}

AssemblyTree build_assembly_tree(const SparsePattern& a,
                                 const AssemblyTreeOptions& options) {
  TM_CHECK(a.is_square(), "build_assembly_tree: pattern must be square");
  TM_CHECK(a.is_symmetric(),
           "build_assembly_tree: pattern must be symmetric (symmetrize first)");
  TM_CHECK(a.has_full_diagonal(),
           "build_assembly_tree: pattern must have a full diagonal");
  const std::vector<Index> parent = elimination_tree(a);
  const std::vector<Index> counts = column_counts(a, parent);
  AssemblyTree result = amalgamate(parent, counts, options);
  result.pattern = a;
  result.factor_pattern = factor_pattern(a, parent, counts);

  // Member lists: a counting sort of the columns by supernode, ascending
  // within each.
  const Index n = a.cols();
  result.member_ptr.assign(static_cast<std::size_t>(result.tree.size()) + 1, 0);
  for (const NodeId s : result.supernode_of) {
    ++result.member_ptr[static_cast<std::size_t>(s) + 1];
  }
  std::partial_sum(result.member_ptr.begin(), result.member_ptr.end(),
                   result.member_ptr.begin());
  result.members.resize(static_cast<std::size_t>(n));
  std::vector<Index> cursor(result.member_ptr.begin(),
                            result.member_ptr.end() - 1);
  for (Index j = 0; j < n; ++j) {
    const NodeId s = result.supernode_of[static_cast<std::size_t>(j)];
    result.members[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(s)]++)] = j;
  }
  return result;
}

}  // namespace treemem
