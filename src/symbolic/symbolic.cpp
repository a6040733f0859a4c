#include "symbolic/symbolic.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <span>

namespace treemem {

std::vector<Index> elimination_tree(const SparsePattern& a) {
  TM_CHECK(a.is_square(), "elimination_tree: pattern must be square");
  const Index n = a.cols();
  std::vector<Index> parent(static_cast<std::size_t>(n), -1);
  std::vector<Index> ancestor(static_cast<std::size_t>(n), -1);

  for (Index j = 0; j < n; ++j) {
    for (const Index i : a.column(j)) {
      // Walk from each below-diagonal entry's row... in column terms: for
      // entry (i, j) with i < j (upper part = row i of the lower part),
      // climb from i toward j, compressing paths.
      Index k = i;
      if (k >= j) {
        continue;
      }
      while (k != -1 && k != j) {
        const Index next = ancestor[static_cast<std::size_t>(k)];
        ancestor[static_cast<std::size_t>(k)] = j;  // path compression
        if (next == -1) {
          parent[static_cast<std::size_t>(k)] = j;
        }
        k = next;
      }
    }
  }
  return parent;
}

std::vector<Index> etree_postorder(const std::vector<Index>& parent) {
  const Index n = static_cast<Index>(parent.size());
  // Build child lists (increasing index order for determinism).
  std::vector<Index> head(static_cast<std::size_t>(n), -1);
  std::vector<Index> next(static_cast<std::size_t>(n), -1);
  std::vector<Index> roots;
  for (Index v = n; v-- > 0;) {  // reverse so lists come out ascending
    const Index p = parent[static_cast<std::size_t>(v)];
    if (p == -1) {
      roots.push_back(v);
    } else {
      TM_CHECK(p >= 0 && p < n, "etree_postorder: bad parent " << p);
      next[static_cast<std::size_t>(v)] = head[static_cast<std::size_t>(p)];
      head[static_cast<std::size_t>(p)] = v;
    }
  }
  std::reverse(roots.begin(), roots.end());  // ascending root order

  std::vector<Index> post;
  post.reserve(static_cast<std::size_t>(n));
  std::vector<Index> stack;
  std::vector<Index> child_cursor(static_cast<std::size_t>(n));
  for (const Index r : roots) {
    stack.push_back(r);
    child_cursor[static_cast<std::size_t>(r)] = head[static_cast<std::size_t>(r)];
    while (!stack.empty()) {
      const Index v = stack.back();
      const Index c = child_cursor[static_cast<std::size_t>(v)];
      if (c == -1) {
        post.push_back(v);
        stack.pop_back();
      } else {
        child_cursor[static_cast<std::size_t>(v)] =
            next[static_cast<std::size_t>(c)];
        stack.push_back(c);
        child_cursor[static_cast<std::size_t>(c)] =
            head[static_cast<std::size_t>(c)];
      }
    }
  }
  TM_CHECK(post.size() == static_cast<std::size_t>(n),
           "etree_postorder: forest traversal lost nodes");
  return post;
}

std::vector<Index> column_counts(const SparsePattern& a,
                                 const std::vector<Index>& parent) {
  TM_CHECK(a.is_square(), "column_counts: pattern must be square");
  const Index n = a.cols();
  TM_CHECK(parent.size() == static_cast<std::size_t>(n),
           "column_counts: parent array size mismatch");
  std::vector<Index> counts(static_cast<std::size_t>(n), 1);  // diagonal
  std::vector<Index> mark(static_cast<std::size_t>(n), -1);

  // Row subtrees: nonzeros of row i of L are exactly the nodes on etree
  // paths from each j (A_ij != 0, j < i) up toward i. Each step of the walk
  // visits a distinct L-entry, so total work is O(nnz(L)).
  for (Index i = 0; i < n; ++i) {
    mark[static_cast<std::size_t>(i)] = i;
    for (const Index j : a.column(i)) {
      if (j >= i) {
        continue;
      }
      Index k = j;
      while (mark[static_cast<std::size_t>(k)] != i) {
        mark[static_cast<std::size_t>(k)] = i;
        ++counts[static_cast<std::size_t>(k)];  // L(i, k) != 0
        k = parent[static_cast<std::size_t>(k)];
        TM_ASSERT(k != -1, "row subtree escaped the forest at row " << i);
      }
    }
  }
  return counts;
}

SparsePattern factor_pattern(const SparsePattern& a,
                             const std::vector<Index>& parent,
                             const std::vector<Index>& counts) {
  TM_CHECK(a.is_square(), "factor_pattern: pattern must be square");
  const Index n = a.cols();
  TM_CHECK(parent.size() == static_cast<std::size_t>(n) &&
               counts.size() == static_cast<std::size_t>(n),
           "factor_pattern: parent/counts size mismatch");
  const auto at = [](auto& v, Index i) -> decltype(auto) {
    return v[static_cast<std::size_t>(i)];
  };

  // Children of every column, as CSR (ascending within a column).
  std::vector<Index> child_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (Index j = 0; j < n; ++j) {
    const Index p = at(parent, j);
    TM_CHECK(p == -1 || (p > j && p < n),
             "factor_pattern: bad parent " << p << " of column " << j);
    if (p != -1) {
      ++at(child_ptr, p + 1);
    }
  }
  std::partial_sum(child_ptr.begin(), child_ptr.end(), child_ptr.begin());
  std::vector<Index> children(static_cast<std::size_t>(child_ptr.back()));
  {
    std::vector<Index> cursor(child_ptr.begin(), child_ptr.end() - 1);
    for (Index j = 0; j < n; ++j) {
      if (at(parent, j) != -1) {
        at(children, at(cursor, at(parent, j))++) = j;
      }
    }
  }
  const auto child_count = [&](Index j) {
    return at(child_ptr, j + 1) - at(child_ptr, j);
  };
  // Column j continues its chain into its parent.
  const auto joins_parent = [&](Index j) {
    const Index p = at(parent, j);
    return p != -1 && child_count(p) == 1 &&
           at(counts, p) == at(counts, j) - 1;
  };

  std::vector<std::int64_t> col_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (Index j = 0; j < n; ++j) {
    at(col_ptr, j + 1) = at(col_ptr, j) + at(counts, j);
  }
  std::vector<Index> row_idx(static_cast<std::size_t>(col_ptr.back()));

  // Chains in order of their bottom column: a child chain's top is below
  // the parent chain's bottom, so its S is already written when read.
  std::vector<Index> chain;
  std::vector<Index> below;  // S of the current chain
  std::vector<Index> merged;
  for (Index bottom = 0; bottom < n; ++bottom) {
    if (child_count(bottom) == 1 &&
        joins_parent(at(children, at(child_ptr, bottom)))) {
      continue;  // not a chain bottom
    }
    chain.assign(1, bottom);
    while (joins_parent(chain.back())) {
      chain.push_back(at(parent, chain.back()));
    }
    const Index top = chain.back();

    // S: c_1's column of A above the chain merged with each child chain's
    // S above it, all sorted. A node with k children costs O(k·|S|), as in
    // symbolic_cholesky's column merge.
    const auto above_top = [top](std::span<const Index> rows) {
      return rows.subspan(static_cast<std::size_t>(
          std::upper_bound(rows.begin(), rows.end(), top) - rows.begin()));
    };
    const std::span<const Index> own = above_top(a.column(bottom));
    below.assign(own.begin(), own.end());
    for (Index c = at(child_ptr, bottom); c < at(child_ptr, bottom + 1); ++c) {
      const Index child = at(children, c);
      const std::span<const Index> rows =
          above_top({row_idx.data() + at(col_ptr, child) + 1,
                     row_idx.data() + at(col_ptr, child + 1)});
      merged.clear();
      std::set_union(below.begin(), below.end(), rows.begin(), rows.end(),
                     std::back_inserter(merged));
      below.swap(merged);
    }
    // Along the chain the counts drop by one per column, so checking the
    // bottom's count keeps every column's writes inside its range.
    TM_CHECK(chain.size() + below.size() ==
                 static_cast<std::size_t>(at(counts, bottom)),
             "factor_pattern: column counts do not match the pattern at "
             "column " << bottom);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      Index* out = row_idx.data() + at(col_ptr, chain[i]);
      out = std::copy(chain.begin() + static_cast<std::ptrdiff_t>(i),
                      chain.end(), out);
      std::copy(below.begin(), below.end(), out);
    }
  }
  return SparsePattern(n, n, std::move(col_ptr), std::move(row_idx));
}

SparsePattern symbolic_cholesky(const SparsePattern& a) {
  TM_CHECK(a.is_square(), "symbolic_cholesky: pattern must be square");
  const Index n = a.cols();
  const std::vector<Index> parent = elimination_tree(a);

  // L(:,j) = lower part of A(:,j)  ∪  ∪_{c : parent(c)=j} (L(:,c) \ {c}).
  std::vector<std::vector<Index>> cols(static_cast<std::size_t>(n));
  std::vector<std::vector<Index>> children(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    if (parent[static_cast<std::size_t>(j)] != -1) {
      children[static_cast<std::size_t>(parent[static_cast<std::size_t>(j)])]
          .push_back(j);
    }
  }
  std::vector<Index> merged;
  for (const Index j : etree_postorder(parent)) {
    auto& col = cols[static_cast<std::size_t>(j)];
    for (const Index i : a.column(j)) {
      if (i >= j) {
        col.push_back(i);
      }
    }
    std::sort(col.begin(), col.end());
    col.erase(std::unique(col.begin(), col.end()), col.end());
    for (const Index c : children[static_cast<std::size_t>(j)]) {
      const auto& child_col = cols[static_cast<std::size_t>(c)];
      merged.clear();
      // Child entries below its diagonal, minus the child itself.
      std::set_union(col.begin(), col.end(), child_col.begin() + 1,
                     child_col.end(), std::back_inserter(merged));
      col = merged;
    }
    TM_ASSERT(!col.empty() && col.front() == j,
              "column " << j << " must start at its diagonal");
  }

  std::vector<std::int64_t> col_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> row_idx;
  for (Index j = 0; j < n; ++j) {
    row_idx.insert(row_idx.end(), cols[static_cast<std::size_t>(j)].begin(),
                   cols[static_cast<std::size_t>(j)].end());
    col_ptr[static_cast<std::size_t>(j) + 1] =
        static_cast<std::int64_t>(row_idx.size());
  }
  return SparsePattern(n, n, std::move(col_ptr), std::move(row_idx));
}

std::int64_t factor_nnz(const SparsePattern& a) {
  const std::vector<Index> parent = elimination_tree(a);
  const std::vector<Index> counts = column_counts(a, parent);
  return std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
}

}  // namespace treemem
