// SymbolicCache — analyze+plan once per sparsity pattern, share forever.
//
// The expensive half of a sparse direct solve is symbolic: ordering,
// elimination tree, amalgamation, traversal planning. In a solver service
// the same pattern arrives over and over with different numeric values
// (time steps, Newton iterations, tenants simulating the same mesh), and
// production codes amortize by splitting the symbolic handle from the
// numeric one (the UMFPACK symbolic/numeric object split). SymbolicCache
// is that amortization for the Solver facade: a concurrent map from
// sparsity pattern to the immutable SolverSymbolic state (analysis +
// plan), built on first sight and adopted by every later tenant.
//
// Keying: a 64-bit FNV-1a fingerprint over the pattern's dimensions and
// CSC arrays selects a bucket; the bucket stores the full pattern and
// every lookup verifies structural equality, so hash collisions can never
// alias two patterns (they only cost a scan of the few colliding
// entries). Distinct patterns build concurrently — only the map itself is
// briefly locked — while two threads racing on the *same* new pattern
// serialize on a per-entry mutex and share one build.
//
// Eviction: the cache is LRU + size-capped (max_entries / max_bytes, 0 =
// unbounded). A service under pattern churn would otherwise grow without
// bound — every one-off tenant pattern resident forever. Entries are held
// by shared_ptr, so eviction is always safe: an in-flight lookup (or an
// adopting Solver) keeps the analysis+plan alive after the cache forgets
// it; the only cost of evicting hot state is a rebuild on the next miss.
// Caps are enforced at insertion time, so the entry count never exceeds
// max_entries, not even transiently.
//
// Hits are exact, not approximate: adopting cached symbolic state yields
// factors bit-identical to a cold analyze+plan+factorize run with the
// same options, because the engine's factor depends only on the (shared)
// plan and the values. Hit/miss counters are exact too — a lookup counts
// as a miss iff an analyze+plan actually ran (including a failed one), so
// retries after a throwing build report misses, never hits.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "solver/solver.hpp"
#include "sparse/pattern.hpp"

namespace treemem {

/// 64-bit FNV-1a fingerprint of the pattern's structure (dimensions +
/// col_ptr + row_idx). Stable across runs and platforms; used by the
/// cache as the bucket key (equality is always re-verified on the full
/// pattern) and by the persistence layer to validate files on load.
std::uint64_t pattern_fingerprint(const SparsePattern& pattern);

struct SymbolicCacheOptions {
  /// The analyze/plan options every cached build uses. One cache = one
  /// (ordering, amalgamation, traversal policy, budget) configuration;
  /// run several caches for several configurations.
  AnalyzeOptions analyze;
  PlanOptions plan;
  /// LRU capacity caps; 0 = unbounded. `max_bytes` bounds the approximate
  /// resident size of the cached symbolic state (patterns, assembly trees
  /// with the factor's structure, traversals — see approx_symbolic_bytes).
  /// When either cap is exceeded the least-recently-used entries are
  /// dropped; in-flight users keep their shared state alive.
  std::size_t max_entries = 0;
  std::size_t max_bytes = 0;
};

/// Approximate resident bytes of one SolverSymbolic (the eviction
/// currency of SymbolicCacheOptions::max_bytes).
std::size_t approx_symbolic_bytes(const SolverSymbolic& symbolic);

class SymbolicCache {
 public:
  SymbolicCache() = default;
  explicit SymbolicCache(SymbolicCacheOptions options)
      : options_(std::move(options)) {}

  SymbolicCache(const SymbolicCache&) = delete;
  SymbolicCache& operator=(const SymbolicCache&) = delete;

  struct LookupResult {
    SolverSymbolic symbolic;
    bool hit = false;  ///< true when no build ran (cached state returned)
  };

  /// The symbolic state for `pattern`: returned from the cache when the
  /// pattern was seen before, analyzed+planned (and cached) otherwise.
  /// Thread-safe; concurrent lookups of the same new pattern build once.
  /// Propagates the build's exception (e.g. a non-symmetric pattern)
  /// without poisoning the cache; the failed attempt counts as a miss.
  LookupResult lookup(const SparsePattern& pattern);

  /// Seeds the cache with externally built symbolic state (the warm-
  /// restart path: solver/symbolic_store.hpp). Counted neither as hit nor
  /// miss; a pattern already present keeps its existing entry. Returns
  /// true when the state was inserted. Throws when `symbolic` is empty.
  bool insert(SolverSymbolic symbolic);

  /// Every built symbolic state currently cached, most recently used
  /// first (entries still mid-build are skipped). The persistence layer
  /// (solver/symbolic_store.hpp) serializes this snapshot.
  std::vector<SolverSymbolic> snapshot() const;

  /// Convenience: a Solver already in the planned phase for `pattern`,
  /// configured with the cache's analyze/plan options plus `factorize` —
  /// call factorize()/solve() on it directly.
  Solver acquire(const SparsePattern& pattern,
                 const FactorizeOptions& factorize = {});

  struct Stats {
    long long hits = 0;       ///< lookups served without running a build
    long long misses = 0;     ///< lookups that ran analyze+plan (or tried)
    long long evictions = 0;  ///< entries dropped by the LRU caps
    std::size_t entries = 0;  ///< distinct patterns currently cached
    std::size_t resident_bytes = 0;  ///< approx bytes of cached state
  };
  Stats stats() const;

  const SymbolicCacheOptions& options() const { return options_; }

  /// Drops every entry AND resets the hit/miss/eviction counters: clear()
  /// starts a fresh epoch, so post-clear hit rates never mix epochs.
  /// (In-flight LookupResults keep their shared state alive; only the
  /// cache forgets.)
  void clear();

 private:
  struct Entry {
    SparsePattern pattern;  ///< full key — collision-proof equality
    std::uint64_t key = 0;  ///< fingerprint bucket this entry lives in
    std::mutex build_mutex;  ///< serializes building (and reading) symbolic
    SolverSymbolic symbolic;  ///< empty until the first build succeeds

    // Guarded by map_mutex_:
    bool in_map = true;        ///< false once evicted or cleared
    bool charged = false;      ///< bytes recorded in resident_bytes_
    std::size_t bytes = 0;     ///< approx_symbolic_bytes of the build
    std::list<std::shared_ptr<Entry>>::iterator lru_pos;
  };

  /// Drops the least-recently-used entry (the LRU list's back). Requires
  /// map_mutex_ held and a non-empty list.
  void evict_lru_locked();
  /// Evicts until both caps hold (or the cache is empty). Requires
  /// map_mutex_ held.
  void enforce_caps_locked();
  /// Records a finished build's bytes against the caps. No-op when the
  /// entry was evicted while building.
  void charge_entry(const std::shared_ptr<Entry>& entry, std::size_t bytes);
  /// Find-or-create under the map lock; touches LRU on find and enforces
  /// the entry cap on create.
  std::shared_ptr<Entry> find_or_create(const SparsePattern& pattern);

  SymbolicCacheOptions options_;
  mutable std::mutex map_mutex_;
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<Entry>>>
      entries_;
  std::list<std::shared_ptr<Entry>> lru_;  ///< front = most recently used
  std::size_t entry_count_ = 0;
  std::size_t resident_bytes_ = 0;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
  std::atomic<long long> evictions_{0};
};

}  // namespace treemem
