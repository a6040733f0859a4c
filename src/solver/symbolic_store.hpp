// Symbolic persistence — warm restarts for the solver service.
//
// A restarted service would pay the whole symbolic phase again on the
// first request per pattern. This layer persists its one expensive
// product, the fill-reducing ordering, so `treemem_cli serve --state-dir`
// restarts warm: zero symbolic misses on a repeated trace, no ordering rerun.
//
// Format (version 3): native-endian binary holding the "TMSYMB01" magic, a
// u32 version, the AnalyzeOptions and PlanOptions, the pattern fingerprint,
// the pattern (length-prefixed CSC arrays) and the permutation; nothing
// derived. Loading checks magic, version, the fingerprint recomputed from
// the validated pattern, the options (before any rebuild) and the
// permutation, then rebuilds the permuted pattern, assembly tree, nnz(L)
// and value map with the code analyze() runs after its ordering, and the
// traversal with plan(). A stale, truncated, foreign or tampered file thus
// fails with treemem::Error or yields what a cold build of its ordering
// would; versions 1 and 2 are rejected. Writes go to a temp name and are
// renamed, so a crash mid-write never leaves a half file behind.
#pragma once

#include <cstddef>
#include <string>

#include "solver/solver.hpp"
#include "solver/symbolic_cache.hpp"

namespace treemem {

/// Whether two analyze/plan configurations build identical symbolic state
/// (the load-time compatibility check).
bool same_build_options(const AnalyzeOptions& a, const AnalyzeOptions& b);
bool same_build_options(const PlanOptions& a, const PlanOptions& b);

/// Serializes `symbolic` to `path` (atomically: temp file + rename).
/// Throws treemem::Error on I/O failure.
void write_symbolic_file(const SolverSymbolic& symbolic,
                         const std::string& path);

/// Reads the ordering stored at `path` and rebuilds its analysis and plan
/// under the file's own options. Throws treemem::Error when the file is
/// missing, truncated, carries a wrong magic/version, its stored
/// fingerprint disagrees with the decoded pattern, or the rebuild rejects
/// the pattern, the permutation or the budget.
SolverSymbolic read_symbolic_file(const std::string& path);

/// The canonical file name for a pattern's symbolic state inside a state
/// directory: "pattern-<hex fingerprint>[-<slot>].tmsym" (`slot`
/// disambiguates fingerprint collisions).
std::string symbolic_file_name(std::uint64_t fingerprint, std::size_t slot);

struct SymbolicStoreReport {
  std::size_t saved = 0;    ///< files written (save) / entries added (load)
  std::size_t skipped_options = 0;  ///< files whose build options differ
  std::size_t skipped_invalid = 0;  ///< corrupt/truncated/foreign files
};

/// Writes every built entry of `cache` into directory `dir` (created if
/// missing), one file per pattern. Returns how many files were written.
SymbolicStoreReport save_symbolic_state(const SymbolicCache& cache,
                                        const std::string& dir);

/// Loads every "*.tmsym" file under `dir` into `cache`, skipping files
/// whose analyze/plan options differ from the cache's configuration
/// (before rebuilding them) and files that fail validation (a stale or
/// corrupt state dir degrades to a cold start, never to an error). Each
/// loaded file costs a rebuild minus the ordering. Missing directory =
/// nothing to load.
SymbolicStoreReport load_symbolic_state(SymbolicCache& cache,
                                        const std::string& dir);

}  // namespace treemem
