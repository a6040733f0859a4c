// Parallel loop facade over the persistent worker pool.
//
// parallel_for keeps its original contract — body(i) for every i in
// [0, count), every index exactly once even if bodies throw, first
// exception rethrown after all participants drained, no execution-order
// guarantee — but no longer creates threads: it leases idle workers from
// the process-wide WorkerPool (parallel/worker_pool.hpp), runs the loop
// with the calling thread participating, and returns the workers when the
// loop ends. When no worker is idle (or num_threads <= 1) the loop runs
// inline on the calling thread, same contract — parallel_for never blocks
// waiting for capacity.
//
// The environment is resolved exactly once, when the pool is constructed,
// and the steady state performs zero thread births.
//
// Determinism: the body must write its results into per-index slots
// (e.g. results[i]); each index executes exactly once but in no particular
// order.
#pragma once

#include <cstddef>
#include <functional>

namespace treemem {

/// Executes body(i) for every i in [0, count). num_threads is the desired
/// total parallel width (calling thread included); 0 means the pool's
/// size. If the width resolves to <= 1 — or no pool worker is idle — the
/// loop runs inline on the calling thread. Both paths share one contract:
/// every index executes exactly once even if some bodies throw, and the
/// first exception is rethrown at the end (after all leased workers
/// drained, in the leased case).
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned num_threads = 0);

/// Number of workers parallel_for targets for `num_threads == 0`: the
/// TREEMEM_THREADS environment variable (a positive integer, capped at
/// 1024; handy for reproducible timing runs) when set, otherwise the
/// hardware concurrency (at least 1). Parsed strictly through
/// support/env.hpp: a malformed value throws treemem::Error instead of
/// silently changing the thread count mid-experiment. The process-wide
/// WorkerPool is sized by this value exactly once, at first use.
unsigned default_thread_count();

}  // namespace treemem
