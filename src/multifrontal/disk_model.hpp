// A secondary-memory cost model: turns the paper's I/O *volume* objective
// into estimated I/O *time*, the quantity an out-of-core solver ultimately
// minimizes. The paper optimizes volume because time is monotone in it for
// a fixed device; this model adds the per-operation latency term, which
// breaks ties between heuristics that trade few-large writes (FirstFit)
// against many-small writes (LSNF fallbacks) — quantified by
// bench/ablations.
#pragma once

#include "core/minio.hpp"
#include "core/traversal.hpp"
#include "tree/tree.hpp"

namespace treemem {

struct DiskModel {
  double latency_s = 5e-3;          ///< per-operation seek/queue latency
  double bandwidth_entries_s = 25e6; ///< entries per second (8-byte entries
                                     ///< at ~200 MB/s)

  /// Time to write (or read back) a file of `entries` matrix entries.
  double transfer_s(Weight entries) const {
    return latency_s + static_cast<double>(entries) / bandwidth_entries_s;
  }
};

/// Estimated total I/O time of a schedule: every write event is one write
/// plus, later, one read of the same file.
double io_time_s(const Tree& tree, const IoSchedule& schedule,
                 const DiskModel& model);

/// Convenience: estimated I/O time of a heuristic result.
inline double io_time_s(const Tree& tree, const MinIoResult& result,
                        const DiskModel& model) {
  return io_time_s(tree, result.schedule, model);
}

}  // namespace treemem
