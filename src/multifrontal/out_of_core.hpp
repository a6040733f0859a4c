// Out-of-core multifrontal execution: runs a MinIO eviction schedule for
// real. Where core/minio.hpp *plans* which contribution blocks to spill,
// this driver *executes* the plan on the one FrontalEngine
// (multifrontal/numeric.hpp): it walks the same serial loop as
// multifrontal_cholesky (factor_serial, one process_front per supernode),
// moves spilled blocks to a simulated secondary store right after they
// are produced, restores them just before their parent assembles them,
// and asserts that in-core live memory never exceeds the budget the plan
// was made for. The factor is therefore bit-identical to an in-core run
// along the same traversal, and an in-core run is one with no writes.
//
// Directions: MinIO schedules are expressed on the out-tree order σ (the
// paper's convention); the factorization runs bottom-up on reverse(σ). A
// file written at out-tree step τ(j) is, in factorization time, a
// contribution block that spends part of its produced-to-consumed lifetime
// on disk — spilling it immediately after production is the
// memory-dominant choice, so that is what the driver does.
#pragma once

#include "core/traversal.hpp"
#include "multifrontal/numeric.hpp"
#include "symbolic/assembly_tree.hpp"

namespace treemem {

/// A serial run's result (peak_live_entries counts in-core entries only;
/// spilled blocks are excluded) plus the spill volume.
struct OutOfCoreRunResult : MultifrontalResult {
  /// Entries actually moved to the secondary store (once each; the same
  /// volume is read back).
  Weight entries_spilled = 0;
  /// Number of spill (write) operations.
  int spill_events = 0;
};

/// Executes `schedule` (out-tree order + writes, e.g. from minio_heuristic)
/// against `budget_entries` of in-core memory. Throws if the schedule is
/// structurally invalid; TM_ASSERTs that the measured in-core peak respects
/// the budget (guaranteed when the plan was feasible for the same tree,
/// since real fronts never exceed the model's padded fronts). `kernel`
/// tunes the dense front kernel, as for multifrontal_cholesky.
OutOfCoreRunResult multifrontal_cholesky_out_of_core(
    const SymmetricMatrix& matrix, const AssemblyTree& assembly,
    const IoSchedule& schedule, Weight budget_entries,
    const KernelConfig& kernel = {});

}  // namespace treemem
