// The dense front kernel — the dense math of the multifrontal engine.
//
// FrontalEngine (multifrontal/numeric.hpp) owns the sparse choreography of
// a front (front rows, original-entry assembly, contribution-block slot
// protocol, live-entry metering); everything dense — the partial Cholesky
// of the leading η pivots and the scatter-add of a child's contribution
// block — goes through the one FrontKernel.
//
// Algorithm: right-looking, blocked. Panels of `block_size` pivots are
// factored in place, then the whole panel is applied to the trailing
// columns in one pass, so the trailing matrix is streamed once per panel
// instead of once per pivot. The trailing update is a register-tiled SIMD
// microkernel: a tile of 4 trailing columns × (3 vectors of rows) stays in
// vector registers across the panel's pivot loop. When a panel's update
// clears `min_parallel_volume`, its column tiles run on workers *leased*
// from the persistent pool (parallel/worker_pool.hpp): the lease claims
// whatever workers are idle right now — typically the tree-level
// executor's, near the root where its frontier has collapsed — and returns
// them at panel end. A lease never blocks and never spawns a thread; when
// nobody is idle the panel runs inline and the denial is counted
// (lease_stats / SolverStats::lease_denied).
//
// Exactness contract: the factor is bit-identical to the plain
// right-looking scalar loop, at every block size, ISA path and worker
// count. Per entry (r, c) the pivot updates arrive in ascending k, each as
// one rounded multiply then one rounded subtract (this TU is compiled with
// -ffp-contract=off, so no FMA contraction), and an update whose
// multiplier L(c, k) is exactly zero is skipped — per (k, column), also
// inside a tile — so signed zeros and flop counts match the reference.
// Column tiles are disjoint, so the schedule of a lease cannot change a
// bit. tests/dense pins this with a bitwise comparison against a test-only
// triple loop on every path this host can run; the 56-instance corpus
// sweep in tests/multifrontal pins it through the engines.
//
// ISA dispatch: the microkernel is written once with GCC/Clang vector
// extensions and instantiated for AVX-512F (8 doubles per vector) and AVX2
// (4) on x86-64, and in plain doubles as the portable path that runs
// anywhere. The process picks the widest path its CPU supports exactly
// once, from __builtin_cpu_supports; SolverStats::kernel reports the
// choice.
//
// Block size: fixed at 16. On the 4-core AVX-512 box, bench/front_kernels
// found nb = 16 fastest in 10 and 11 of the 12 cells of its 64–1024-row
// sweep over two runs (48 took the rest, 96 none): a 16-wide panel of a
// 1024-row front (128 KiB) stays in L2 while the tile streams through it.
// A start-up sweep would cost more set-up time than it could win back, so
// there is none.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

#include "sparse/pattern.hpp"  // Index

namespace treemem {

class FrontKernel;
class WorkerPool;

/// Tuning knobs of the dense kernel, threaded through
/// multifrontal_cholesky and factor_parallel.
struct KernelConfig {
  /// Panel width and leased column-tile width (clamped to >= 1). See the
  /// header comment for why 16.
  std::size_t block_size = 16;
  /// Maximum parallel width (calling thread included) of a trailing
  /// update; 0 defers to the pool's size (which resolved TREEMEM_THREADS
  /// once, at pool construction). 1 keeps every update on the calling
  /// thread.
  unsigned workers = 0;
  /// Minimum trailing-update volume (multiply-subtract pairs) before a
  /// panel requests a lease; below it the update runs inline. Leasing
  /// costs a mutex claim + condvar wake (~µs), so the gate sits at 2^19
  /// pairs (~1 Mflop), letting mid-tree fronts parallelize too. A lease
  /// that finds zero idle workers runs the panel inline and counts
  /// lease_denied. 0 forces a lease request on every panel (tests/TSan
  /// coverage of the leased path on small fronts).
  std::size_t min_parallel_volume = 1u << 19;
  /// Worker source for the leases; nullptr = the process-wide
  /// WorkerPool::instance(). Tests and benches pass private pools for
  /// deterministic counters.
  WorkerPool* pool = nullptr;
};

/// Instruction-set path of the trailing-update microkernel.
enum class DenseIsa { kPortable, kAvx2, kAvx512 };

/// "portable" | "avx2" | "avx512".
const char* to_string(DenseIsa isa);

/// The widest path this CPU supports, resolved once per process.
DenseIsa dispatched_isa();

namespace detail {

/// Test and bench entry point: the kernel pinned to `isa`, so one host
/// checks and measures both its SIMD path and the portable one. Throws
/// treemem::Error when this CPU cannot run `isa`.
std::unique_ptr<const FrontKernel> make_front_kernel_on(
    const KernelConfig& config, DenseIsa isa);

}  // namespace detail

/// How often trailing updates that cleared the volume gate actually got
/// pool workers, and how often they found none idle and ran inline. One
/// kernel instance serves one factorization (FrontalEngine owns it), so
/// these counters are per-run.
struct KernelLeaseStats {
  long long leases_granted = 0;
  long long leases_denied = 0;
};

/// The dense kernel. Thread-safe: one kernel is shared by every worker of
/// a parallel factorization, and all numeric state lives in the caller's
/// front buffer (the kernel keeps only atomic lease tallies).
///
/// The front is a dense column-major m×m buffer (leading dimension m); only
/// the lower triangle is read or written.
class FrontKernel {
 public:
  /// The kernel on the dispatched ISA path.
  explicit FrontKernel(const KernelConfig& config);

  DenseIsa isa() const { return isa_; }

  /// Dense partial Cholesky of the leading `eta` pivots of the m×m front.
  /// Returns the flop count (the reference convention: 1 per sqrt, 1 per
  /// division, 2(m−c) per applied pivot update of column c). Throws
  /// treemem::Error on a non-positive pivot; `member_columns` (length
  /// eta, may be nullptr) names the original matrix column in that error.
  long long partial_factor(double* front, std::size_t m, std::size_t eta,
                           const Index* member_columns) const;

  /// Scatter-adds a child's cm×cm lower-triangular contribution block into
  /// the front: CB entry (cr, cc) lands at front position
  /// (front_pos[cb_rows[cr]], front_pos[cb_rows[cc]]).
  void extend_add(double* front, std::size_t m, const Index* front_pos,
                  const Index* cb_rows, std::size_t cm,
                  const double* cb_values) const;

  /// Lease grant/denial tallies of this kernel instance.
  KernelLeaseStats lease_stats() const;

 private:
  friend std::unique_ptr<const FrontKernel> detail::make_front_kernel_on(
      const KernelConfig& config, DenseIsa isa);
  FrontKernel(const KernelConfig& config, DenseIsa isa);

  /// The column-range core of one ISA path: applies panel pivots
  /// [k0, k0+nb) to columns [c_begin, c_end). Returns flops.
  using UpdateFn = long long (*)(double* front, std::size_t m,
                                 std::size_t k0, std::size_t nb,
                                 std::size_t c_begin, std::size_t c_end);

  long long factor_panel(double* front, std::size_t m, std::size_t k0,
                         std::size_t nb, const Index* member_columns) const;
  long long trailing_update(double* front, std::size_t m, std::size_t k0,
                            std::size_t nb) const;

  DenseIsa isa_;
  UpdateFn update_;
  std::size_t block_size_;
  WorkerPool* pool_;
  unsigned workers_;
  std::size_t min_parallel_volume_;
  // Tallies, not synchronization: mutable because trailing_update is
  // const (the kernel is numerically stateless and stays shareable).
  mutable std::atomic<long long> leases_granted_{0};
  mutable std::atomic<long long> leases_denied_{0};
};

/// The kernel on the dispatched ISA path. It may be shared across threads
/// and reused for any number of fronts.
std::unique_ptr<const FrontKernel> make_front_kernel(
    const KernelConfig& config);

}  // namespace treemem
