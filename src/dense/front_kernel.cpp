// Compiled with -ffp-contract=off (CMakeLists.txt): the exactness contract
// in front_kernel.hpp needs every multiply and every subtract rounded on
// its own, and compilers contract `a - p * l` into an FMA by default
// wherever an FMA-capable target is enabled — as the AVX-512 path is.
#include "dense/front_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "obs/trace.hpp"
#include "parallel/worker_pool.hpp"
#include "support/check.hpp"

#if defined(__x86_64__)
#define TREEMEM_DENSE_X86 1
#endif

// GCC at -O2 does not fully unroll the tile loops on its own, and the
// accumulators only stay in registers once they are unrolled; Clang
// unrolls them unasked.
#if defined(__clang__)
#define TREEMEM_UNROLL
#else
#define TREEMEM_UNROLL _Pragma("GCC unroll 16")
#endif

namespace treemem {

namespace {

typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));
typedef double Vec8 __attribute__((vector_size(64)));

/// Trailing columns per register tile.
constexpr std::size_t kTileCols = 4;
/// Pivots gathered per pass over a tile (bounds the compaction buffers).
constexpr std::size_t kChunk = 64;

// The microkernel. Everything below is force-inlined into the per-ISA
// entry points at the bottom, so one source compiles under each target's
// vector width. `cols` are the J trailing columns of a tile, `panel` the
// `count` pivot columns whose multipliers are nonzero for every column of
// the tile (mult[i * J + j] is pivot i's multiplier for column j). Every
// entry gets its updates in ascending pivot order, one rounded multiply
// and one rounded subtract each — the reference's arithmetic exactly.

/// One row block: rows [r, r + R·W) of the tile, held in J×R vector
/// registers across the pivot loop.
template <class V, std::size_t J, std::size_t R>
[[gnu::always_inline]] inline void update_block(double* const* cols,
                                                const double* const* panel,
                                                const double* mult,
                                                std::size_t count,
                                                std::size_t r) {
  constexpr std::size_t W = sizeof(V) / sizeof(double);
  V acc[J][R];
  TREEMEM_UNROLL
  for (std::size_t j = 0; j < J; ++j) {
    TREEMEM_UNROLL
    for (std::size_t v = 0; v < R; ++v) {
      std::memcpy(&acc[j][v], cols[j] + r + v * W, sizeof(V));
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    V a[R];
    TREEMEM_UNROLL
    for (std::size_t v = 0; v < R; ++v) {
      std::memcpy(&a[v], panel[i] + r + v * W, sizeof(V));
    }
    TREEMEM_UNROLL
    for (std::size_t j = 0; j < J; ++j) {
      const double l = mult[i * J + j];
      TREEMEM_UNROLL
      for (std::size_t v = 0; v < R; ++v) {
        acc[j][v] = acc[j][v] - a[v] * l;
      }
    }
  }
  TREEMEM_UNROLL
  for (std::size_t j = 0; j < J; ++j) {
    TREEMEM_UNROLL
    for (std::size_t v = 0; v < R; ++v) {
      std::memcpy(cols[j] + r + v * W, &acc[j][v], sizeof(V));
    }
  }
}

/// The next narrower vector, down to a plain double.
template <class V>
struct Narrower;
template <>
struct Narrower<Vec8> {
  using type = Vec4;
};
template <>
struct Narrower<Vec4> {
  using type = Vec2;
};
template <>
struct Narrower<Vec2> {
  using type = double;
};

/// Rows [r, m) of every column of the tile: register blocks of R vectors,
/// then single vectors, then ever narrower ones down to single rows —
/// every step keeps the tile's J·R independent accumulators, so even the
/// last rows are not one serial chain of multiply-subtracts.
template <class V, std::size_t J, std::size_t R>
[[gnu::always_inline]] inline void update_rows(double* const* cols,
                                               const double* const* panel,
                                               const double* mult,
                                               std::size_t count,
                                               std::size_t r, std::size_t m) {
  constexpr std::size_t W = sizeof(V) / sizeof(double);
  for (; r + R * W <= m; r += R * W) {
    update_block<V, J, R>(cols, panel, mult, count, r);
  }
  if constexpr (R > 1) {
    update_rows<V, J, 1>(cols, panel, mult, count, r, m);
  } else if constexpr (W > 1) {
    update_rows<typename Narrower<V>::type, J, 1>(cols, panel, mult, count,
                                                  r, m);
  }
}

/// The tile's upper-left triangle: column j starts at row c + j, so rows
/// c .. c + J − 2 belong to only some of the columns — entries
/// (c + t, j) for j <= t < J − 1, updated together.
template <std::size_t J>
[[gnu::always_inline]] inline void update_head(double* const* cols,
                                               const double* const* panel,
                                               const double* mult,
                                               std::size_t count,
                                               std::size_t c) {
  double x[J - 1][J - 1] = {};
  TREEMEM_UNROLL
  for (std::size_t t = 0; t + 1 < J; ++t) {
    TREEMEM_UNROLL
    for (std::size_t j = 0; j + 1 < J; ++j) {
      if (j <= t) {
        x[t][j] = cols[j][c + t];
      }
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    TREEMEM_UNROLL
    for (std::size_t t = 0; t + 1 < J; ++t) {
      const double p = panel[i][c + t];
      TREEMEM_UNROLL
      for (std::size_t j = 0; j + 1 < J; ++j) {
        if (j <= t) {
          x[t][j] = x[t][j] - p * mult[i * J + j];
        }
      }
    }
  }
  TREEMEM_UNROLL
  for (std::size_t t = 0; t + 1 < J; ++t) {
    TREEMEM_UNROLL
    for (std::size_t j = 0; j + 1 < J; ++j) {
      if (j <= t) {
        cols[j][c + t] = x[t][j];
      }
    }
  }
}

/// Column c alone against pivots [kc, k_hi), with its own compacted list
/// of nonzero multipliers; returns flops. (A function, not a lambda: a
/// lambda would not inherit the caller's target attribute.)
template <class V, std::size_t R>
[[gnu::always_inline]] inline long long update_single(
    double* front, std::size_t m, std::size_t c, std::size_t kc,
    std::size_t k_hi, const double** panel, double* mult) {
  double* const col = front + c * m;
  std::size_t count = 0;
  for (std::size_t k = kc; k < k_hi; ++k) {
    const double l = front[k * m + c];  // L(c, k)
    if (l != 0.0) {
      panel[count] = front + k * m;
      mult[count] = l;
      ++count;
    }
  }
  if (count > 0) {
    update_rows<V, 1, R>(&col, panel, mult, count, c, m);
  }
  return 2 * static_cast<long long>(m - c) * static_cast<long long>(count);
}

/// Applies panel pivots [k0, k0+nb) to trailing columns [c_begin, c_end)
/// of the column-major m×m front; returns flops (2(m−c) per applied
/// (pivot, column) pair). Columns go in tiles of kTileCols. A pivot whose
/// multipliers are zero for the whole tile is dropped from the tile's
/// list; if some pivot is zero for only part of the tile, that pass runs
/// column by column instead, each column with its own list — either way
/// exactly the updates with a nonzero multiplier are applied, per
/// (pivot, column), as in the reference. Thread-safe for disjoint column
/// ranges: writes touch only columns [c_begin, c_end), other reads touch
/// only the (finalized) panel columns.
template <class V, std::size_t R>
[[gnu::always_inline]] inline long long update_columns(
    double* front, std::size_t m, std::size_t k0, std::size_t nb,
    std::size_t c_begin, std::size_t c_end) {
  const double* panel[kChunk];
  double mult[kChunk * kTileCols];
  long long flops = 0;
  std::size_t c = c_begin;
  for (; c + kTileCols <= c_end; c += kTileCols) {
    double* cols[kTileCols];
    for (std::size_t j = 0; j < kTileCols; ++j) {
      cols[j] = front + (c + j) * m;
    }
    for (std::size_t kc = k0; kc < k0 + nb; kc += kChunk) {
      const std::size_t k_hi = std::min(k0 + nb, kc + kChunk);
      std::size_t count = 0;
      bool uniform = true;
      for (std::size_t k = kc; k < k_hi && uniform; ++k) {
        std::size_t nonzero = 0;
        for (std::size_t j = 0; j < kTileCols; ++j) {
          const double l = front[k * m + c + j];  // L(c + j, k)
          mult[count * kTileCols + j] = l;
          nonzero += l != 0.0;
        }
        if (nonzero == kTileCols) {
          panel[count++] = front + k * m;
        } else {
          uniform = nonzero == 0;
        }
      }
      if (!uniform) {
        for (std::size_t j = 0; j < kTileCols; ++j) {
          flops += update_single<V, R>(front, m, c + j, kc, k_hi, panel, mult);
        }
        continue;
      }
      if (count == 0) {
        continue;
      }
      update_head<kTileCols>(cols, panel, mult, count, c);
      update_rows<V, kTileCols, R>(cols, panel, mult, count,
                                   c + kTileCols - 1, m);
      for (std::size_t j = 0; j < kTileCols; ++j) {
        flops += 2 * static_cast<long long>(m - c - j) *
                 static_cast<long long>(count);
      }
    }
  }
  for (; c < c_end; ++c) {
    for (std::size_t kc = k0; kc < k0 + nb; kc += kChunk) {
      flops += update_single<V, R>(front, m, c, kc,
                                   std::min(k0 + nb, kc + kChunk), panel, mult);
    }
  }
  return flops;
}

// Per-ISA entry points: R row vectors per register block, sized so the
// J×R accumulators plus R panel vectors fit the register file (32 zmm for
// AVX-512, 16 ymm for AVX2). The portable path is the same tile in plain
// doubles — no vector extensions, so it compiles to scalar code on any
// target — and is the non-SIMD yardstick the bench gate holds the SIMD
// paths to.

long long update_portable(double* front, std::size_t m, std::size_t k0,
                          std::size_t nb, std::size_t c_begin,
                          std::size_t c_end) {
  return update_columns<double, 2>(front, m, k0, nb, c_begin, c_end);
}

#ifdef TREEMEM_DENSE_X86
__attribute__((target("avx2"))) long long update_avx2(
    double* front, std::size_t m, std::size_t k0, std::size_t nb,
    std::size_t c_begin, std::size_t c_end) {
  return update_columns<Vec4, 2>(front, m, k0, nb, c_begin, c_end);
}

__attribute__((target("avx512f"))) long long update_avx512(
    double* front, std::size_t m, std::size_t k0, std::size_t nb,
    std::size_t c_begin, std::size_t c_end) {
  return update_columns<Vec8, 3>(front, m, k0, nb, c_begin, c_end);
}
#endif

bool cpu_supports(DenseIsa isa) {
  switch (isa) {
    case DenseIsa::kPortable:
      return true;
#ifdef TREEMEM_DENSE_X86
    case DenseIsa::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
    case DenseIsa::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f");
#else
    case DenseIsa::kAvx2:
    case DenseIsa::kAvx512:
      return false;
#endif
  }
  return false;
}

}  // namespace

const char* to_string(DenseIsa isa) {
  switch (isa) {
    case DenseIsa::kPortable:
      return "portable";
    case DenseIsa::kAvx2:
      return "avx2";
    case DenseIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

DenseIsa dispatched_isa() {
  static const DenseIsa isa = [] {
    for (const DenseIsa widest : {DenseIsa::kAvx512, DenseIsa::kAvx2}) {
      if (cpu_supports(widest)) {
        return widest;
      }
    }
    return DenseIsa::kPortable;
  }();
  return isa;
}

FrontKernel::FrontKernel(const KernelConfig& config)
    : FrontKernel(config, dispatched_isa()) {}

FrontKernel::FrontKernel(const KernelConfig& config, DenseIsa isa)
    // Resolve every knob once at construction: trailing_update runs per
    // panel, and the pool lookup does not belong on that path (the pool
    // itself resolved TREEMEM_THREADS once). A width-1 kernel never leases,
    // so it never touches the process pool either.
    : isa_(isa),
      update_(&update_portable),
      block_size_(std::max<std::size_t>(1, config.block_size)),
      pool_(config.pool != nullptr || config.workers == 1
                ? config.pool
                : &WorkerPool::instance()),
      workers_(config.workers == 0 ? pool_->size() : config.workers),
      min_parallel_volume_(config.min_parallel_volume) {
  TM_CHECK(cpu_supports(isa), "dense kernel: this CPU cannot run the "
                                  << to_string(isa) << " path");
#ifdef TREEMEM_DENSE_X86
  if (isa == DenseIsa::kAvx2) {
    update_ = &update_avx2;
  } else if (isa == DenseIsa::kAvx512) {
    update_ = &update_avx512;
  }
#endif
}

long long FrontKernel::partial_factor(double* front, std::size_t m,
                                      std::size_t eta,
                                      const Index* member_columns) const {
  TM_CHECK(eta <= m, "partial_factor: eta " << eta << " exceeds front size "
                                            << m);
  long long flops = 0;
  for (std::size_t k0 = 0; k0 < eta; k0 += block_size_) {
    const std::size_t width = std::min(block_size_, eta - k0);
    {
      obs::TraceSpan span("panel", "dense", obs::TraceRecorder::kNoLane,
                          "k0", static_cast<long long>(k0), "width",
                          static_cast<long long>(width));
      flops += factor_panel(front, m, k0, width, member_columns);
    }
    if (k0 + width < m) {
      // Lease grant/deny instants (from the pool) land inside this span,
      // tying an inline panel to its denial.
      obs::TraceSpan span("trailing_update", "dense",
                          obs::TraceRecorder::kNoLane, "k0",
                          static_cast<long long>(k0), "cols",
                          static_cast<long long>(m - k0 - width));
      flops += trailing_update(front, m, k0, width);
    }
  }
  return flops;
}

long long FrontKernel::factor_panel(double* front, std::size_t m,
                                    std::size_t k0, std::size_t nb,
                                    const Index* member_columns) const {
  long long flops = 0;
  for (std::size_t k = k0; k < k0 + nb; ++k) {
    double* const colk = front + k * m;
    const double pivot = colk[k];
    TM_CHECK(pivot > 0.0,
             "matrix is not positive definite at column "
                 << (member_columns ? member_columns[k]
                                    : static_cast<Index>(k))
                 << " (pivot " << pivot << ")");
    const double lkk = std::sqrt(pivot);
    colk[k] = lkk;
    ++flops;
    for (std::size_t r = k + 1; r < m; ++r) {
      colk[r] /= lkk;
      ++flops;
    }
    // Right-looking update of the rest of the panel only; trailing columns
    // get this pivot later, in the same ascending-k order, via
    // trailing_update.
    flops += update_(front, m, k, 1, k + 1, k0 + nb);
  }
  return flops;
}

long long FrontKernel::trailing_update(double* front, std::size_t m,
                                       std::size_t k0, std::size_t nb) const {
  const std::size_t c_begin = k0 + nb;
  const std::size_t cols = m - c_begin;
  const std::size_t tiles = (cols + block_size_ - 1) / block_size_;
  // A lease costs a mutex claim and a few condvar wakes per panel; only
  // pay when the update amortizes them. The triangular trailing block
  // holds cols·(cols+1)/2 entries, each receiving up to nb
  // multiply-subtract pairs — the unit min_parallel_volume is counted in.
  const bool too_small = nb * (cols * (cols + 1) / 2) < min_parallel_volume_;
  if (workers_ <= 1 || tiles < 2 || too_small) {
    return update_(front, m, k0, nb, c_begin, m);
  }
  // Per-tile flop slots instead of an atomic: deterministic and
  // contention-free.
  std::vector<long long> tile_flops(tiles, 0);
  const auto tile_body = [&](std::size_t t) {
    const std::size_t c0 = c_begin + t * block_size_;
    const std::size_t c1 = std::min(m, c0 + block_size_);
    tile_flops[t] = update_(front, m, k0, nb, c0, c1);
  };
  // The calling thread is always one participant, so a width-w update
  // needs w-1 leased helpers; tiles-1 caps the useful lease size. An empty
  // lease (nobody idle right now — the tree level is using them) runs the
  // panel inline via the same run() contract.
  const unsigned max_helpers =
      std::min<unsigned>(workers_ - 1, static_cast<unsigned>(tiles - 1));
  WorkerLease lease = pool_->try_lease(max_helpers);
  (lease.empty() ? leases_denied_ : leases_granted_)
      .fetch_add(1, std::memory_order_relaxed);
  lease.run(tiles, tile_body);
  long long flops = 0;
  for (const long long f : tile_flops) {
    flops += f;
  }
  return flops;
}

void FrontKernel::extend_add(double* front, std::size_t m,
                             const Index* front_pos, const Index* cb_rows,
                             std::size_t cm, const double* cb_values) const {
  for (std::size_t cc = 0; cc < cm; ++cc) {
    const Index gcol = cb_rows[cc];
    TM_ASSERT(front_pos[static_cast<std::size_t>(gcol)] >= 0,
              "child CB column outside the parent front");
    const std::size_t fc =
        static_cast<std::size_t>(front_pos[static_cast<std::size_t>(gcol)]);
    double* const colf = front + fc * m;
    for (std::size_t cr = cc; cr < cm; ++cr) {
      const Index grow = cb_rows[cr];
      const std::size_t fr =
          static_cast<std::size_t>(front_pos[static_cast<std::size_t>(grow)]);
      colf[fr] += cb_values[cc * cm + cr];
    }
  }
}

KernelLeaseStats FrontKernel::lease_stats() const {
  KernelLeaseStats stats;
  stats.leases_granted = leases_granted_.load(std::memory_order_relaxed);
  stats.leases_denied = leases_denied_.load(std::memory_order_relaxed);
  return stats;
}

std::unique_ptr<const FrontKernel> make_front_kernel(
    const KernelConfig& config) {
  return std::make_unique<const FrontKernel>(config);
}

namespace detail {

std::unique_ptr<const FrontKernel> make_front_kernel_on(
    const KernelConfig& config, DenseIsa isa) {
  return std::unique_ptr<const FrontKernel>(new FrontKernel(config, isa));
}

}  // namespace detail

}  // namespace treemem
