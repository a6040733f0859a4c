// Correctness suite for the dense front kernel (dense/front_kernel.hpp) —
// the math under FrontalEngine.
//
// Pinned properties:
//   * the kernel's factor is bit-identical (bits_equal: -0.0 != +0.0) to a
//     plain right-looking triple loop, the test-only reference below, with
//     identical flop counts — across front sizes past one register tile,
//     pivot counts, block sizes (width 1, odd, the default, wider than η)
//     and fronts with planted zeros, on every ISA path this CPU can run
//     (the dispatched SIMD path and the portable one, through
//     detail::make_front_kernel_on);
//   * the same holds with every panel's trailing update leased out in
//     column tiles;
//   * degenerate fronts: η = 0 is a no-op, η = m is a full Cholesky, 1×1
//     fronts factor, non-positive pivots throw a clean Error on every path;
//   * extend_add scatters a child contribution block exactly;
//   * the leased kernel runs race-clean *inside* factor_parallel — leases
//     nested under the executor's worker threads — with the lease gate
//     forced open so TSan sees the threaded path even on small fronts
//     (this binary is in CI's TSan job).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/postorder.hpp"
#include "dense/front_kernel.hpp"
#include "dense/spd_front.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "perf/corpus.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

using testing::bits_equal;

/// The reference: the plain right-looking scalar loop over the lower
/// triangle of the column-major m×m front, with the zero-multiplier skip
/// and the flop convention of FrontKernel::partial_factor.
long long reference_factor(std::vector<double>& a, std::size_t m,
                           std::size_t eta) {
  long long flops = 0;
  for (std::size_t k = 0; k < eta; ++k) {
    const double lkk = std::sqrt(a[k * m + k]);
    a[k * m + k] = lkk;
    ++flops;
    for (std::size_t r = k + 1; r < m; ++r) {
      a[k * m + r] /= lkk;
      ++flops;
    }
    for (std::size_t c = k + 1; c < m; ++c) {
      const double lck = a[k * m + c];
      if (lck == 0.0) {
        continue;
      }
      for (std::size_t r = c; r < m; ++r) {
        a[c * m + r] -= a[k * m + r] * lck;
      }
      flops += 2 * static_cast<long long>(m - c);
    }
  }
  return flops;
}

/// A dense SPD front with zero structure planted in its factor. Rows
/// c ≡ 0 (mod 3) have A(c, k) = 0 for every pivot k < η, so L(c, k) is an
/// exact zero and their whole tiles skip; rows c ≡ 1 (mod 5) are zero for
/// only the first few pivots, so a tile sees a pivot that is zero for part
/// of its columns. Trailing entries (r, c) of the fully-zero columns hold
/// -0.0: every update to them must be skipped, so they stay -0.0, and a
/// wrongly applied zero-multiplier update would flip them to +0.0.
std::vector<double> planted_front(std::size_t m, std::size_t eta,
                                  std::uint64_t seed) {
  std::vector<double> a = make_dense_spd_front(m, seed);
  for (std::size_t c = 0; c < m; ++c) {
    const std::size_t zero_until =
        c % 3 == 0 ? eta : c % 5 == 1 ? (c * 7) % (eta + 1) : 0;
    for (std::size_t k = 0; k < std::min(zero_until, c); ++k) {
      a[k * m + c] = 0.0;
    }
    if (c >= eta && c % 3 == 0) {
      for (std::size_t r = c + 1; r < m; r += 2) {
        a[c * m + r] = -0.0;
      }
    }
  }
  return a;
}

/// Every ISA path this CPU can run: the portable one and up to the
/// dispatched one.
std::vector<DenseIsa> runnable_isas() {
  std::vector<DenseIsa> isas;
  for (const DenseIsa isa :
       {DenseIsa::kPortable, DenseIsa::kAvx2, DenseIsa::kAvx512}) {
    if (static_cast<int>(isa) <= static_cast<int>(dispatched_isa())) {
      isas.push_back(isa);
    }
  }
  return isas;
}

KernelConfig config_of(std::size_t block_size, unsigned workers = 1) {
  KernelConfig config;
  config.block_size = block_size;
  config.workers = workers;
  return config;
}

TEST(BlockedKernel, BitIdenticalToScalarAcrossSizesAndBlocks) {
  for (const std::size_t m :
       {1u, 2u, 5u, 16u, 33u, 64u, 96u, 127u, 200u, 257u, 513u}) {
    for (const std::size_t eta : {m, m / 2, std::size_t{1}}) {
      if (eta == 0) {
        continue;
      }
      const std::vector<double> original = planted_front(m, eta, m + eta);
      std::vector<double> reference = original;
      const long long ref_flops = reference_factor(reference, m, eta);
      for (const DenseIsa isa : runnable_isas()) {
        for (const std::size_t nb : {1u, 3u, 16u, 64u}) {
          std::vector<double> front = original;
          const long long flops =
              detail::make_front_kernel_on(config_of(nb), isa)
                  ->partial_factor(front.data(), m, eta, nullptr);
          // Bit for bit, not merely close: same per-entry update order,
          // same zero skips.
          EXPECT_TRUE(bits_equal(front, reference))
              << "m=" << m << " eta=" << eta << " nb=" << nb << " "
              << to_string(isa);
          EXPECT_EQ(flops, ref_flops)
              << "m=" << m << " eta=" << eta << " nb=" << nb << " "
              << to_string(isa);
        }
      }
    }
  }
}

TEST(ParallelTiledKernel, CurrentImplementationIsBitIdentical) {
  // Every panel leased out in column tiles: disjoint tiles running the
  // same core cannot change a bit, whatever the lease got.
  for (const std::size_t m : {128u, 257u}) {
    const std::vector<double> original = planted_front(m, m / 2, 11);
    std::vector<double> reference = original;
    const long long ref_flops = reference_factor(reference, m, m / 2);
    for (const DenseIsa isa : runnable_isas()) {
      for (const std::size_t nb : {4u, 16u, 48u}) {
        KernelConfig config = config_of(nb, 4);
        config.min_parallel_volume = 0;
        const auto kernel = detail::make_front_kernel_on(config, isa);
        std::vector<double> tiled = original;
        const long long flops =
            kernel->partial_factor(tiled.data(), m, m / 2, nullptr);
        EXPECT_TRUE(bits_equal(tiled, reference))
            << "m=" << m << " nb=" << nb << " " << to_string(isa);
        EXPECT_EQ(flops, ref_flops) << "nb=" << nb;
        const KernelLeaseStats leases = kernel->lease_stats();
        EXPECT_GT(leases.leases_granted + leases.leases_denied, 0);
      }
    }
  }
}

TEST(FrontKernels, DispatchesTheWidestSupportedPath) {
  EXPECT_EQ(make_front_kernel({})->isa(), dispatched_isa());
  for (const DenseIsa isa : runnable_isas()) {
    EXPECT_EQ(detail::make_front_kernel_on({}, isa)->isa(), isa);
  }
  EXPECT_STREQ(to_string(DenseIsa::kPortable), "portable");
}

TEST(FrontKernels, DegenerateFronts) {
  for (const DenseIsa isa : runnable_isas()) {
    KernelConfig config = config_of(4, 2);
    config.min_parallel_volume = 0;
    const auto kernel = detail::make_front_kernel_on(config, isa);

    // eta = 0: no pivots — the front must come back untouched.
    const std::vector<double> original = make_dense_spd_front(12, 5);
    std::vector<double> front = original;
    EXPECT_EQ(kernel->partial_factor(front.data(), 12, 0, nullptr), 0);
    EXPECT_TRUE(bits_equal(front, original));

    // eta = m: a full dense Cholesky; L·Lᵀ must reconstruct the front.
    std::vector<double> full = original;
    kernel->partial_factor(full.data(), 12, 12, nullptr);
    for (std::size_t c = 0; c < 12; ++c) {
      for (std::size_t r = c; r < 12; ++r) {
        double sum = 0.0;
        for (std::size_t k = 0; k <= c; ++k) {
          sum += full[k * 12 + r] * full[k * 12 + c];
        }
        EXPECT_NEAR(sum, original[c * 12 + r], 1e-10)
            << to_string(isa) << " (" << r << "," << c << ")";
      }
    }

    // 1×1 front: sqrt and nothing else.
    std::vector<double> tiny = {9.0};
    EXPECT_EQ(kernel->partial_factor(tiny.data(), 1, 1, nullptr), 1);
    EXPECT_EQ(tiny[0], 3.0);

    // Empty front: a no-op, not a crash.
    EXPECT_EQ(kernel->partial_factor(tiny.data(), 0, 0, nullptr), 0);
  }
}

TEST(FrontKernels, NonPositivePivotThrowsFromEveryKernel) {
  for (const DenseIsa isa : runnable_isas()) {
    const auto kernel = detail::make_front_kernel_on(config_of(4, 2), isa);
    // Identity with a poisoned pivot *beyond* the first panel, so the
    // blocked driver reaches it mid-run.
    std::vector<double> front(16 * 16, 0.0);
    for (std::size_t k = 0; k < 16; ++k) {
      front[k * 16 + k] = 1.0;
    }
    front[9 * 16 + 9] = -2.0;
    EXPECT_THROW(kernel->partial_factor(front.data(), 16, 16, nullptr),
                 Error)
        << to_string(isa);
  }
}

TEST(FrontKernels, ExtendAddScattersChildBlockExactly) {
  const auto kernel = make_front_kernel({});
  // Front over global rows {2, 5, 7, 8}; child CB over rows {5, 8}.
  std::vector<double> front(4 * 4, 1.0);
  const std::vector<double> expected_base = front;
  const Index front_rows[] = {2, 5, 7, 8};
  std::vector<Index> front_pos(9, -1);
  for (std::size_t k = 0; k < 4; ++k) {
    front_pos[static_cast<std::size_t>(front_rows[k])] =
        static_cast<Index>(k);
  }
  const Index cb_rows[] = {5, 8};
  const std::vector<double> cb_values = {10.0, 20.0,   // column 0 (rows 5,8)
                                         0.0, 40.0};   // column 1 (row 8)
  kernel->extend_add(front.data(), 4, front_pos.data(), cb_rows, 2,
                     cb_values.data());
  std::vector<double> expected = expected_base;
  expected[1 * 4 + 1] += 10.0;  // (5,5)
  expected[1 * 4 + 3] += 20.0;  // (8,5)
  expected[3 * 4 + 3] += 40.0;  // (8,8)
  EXPECT_TRUE(bits_equal(front, expected));
}

/// The TSan flagship: the kernel's intra-front leases nested inside
/// factor_parallel's executor workers — two layers of real threads sharing
/// one front buffer layer apart. The lease gate is forced to zero so every
/// panel of every front takes the threaded path.
TEST(KernelInEngine, ParallelTiledInsideFactorParallelIsRaceClean) {
  const NumericInstance inst = build_numeric_instance(
      {"dense-tsan", symmetrize(gen::grid2d(9, 9))},
      OrderingKind::kMinDegree, /*relax=*/2, /*seed=*/29);
  const MultifrontalResult reference = multifrontal_cholesky(
      inst.matrix, inst.assembly,
      reverse_traversal(best_postorder(inst.assembly.tree).order),
      config_of(1));

  ParallelFactorOptions options;
  options.workers = 4;
  options.kernel = config_of(4, 2);
  options.kernel.min_parallel_volume = 0;
  const ParallelFactorResult run =
      factor_parallel(inst.matrix, inst.assembly, options);
  ASSERT_TRUE(run.feasible);
  EXPECT_LE(run.measured_peak_entries, run.modeled_peak_entries);
  EXPECT_EQ(run.flops, reference.flops);
  EXPECT_TRUE(bits_equal(run.factor.values, reference.factor.values));
  EXPECT_GT(run.leases_granted + run.lease_denied, 0);
}

TEST(KernelInEngine, BlockedKernelKeepsSerialDriverBitExact) {
  Prng prng(17);
  const NumericInstance inst = build_numeric_instance(
      {"dense-serial", symmetrize(gen::random_symmetric(64, 3.0, prng))},
      OrderingKind::kNestedDissection, /*relax=*/1, /*seed=*/31);
  const Traversal order =
      reverse_traversal(best_postorder(inst.assembly.tree).order);
  const MultifrontalResult unblocked = multifrontal_cholesky(
      inst.matrix, inst.assembly, order, config_of(1));
  for (const std::size_t nb : {2u, 16u, 96u}) {
    const MultifrontalResult blocked = multifrontal_cholesky(
        inst.matrix, inst.assembly, order, config_of(nb));
    EXPECT_TRUE(bits_equal(blocked.factor.values, unblocked.factor.values))
        << "nb=" << nb;
    EXPECT_EQ(blocked.flops, unblocked.flops) << "nb=" << nb;
    EXPECT_EQ(blocked.peak_live_entries, unblocked.peak_live_entries)
        << "nb=" << nb;
  }
}

}  // namespace
}  // namespace treemem
