// Extension bench: the dense front-kernel microbenchmark — ISA path ×
// front size × block size, GFLOP/s per cell, into front_kernels.csv.
//
// Synthesizes deterministic dense SPD fronts (the multifrontal engine's
// inner payload, isolated from the tree) and times partial_factor at both
// a full Cholesky (η = m) and the representative partial front (η = m/2):
// serially on the portable path and on the dispatched SIMD path across
// block sizes, then with the trailing updates leased out to the worker
// pool. Every cell is cross-checked bit for bit against the portable
// path's factor (itself pinned to the scalar reference by tests/dense), so
// a kernel regression cannot hide behind a fast wrong answer.
//
// TREEMEM_SCALE ≥ 2 adds larger fronts (the regime where the register
// tiles and intra-front leases pay); the leased cells' worker count
// honors TREEMEM_THREADS via the pool size.
#include <algorithm>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "dense/front_kernel.hpp"
#include "dense/spd_front.hpp"
#include "parallel/worker_pool.hpp"
#include "support/check.hpp"
#include "support/csv.hpp"
#include "support/text_table.hpp"

namespace {

using namespace treemem;

std::string fmt(double v, int precision = 2) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

struct Cell {
  DenseIsa isa = DenseIsa::kPortable;
  KernelConfig config;
};

int run() {
  const double scale = bench::scale_from_env();
  std::vector<std::size_t> sizes = {64, 128, 256, 512};
  if (scale >= 2.0) {
    sizes.push_back(768);
  }
  if (scale >= 4.0) {
    sizes.push_back(1024);
  }
  const DenseIsa simd = dispatched_isa();

  bench::print_header(
      "Extension — dense front kernel: portable vs " +
      std::string(to_string(simd)) + " path, serial and leased, GFLOP/s");

  CsvWriter csv(bench::output_dir() + "/front_kernels.csv",
                {"isa", "block_size", "workers", "m", "eta", "seconds",
                 "gflops"});
  TextTable table({"m", "eta", "portable GF/s", "serial GF/s (nb)",
                   "leased GF/s", "SIMD speedup"});

  const unsigned pool_workers = WorkerPool::instance().size();
  const auto serial = [](std::size_t nb) {
    KernelConfig config;
    config.block_size = nb;
    config.workers = 1;
    return config;
  };
  // Leased: the production configuration, with the lease gate forced open
  // so the column measures intra-front parallelism (and its overhead on
  // small fronts) rather than re-measuring the serial kernel.
  KernelConfig leased;
  leased.min_parallel_volume = 0;
  // The portable cell runs first: its factor is the reference.
  const std::vector<Cell> cells = {{DenseIsa::kPortable, serial(16)},
                                   {simd, serial(16)},
                                   {simd, serial(48)},
                                   {simd, serial(96)},
                                   {simd, leased}};

  for (const std::size_t m : sizes) {
    for (const std::size_t eta : {m, m / 2}) {
      if (eta == 0) {
        continue;
      }
      const std::vector<double> original = make_dense_spd_front(m, m + eta);
      std::vector<double> reference;
      const int reps = m >= 512 ? 3 : 5;
      double portable = 0.0, best_serial = 0.0, leased_gflops = 0.0;
      std::size_t best_nb = 0;
      for (const Cell& cell : cells) {
        const auto kernel = detail::make_front_kernel_on(cell.config, cell.isa);
        std::vector<double> work;
        long long flops = 0;
        const double seconds = bench::median_time_s(
            [&] {
              work = original;
              flops = kernel->partial_factor(work.data(), m, eta, nullptr);
            },
            reps);
        if (reference.empty()) {
          reference = work;
        }
        // Bitwise comparison: -0.0 and +0.0 differ here.
        TM_CHECK(std::memcmp(work.data(), reference.data(),
                             work.size() * sizeof(double)) == 0,
                 to_string(cell.isa)
                     << " kernel diverged from the portable path at m=" << m
                     << " nb=" << cell.config.block_size);
        const double gflops =
            static_cast<double>(flops) / std::max(seconds, 1e-12) / 1e9;
        const bool is_leased = cell.config.workers != 1;
        if (cell.isa == DenseIsa::kPortable && !is_leased) {
          portable = gflops;
        }
        if (is_leased) {
          leased_gflops = gflops;
        } else if (cell.isa == simd && gflops > best_serial) {
          best_serial = gflops;
          best_nb = cell.config.block_size;
        }
        csv.write_row(
            {to_string(cell.isa),
             CsvWriter::cell(static_cast<long long>(cell.config.block_size)),
             CsvWriter::cell(
                 static_cast<long long>(is_leased ? pool_workers : 1)),
             CsvWriter::cell(static_cast<long long>(m)),
             CsvWriter::cell(static_cast<long long>(eta)),
             CsvWriter::cell(seconds), CsvWriter::cell(gflops)});
      }
      table.add_row({std::to_string(m), std::to_string(eta), fmt(portable),
                     fmt(best_serial) + " (" + std::to_string(best_nb) + ")",
                     fmt(leased_gflops),
                     fmt(best_serial / std::max(portable, 1e-12)) + "x"});
    }
  }

  std::cout << table.to_string();
  std::cout << "\nreading: the register-tiled trailing update keeps a\n"
               "4-column tile in vector registers across each 16-pivot\n"
               "panel, so the SIMD path's lead over the portable one grows\n"
               "with the front (the multifrontal root-front regime); leased\n"
               "cells add up to workers = " +
                   std::to_string(pool_workers) +
                   " pool workers per panel on top.\nEvery cell is checked "
                   "bit-identical to the portable path's factor.\n";
  std::cout << "raw data: " << csv.path() << "\n";
  return 0;
}

}  // namespace

int main() { return run(); }
