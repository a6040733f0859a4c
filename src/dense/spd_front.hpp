// Shared support for exercising the dense front kernel: deterministic
// dense SPD front synthesis, used by the tests/dense suite and the
// front-kernel benches so the generator recipe cannot drift between them.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "support/prng.hpp"

namespace treemem {

/// A dense SPD front (column-major m×m, lower triangle filled, upper part
/// zero — the storage FrontKernel::partial_factor consumes): off-diagonals
/// in [-0.75, 0.75] with `zero_fraction` exact zeros planted below the
/// diagonal (the kernel's zero-multiplier skip is part of what gets
/// exercised), diagonal made dominant. Deterministic in `seed`.
inline std::vector<double> make_dense_spd_front(std::size_t m,
                                                std::uint64_t seed,
                                                double zero_fraction = 0.2) {
  Prng prng(seed * 7919 + 1);
  std::vector<double> a(m * m, 0.0);
  std::vector<double> row_abs(m, 0.0);
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t r = c + 1; r < m; ++r) {
      const double v = prng.bernoulli(zero_fraction)
                           ? 0.0
                           : 1.5 * prng.uniform_real() - 0.75;
      a[c * m + r] = v;
      row_abs[r] += std::abs(v);
      row_abs[c] += std::abs(v);
    }
  }
  for (std::size_t k = 0; k < m; ++k) {
    a[k * m + k] = 1.0 + row_abs[k];
  }
  return a;
}

}  // namespace treemem
