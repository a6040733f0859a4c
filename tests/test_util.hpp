// Shared helpers for the treemem test suite.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <vector>

#include "support/prng.hpp"
#include "tree/generators.hpp"
#include "tree/tree.hpp"

// Sanitizer detection, shared so capacity-limited tests (deep recursion
// blows TSan's shadow stack; ASan's redzones inflate every frame) scale or
// skip consistently. GCC defines __SANITIZE_*__, Clang goes through
// __has_feature.
#if defined(__SANITIZE_THREAD__)
#define TREEMEM_TSAN 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define TREEMEM_ASAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TREEMEM_TSAN 1
#endif
#if __has_feature(address_sanitizer)
#define TREEMEM_ASAN 1
#endif
#endif

namespace treemem::testing {

/// A deterministic zoo of small hand-built trees exercising assorted shapes
/// and weight regimes (including zero files and negative execution files
/// from variant-model transforms).
inline Tree tiny_chain() { return gen::chain(5, 3, 2); }

inline Tree tiny_star() { return gen::star(4, 5, 1); }

/// The running example used across several tests: root 0 (f=0,n=1) with
/// children 1 (f=4,n=0) and 2 (f=6,n=2); node 3 (f=2,n=0) under 1 and
/// node 4 (f=3,n=1) under 2.
inline Tree tiny_mixed() {
  TreeBuilder b;
  const NodeId r = b.add_root(0, 1);
  const NodeId a = b.add_child(r, 4, 0);
  const NodeId c = b.add_child(r, 6, 2);
  b.add_child(a, 2, 0);
  b.add_child(c, 3, 1);
  return std::move(b).build();
}

/// Random tree with the given seed; sizes and shape vary with the seed so
/// parameterized sweeps cover many regimes.
inline Tree seeded_random_tree(std::uint64_t seed, NodeId size) {
  Prng prng(seed);
  gen::RandomTreeOptions options;
  options.chain_bias = 0.15 + 0.7 * prng.uniform_real();
  options.min_file = 0;
  options.max_file = 1 + static_cast<Weight>(prng.uniform_int(1, 40));
  options.min_work = 0;
  options.max_work = static_cast<Weight>(prng.uniform_int(0, 15));
  return gen::random_tree(size, options, prng);
}

/// The shared small-tree corpus for exhaustive cross-validation against the
/// brute-force solvers: `count` seeded random trees of 1..max_size nodes,
/// cycling through sizes and shape/weight regimes (including zero files and
/// zero works). Deterministic: same arguments, same trees, on every
/// platform.
inline std::vector<Tree> small_tree_corpus(int count, NodeId max_size,
                                           std::uint64_t salt = 0) {
  std::vector<Tree> corpus;
  corpus.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const NodeId size = 1 + static_cast<NodeId>(i) % max_size;
    corpus.push_back(
        seeded_random_tree(salt + 0x9e3779b9ULL * static_cast<std::uint64_t>(i),
                           size));
  }
  return corpus;
}

/// Bit-for-bit equality of two value arrays. operator== on doubles calls
/// -0.0 and +0.0 equal, so a kernel that applied a skipped zero-multiplier
/// update (which can flip the sign of a zero) would pass it; this does
/// not. Use as EXPECT_TRUE(bits_equal(actual, expected)).
inline ::testing::AssertionResult bits_equal(const std::vector<double>& a,
                                             const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return ::testing::AssertionFailure()
             << "first difference at offset " << i << ": " << std::hexfloat
             << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace treemem::testing
