// 64-bit FNV-1a, the one hash behind pattern_fingerprint and
// value_fingerprint. State-file names embed pattern fingerprints, so its
// outputs must never change.
#pragma once

#include <cstdint>

namespace treemem {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;

/// Folds the 8 bytes of `value` into `h`, least significant byte first.
inline void fnv1a_mix(std::uint64_t& h, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (value >> shift) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
}

}  // namespace treemem
