// FNV-1a 64-bit: the one content hash every layer uses — checkpoint
// manifests and input/options signatures, FibCache keys, campaign run
// seeds, deploy archive checksums and fuzz scenario seeds. Header-only (like
// core/error.hpp) so any library can use it without linking the core
// library. Stable across platforms: persisted hashes and seeds depend on
// these values never changing.
#pragma once

#include <cstdint>
#include <string_view>

namespace autonet {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a 64 over `data`, continuing from `basis` (the standard offset
/// basis by default).
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view data,
                                            std::uint64_t basis = kFnvOffsetBasis) {
  std::uint64_t h = basis;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace autonet
