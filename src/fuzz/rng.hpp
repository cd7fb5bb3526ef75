// Deterministic random stream for the fuzzing subsystem. Hand-rolled
// splitmix64 over an FNV-seeded state (core/hash.hpp): unlike
// std::uniform_int_distribution (whose output is implementation-defined
// across standard libraries), every draw here is a pure function of the
// seed on every platform — the property the byte-deterministic fuzz
// journal and corpus depend on.
#pragma once

#include <cstdint>

#include "core/hash.hpp"

namespace autonet::fuzz {

/// Mixes two 64-bit values into one (FNV-1a over their little-endian
/// bytes); used to derive per-run seeds from the campaign seed and the
/// run index.
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = kFnvOffsetBasis;
  for (int i = 0; i < 8; ++i) {
    h ^= (a >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  for (int i = 0; i < 8; ++i) {
    h ^= (b >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// splitmix64: tiny, fast, and fully specified. Good enough statistical
/// quality for scenario generation; never used for security.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform-ish draw in [0, n); n == 0 returns 0. Modulo bias is
  /// irrelevant at fuzzing's n << 2^64.
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

  /// Draw in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    if (hi <= lo) return lo;
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// True with probability ~ num/den.
  bool chance(std::uint64_t num, std::uint64_t den) {
    return below(den) < num;
  }

 private:
  std::uint64_t state_;
};

}  // namespace autonet::fuzz
