// Small composable hashing utilities.
//
// Model-checking configurations and linearizability-search memo keys are
// fingerprinted by combining field hashes; we use the standard
// boost-style combiner over a splitmix64-style mix.  Byte strings that
// must hash alike everywhere (history digests, snapshot content hashes)
// use 64-bit FNV-1a.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace tokensync {

/// Mixes `v` into the running hash `seed` (splitmix64-style avalanche).
inline void hash_combine(std::size_t& seed, std::uint64_t v) noexcept {
  v += 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  seed ^= v ^ (v >> 31);
}

/// 64-bit FNV-1a over a contiguous range of byte-sized values (a string
/// or a byte vector).
template <typename Bytes>
std::uint64_t fnv1a(const Bytes& bytes) noexcept {
  std::uint64_t h = 14695981039346656037ull;  // offset basis
  for (const auto b : bytes) {
    h ^= static_cast<unsigned char>(b);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

/// Hash of a vector of integral values.
template <typename T>
std::size_t hash_range(const std::vector<T>& xs) noexcept {
  std::size_t seed = xs.size();
  for (const T& x : xs) hash_combine(seed, static_cast<std::uint64_t>(x));
  return seed;
}

}  // namespace tokensync
