// FNV-1a 64-bit — the codebase's one non-cryptographic hash. It keys
// canonical fault patterns (campaign/canonical.hpp plan_key and the
// campaign runner's fingerprint set), certifyd's latency-constraint plan-key
// suffix (service/cache.cpp) and schedule_hash (sched/schedule.hpp).
#pragma once

#include <cstdint>
#include <string_view>

namespace ftsched {

/// The standard FNV-1a 64 offset basis and prime.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// The basis the fault-pattern and latency-constraint hashes have always
/// started from: the standard basis with its last decimal digit dropped.
/// Any start state spreads keys equally well; it is kept so plan keys (and
/// certifyd's published `-q` suffixes) stay bit-identical.
inline constexpr std::uint64_t kFnv1aShortBasis = 1469598103934665603ULL;

class Fnv1a {
 public:
  constexpr explicit Fnv1a(std::uint64_t basis = kFnv1aBasis) noexcept
      : state_(basis) {}

  constexpr void byte(unsigned char b) noexcept {
    state_ ^= b;
    state_ *= kFnv1aPrime;
  }
  constexpr void bytes(std::string_view s) noexcept {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  /// Mixes `v` as its 8 little-endian bytes.
  constexpr void u64(std::uint64_t v) noexcept {
    for (int shift = 0; shift < 64; shift += 8) {
      byte(static_cast<unsigned char>(v >> shift));
    }
  }

  [[nodiscard]] constexpr std::uint64_t value() const noexcept {
    return state_;
  }

 private:
  std::uint64_t state_;
};

[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view bytes, std::uint64_t basis = kFnv1aBasis) noexcept {
  Fnv1a hash(basis);
  hash.bytes(bytes);
  return hash.value();
}

}  // namespace ftsched
