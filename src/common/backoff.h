#ifndef DEEPSEA_COMMON_BACKOFF_H_
#define DEEPSEA_COMMON_BACKOFF_H_

#include <cstdint>
#include <limits>

namespace deepsea {

/// Capped exponential backoff with deterministic jitter, charged by the
/// fault-retry helper (core/fault_retry.h; see DESIGN.md, "Failure
/// model and recovery").
///
/// The delay for retry k (k = 0 for the first retry) is
///
///   min(cap_seconds, base_seconds * multiplier^k) * (1 + jitter)
///
/// where jitter is drawn uniformly from [-jitter_fraction,
/// +jitter_fraction] by a pure function of (seed, k) — the same seed
/// always produces the same schedule, so fault-injected runs stay
/// replayable bit-for-bit (the library-wide determinism rule; no
/// wall-clock entropy). With the defaults (multiplier 1, no cap, no
/// jitter) DelaySeconds(k) returns base_seconds exactly, preserving the
/// historical fixed-backoff charge.
struct BackoffConfig {
  double base_seconds = 0.0;
  double multiplier = 1.0;
  double cap_seconds = std::numeric_limits<double>::infinity();
  /// Relative jitter half-width in [0, 1): 0.2 spreads each delay over
  /// +/-20% of its nominal value.
  double jitter_fraction = 0.0;
};

class DeterministicBackoff {
 public:
  DeterministicBackoff(const BackoffConfig& config, uint64_t seed)
      : config_(config), seed_(seed) {}

  /// Delay in (simulated) seconds to charge for retry `retry` (>= 0).
  /// Pure: the same (config, seed, retry) triple always yields the same
  /// value, and consecutive calls need no state.
  double DelaySeconds(int retry) const;

  const BackoffConfig& config() const { return config_; }

 private:
  BackoffConfig config_;
  uint64_t seed_;
};

}  // namespace deepsea

#endif  // DEEPSEA_COMMON_BACKOFF_H_
