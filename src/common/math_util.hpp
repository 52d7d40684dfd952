// Small integer/float helpers shared across modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace dfc {

/// Ceiling division for non-negative integers (a >= 0, b > 0, enforced).
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  DFC_REQUIRE(a >= 0, "ceil_div needs a non-negative numerator");
  DFC_REQUIRE(b > 0, "ceil_div needs a positive divisor");
  return (a + b - 1) / b;
}

/// Rounds `a` up to the next multiple of `b` (a >= 0, b > 0, enforced).
constexpr std::int64_t round_up(std::int64_t a, std::int64_t b) {
  return ceil_div(a, b) * b;
}

/// True if `x` is a power of two (x > 0).
constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// ceil(log2(x)) for x >= 1 (enforced: ceil_log2(0) has no defined value and
/// previously returned 0, silently aliasing the x == 1 answer).
constexpr int ceil_log2(std::uint64_t x) {
  DFC_REQUIRE(x >= 1, "ceil_log2 needs x >= 1");
  int bits = 0;
  std::uint64_t v = 1;
  while (v < x) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

/// Relative-plus-absolute float comparison suitable for accumulated sums that
/// are reassociated by the hardware tree adder.
inline bool almost_equal(float a, float b, float rel = 1e-4f, float abs = 1e-5f) {
  const float diff = std::fabs(a - b);
  if (diff <= abs) return true;
  const float largest = std::fmax(std::fabs(a), std::fabs(b));
  return diff <= rel * largest;
}

/// Zero-based position of the nearest-rank pct-th percentile (pct in
/// [0, 100]) in a sorted sample of n >= 1 elements: rank ceil(pct/100 * n),
/// clamped to [1, n], so p0 maps to the minimum. The epsilon keeps
/// exact-integer products (e.g. 99.9% of 2000 = 1998) from ceiling one rank
/// too high off a one-ulp rounding error.
inline std::size_t nearest_rank_index(double pct, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

/// Nearest-rank percentile of an unsorted sample (pct in [0, 100]): the
/// smallest element with at least pct% of the sample at or below it. Returns
/// 0 on an empty sample so latency reports degrade gracefully when nothing
/// completed (e.g. a fully shed serving run).
inline std::uint64_t percentile_nearest_rank(std::vector<std::uint64_t> sample, double pct) {
  DFC_REQUIRE(pct >= 0.0 && pct <= 100.0, "percentile must be in [0, 100]");
  if (sample.empty()) return 0;
  const auto nth = sample.begin() + static_cast<std::ptrdiff_t>(
                                        nearest_rank_index(pct, sample.size()));
  std::nth_element(sample.begin(), nth, sample.end());
  return *nth;
}

/// The tail quantiles every latency report uses.
struct LatencyPercentiles {
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  /// p99.9 — the tail that matters at "millions of users" scale. Nearest
  /// rank: with fewer than 1000 samples it degenerates to the maximum.
  std::uint64_t p999 = 0;
};

/// Selects the four quantiles without sorting: each std::nth_element call
/// leaves everything above its pick in the tail, so the next, higher rank is
/// searched for only there. Pass the sample by std::move where the caller
/// no longer needs it.
inline LatencyPercentiles latency_percentiles(std::vector<std::uint64_t> sample) {
  LatencyPercentiles p;
  if (sample.empty()) return p;
  auto unsorted = sample.begin();  // no element before it exceeds any element from it on
  auto select = [&](double pct) {
    const auto nth = sample.begin() + static_cast<std::ptrdiff_t>(
                                          nearest_rank_index(pct, sample.size()));
    if (nth >= unsorted) {  // else the previous, equal rank already placed it
      std::nth_element(unsorted, nth, sample.end());
      unsorted = nth + 1;
    }
    return *nth;
  };
  p.p50 = select(50.0);
  p.p95 = select(95.0);
  p.p99 = select(99.0);
  p.p999 = select(99.9);
  return p;
}

/// Maximum absolute elementwise difference between two equally sized ranges.
template <typename Range>
double max_abs_diff(const Range& a, const Range& b) {
  DFC_REQUIRE(a.size() == b.size(), "max_abs_diff: size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::fmax(worst, std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return worst;
}

}  // namespace dfc
