#pragma once

#include <array>
#include <cmath>
#include <cstdint>

/// \file histogram.hpp
/// Fixed-bin log-scale streaming histogram (ISSUE 6).
///
/// The evaluation of Section 6.2 is built from per-request latency and
/// fidelity *distributions*, not just means — and the coming per-shard
/// simulators must be able to record independently and merge at report
/// time (the Scalable Commutativity Rule: recording into disjoint
/// fixed-size bin arrays commutes, merging is element-wise addition).
/// Hence: one compile-time bin layout shared by every instance, O(1)
/// record, and operator+= as the merge.
///
/// Layout: kBinsPerDecade logarithmic bins per decade spanning
/// [kMinValue, kMaxValue) = [1e-9, 1e3), which covers nanosecond event
/// gaps through kilosecond waits in one layout — and fidelities in
/// (0, 1] land in the top decades with ~7% bin width. Values below the
/// range (including <= 0) count in the underflow bin, values at or
/// above it in the overflow bin; percentile() clamps those bins to the
/// range edges.

namespace qlink::metrics {

class Histogram {
 public:
  static constexpr double kMinValue = 1e-9;
  static constexpr double kMaxValue = 1e3;
  static constexpr int kDecades = 12;  // log10(kMaxValue / kMinValue)
  static constexpr int kBinsPerDecade = 32;
  static constexpr int kBins = kDecades * kBinsPerDecade;

  /// O(1): one log10 and one array increment.
  void record(double x) {
    ++count_;
    sum_ += x;
    // Exact extremes survive even when the value itself clamps into
    // the underflow/overflow bins (ISSUE 8). NaN is excluded by the
    // comparisons, matching its exclusion from every bin's range.
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    if (!(x >= kMinValue)) {  // also catches NaN, <= 0
      ++underflow_;
      return;
    }
    if (x >= kMaxValue) {
      ++overflow_;
      return;
    }
    const int bin = static_cast<int>(std::log10(x / kMinValue) *
                                     kBinsPerDecade);
    ++bins_[static_cast<std::size_t>(
        bin < 0 ? 0 : (bin >= kBins ? kBins - 1 : bin))];
  }

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  std::uint64_t underflow() const noexcept { return underflow_; }
  std::uint64_t overflow() const noexcept { return overflow_; }

  /// Exact observed extremes — not clamped to [kMinValue, kMaxValue),
  /// so an outlier that landed in the underflow/overflow bin is still
  /// reported faithfully. 0 when empty (the RunningStat convention).
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Percentile (0..100) estimate: walk the cumulative counts to the
  /// target rank and interpolate linearly inside the landing bin.
  /// Returns 0 when empty; the underflow/overflow bins clamp to the
  /// layout's range edges, and every estimate to [min(), max()].
  double percentile(double pct) const;
  double p50() const { return percentile(50.0); }
  double p90() const { return percentile(90.0); }
  double p99() const { return percentile(99.0); }

  /// Shard merge: element-wise addition. Every instance shares the one
  /// compile-time layout, so merging is always well-defined.
  Histogram& operator+=(const Histogram& other);

  /// Interval delta (ISSUE 7): the samples recorded into *this but not
  /// yet into `earlier`, where `earlier` is a past snapshot of the same
  /// recorder (every counter of *this >= its counterpart — bins are
  /// monotone, so element-wise subtraction is exact); counts are
  /// clamped at 0 so a mismatched pair degrades rather than wraps.
  Histogram delta_since(const Histogram& earlier) const;
  /// delta_since(earlier).count() and .percentile(pct), read straight
  /// off the two snapshots' bins without building the delta (the
  /// monitor's per-interval columns).
  std::uint64_t count_since(const Histogram& earlier) const;
  double percentile_since(const Histogram& earlier, double pct) const;

  /// Lower edge of bin i (for reporting / tests).
  static double bin_lower(int i) {
    return kMinValue * std::pow(10.0, static_cast<double>(i) /
                                          kBinsPerDecade);
  }
  std::uint64_t bin_count(int i) const {
    return bins_[static_cast<std::size_t>(i)];
  }

 private:
  std::array<std::uint64_t, kBins> bins_{};
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  // Sentinels chosen so merging an empty side is the identity
  // (std::min/std::max absorb them) — same trick as RunningStat.
  double min_ = 1e300;
  double max_ = -1e300;
};

}  // namespace qlink::metrics
