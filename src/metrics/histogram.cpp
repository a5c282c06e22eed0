#include "metrics/histogram.hpp"

#include <algorithm>

namespace qlink::metrics {

namespace {

/// a - b for monotone counters, clamped at 0 so a mismatched snapshot
/// pair degrades rather than wraps.
std::uint64_t counter_delta(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : 0;
}

/// Histogram::percentile over any bin view: `bin(i)` is bin i's count.
template <typename BinCount>
double percentile_of(std::uint64_t count, std::uint64_t underflow,
                     BinCount bin, double min, double max, double pct) {
  if (count == 0) return 0.0;
  // Interpolating inside a partly filled bin can overshoot the samples
  // actually seen; the exact extremes bound every estimate.
  const auto observed = [min, max](double v) {
    return std::clamp(v, min, max);
  };
  const double clamped = pct < 0.0 ? 0.0 : (pct > 100.0 ? 100.0 : pct);
  // Target rank in [1, count]: the smallest cumulative count covering
  // pct of the samples.
  const double target = clamped / 100.0 * static_cast<double>(count);
  double cum = static_cast<double>(underflow);
  if (target <= cum) return observed(Histogram::kMinValue);
  for (int i = 0; i < Histogram::kBins; ++i) {
    const double in_bin = static_cast<double>(bin(i));
    if (in_bin == 0.0) continue;
    if (target <= cum + in_bin) {
      const double frac = (target - cum) / in_bin;
      const double lo = Histogram::bin_lower(i);
      const double hi = Histogram::bin_lower(i + 1);
      return observed(lo + frac * (hi - lo));
    }
    cum += in_bin;
  }
  return observed(Histogram::kMaxValue);  // landed in the overflow bin
}

}  // namespace

double Histogram::percentile(double pct) const {
  return percentile_of(count_, underflow_,
                       [this](int i) { return bin_count(i); }, min_, max_,
                       pct);
}

std::uint64_t Histogram::count_since(const Histogram& earlier) const {
  return counter_delta(count_, earlier.count_);
}

double Histogram::percentile_since(const Histogram& earlier,
                                   double pct) const {
  // delta_since keeps the stream-cumulative extremes: so does this.
  return percentile_of(
      count_since(earlier), counter_delta(underflow_, earlier.underflow_),
      [&](int i) { return counter_delta(bin_count(i), earlier.bin_count(i)); },
      min_, max_, pct);
}

Histogram& Histogram::operator+=(const Histogram& other) {
  for (int i = 0; i < kBins; ++i) {
    bins_[static_cast<std::size_t>(i)] +=
        other.bins_[static_cast<std::size_t>(i)];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
  // Element-wise extremes: an empty side carries neutral sentinels, so
  // no count guard is needed.
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  return *this;
}

Histogram Histogram::delta_since(const Histogram& earlier) const {
  Histogram out;
  for (int i = 0; i < kBins; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    out.bins_[idx] = counter_delta(bins_[idx], earlier.bins_[idx]);
  }
  out.underflow_ = counter_delta(underflow_, earlier.underflow_);
  out.overflow_ = counter_delta(overflow_, earlier.overflow_);
  out.count_ = counter_delta(count_, earlier.count_);
  out.sum_ = sum_ - earlier.sum_;
  // Interval-local extremes are not derivable from two cumulative
  // snapshots (the interval's min may predate `earlier`'s max); carry
  // the stream-cumulative extremes so delta consumers still see exact
  // bounds for everything recorded so far.
  out.min_ = min_;
  out.max_ = max_;
  return out;
}

}  // namespace qlink::metrics
