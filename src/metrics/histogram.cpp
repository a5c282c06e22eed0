#include "metrics/histogram.hpp"

#include <algorithm>

namespace qlink::metrics {

double Histogram::percentile(double pct) const {
  if (count_ == 0) return 0.0;
  // Interpolating inside a partly filled bin can overshoot the samples
  // actually seen; the exact extremes bound every estimate.
  const auto observed = [this](double v) { return std::clamp(v, min_, max_); };
  const double clamped = pct < 0.0 ? 0.0 : (pct > 100.0 ? 100.0 : pct);
  // Target rank in [1, count]: the smallest cumulative count covering
  // pct of the samples.
  const double target = clamped / 100.0 * static_cast<double>(count_);
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return observed(kMinValue);
  for (int i = 0; i < kBins; ++i) {
    const double in_bin = static_cast<double>(bins_[static_cast<std::size_t>(i)]);
    if (in_bin == 0.0) continue;
    if (target <= cum + in_bin) {
      const double frac = (target - cum) / in_bin;
      const double lo = bin_lower(i);
      const double hi = bin_lower(i + 1);
      return observed(lo + frac * (hi - lo));
    }
    cum += in_bin;
  }
  return observed(kMaxValue);  // landed in the overflow bin
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
  const auto sub = [](std::uint64_t a, std::uint64_t b) {
    return a >= b ? a - b : 0;
  };
  Histogram out;
  for (int i = 0; i < kBins; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    out.bins_[idx] = sub(bins_[idx], earlier.bins_[idx]);
  }
  out.underflow_ = sub(underflow_, earlier.underflow_);
  out.overflow_ = sub(overflow_, earlier.overflow_);
  out.count_ = sub(count_, earlier.count_);
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
