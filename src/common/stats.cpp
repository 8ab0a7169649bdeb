#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.h"

namespace d2net {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void LogHistogram::add(std::int64_t value) {
  if (value < 0) {
    ++underflow_;
    return;
  }
  // Bucket 0: value 0; bucket b >= 1: [2^(b-1), 2^b).
  const int b = value == 0 ? 0 : 64 - std::countl_zero(static_cast<std::uint64_t>(value));
  if (b >= kBuckets) {
    ++overflow_;
    return;
  }
  buckets_[b]++;
  ++total_;
  sum_ += static_cast<double>(value);
}

double LogHistogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(total_);
  std::int64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const double prev = static_cast<double>(cum);
    cum += buckets_[b];
    if (static_cast<double>(cum) >= target) {
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
      const double hi = b == 0 ? 1.0 : std::ldexp(1.0, b);
      // buckets_[b] > 0 here (empty buckets were skipped above).
      const double frac = (target - prev) / static_cast<double>(buckets_[b]);
      return lo + frac * (hi - lo);
    }
  }
  return std::ldexp(1.0, kBuckets - 1);
}

double SampleSet::percentile(double p) {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  return samples_[rank == 0 ? 0 : rank - 1];
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

}  // namespace d2net
