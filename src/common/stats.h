// Streaming and sampled statistics used by the simulator's metric sinks
// and by the analysis/report code.
#pragma once

#include <cstdint>
#include <vector>

namespace d2net {

/// Numerically stable streaming mean/variance/min/max (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-layout logarithmic histogram for latency-like positive values.
///
/// Buckets are [0,1), [1,2), [2,4), ... doubling, up to 2^62; this gives
/// exact counts with ~3 % relative resolution via sub-bucket interpolation,
/// at a constant 63-slot footprint regardless of sample count. Values
/// outside the bucketed range are never folded into the edge buckets —
/// they land in the underflow/overflow counts, so percentile() can never
/// interpolate a saturated tail back into range.
class LogHistogram {
 public:
  void add(std::int64_t value);
  std::int64_t count() const { return total_; }

  /// Approximate p-th percentile (p in [0,100]) by linear interpolation
  /// within the containing bucket, over the in-range samples only. Returns
  /// 0 for an empty histogram.
  double percentile(double p) const;

  double mean() const { return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0; }
  std::int64_t underflow() const { return underflow_; }
  std::int64_t overflow() const { return overflow_; }

 private:
  static constexpr int kBuckets = 63;
  std::int64_t buckets_[kBuckets] = {};
  std::int64_t total_ = 0;
  std::int64_t underflow_ = 0;  ///< Count of negative inputs (out of range).
  std::int64_t overflow_ = 0;   ///< Count of inputs >= 2^62 (out of range).
  double sum_ = 0.0;
};

/// Exact percentile estimator that keeps all samples. Suitable for
/// experiment post-processing where sample counts are bounded.
///
/// percentile() sorts the samples on first use and is therefore non-const:
/// the previous lazy-sort-behind-const design mutated shared state from a
/// method that looked read-only, which is a data race the moment a const
/// SampleSet is shared across threads. Callers needing concurrent reads
/// must sort up front (call percentile once) and share the set immutably
/// afterwards.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  std::size_t count() const { return samples_.size(); }
  double percentile(double p);  ///< Nearest-rank; p in [0,100]. Sorts.
  double mean() const;

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

}  // namespace d2net
