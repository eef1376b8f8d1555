// Empirical distribution on fixed bins: the CDF series the paper plots
// (Figs. 5, 7, 12, 13) without keeping the samples.
//
// Every Cdf shares one set of edges: the decimal numbers m * 10^e for
// e in [-9, 9], where m runs over 2.00, 2.01, ..., 9.99 in steps of 0.01
// and over 1.000, 1.005, ..., 1.995 in steps of 0.005, plus 1e10, mirrored
// for negative values, and 0. A bin is either one edge (the samples equal to
// it) or the open interval between two neighbouring edges, so:
//  * an interval bin is at most 0.5% as wide as its lower edge;
//  * fraction_below(x) and fraction_at_least(x) are exact whenever x is an
//    edge, and every CDF point the benches print is one (0.5, 9.99, 29, 100,
//    300, ...);
//  * quantile(q) lies in the bin of the sample quantile it estimates, so
//    within 0.5% of it (and equals it where the samples sit on edges, as
//    integer frame rates do);
//  * count, sum, min and max are kept exactly.
// A sample finds its bin in O(1) from its binary exponent; counts are stored
// only over the span of occupied bins, and merge adds them bin by bin.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace rpv::metrics {

class Cdf {
 public:
  // Throws std::invalid_argument for NaN or an infinite value.
  void add(double v);
  void add_all(const std::vector<double>& vs);
  // Adds every sample of `other`; merge is commutative and associative on
  // the bins, count, min and max (the sum is a floating-point sum).
  void merge(const Cdf& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  // Exact extremes; 0 when empty.
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  // Quantile q in [0, 1]: linear interpolation between the estimated order
  // statistics at ranks floor/ceil(q * (count - 1)); q = 0 and 1 give the
  // exact min and max. 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  // Fraction of samples <= x (the CDF value at x).
  [[nodiscard]] double fraction_below(double x) const;
  // Fraction of samples >= x.
  [[nodiscard]] double fraction_at_least(double x) const;

  // --- Bin geometry, shared by every Cdf ---
  // The bin holding v (ascending bins hold ascending values). v must be
  // finite.
  [[nodiscard]] static std::int32_t bin_of(double v);
  // The closure [lo, hi] of a bin: lo == hi for an edge bin; the outermost
  // bins reach +/-infinity.
  [[nodiscard]] static std::pair<double, double> bounds(std::int32_t bin);
  // Largest bin index in either direction.
  [[nodiscard]] static std::int32_t max_bin();

  // --- Sparse form (the JSON layout) ---
  struct Bin {
    std::int32_t bin = 0;
    std::uint64_t n = 0;
  };
  // Occupied bins in ascending order.
  [[nodiscard]] std::vector<Bin> occupied() const;
  // Inverse of occupied() plus the exact moments. Throws std::runtime_error
  // when the parts cannot come from one Cdf: bins out of range or not
  // strictly ascending, a zero count, a total that overflows, min/max not in
  // the first/last bin, or moments on an empty set.
  [[nodiscard]] static Cdf from_parts(const std::vector<Bin>& bins, double sum,
                                      double min, double max);

  bool operator==(const Cdf&) const = default;

 private:
  // Counts of bins first_ .. first_ + counts_.size() - 1 below `bin`.
  [[nodiscard]] std::uint64_t count_before(std::int32_t bin) const;
  [[nodiscard]] std::uint64_t count_in(std::int32_t bin) const;
  // Share of an interval bin's samples below x (uniform within the bin,
  // clipped to [min, max]).
  [[nodiscard]] double share_below(std::int32_t bin, double x) const;
  [[nodiscard]] double value_at_rank(std::uint64_t rank) const;
  void grow_to(std::int32_t bin);

  std::int32_t first_ = 0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace rpv::metrics
