#include "metrics/cdf.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace rpv::metrics {
namespace {

// Edge k (0 <= k <= kEdges - 1) is m * 10^(e-3) with e = kMinExp + k / 1000
// and m = 1000 + 5 j for j = k % 1000 < 200, else 2000 + 10 (j - 200); the
// last edge is 1e10.
constexpr int kMinExp = -9;
constexpr int kDecades = 19;
constexpr int kPerDecade = 1000;
constexpr int kHalfSteps = 200;  // 1.000 .. 1.995 in steps of 0.005
constexpr int kLastEdge = kDecades * kPerDecade;
constexpr int kEdges = kLastEdge + 1;

// Bins on the non-negative side: 0 is the value 0, 1 the interval
// (0, edge 0), 2 + 2k edge k and 3 + 2k the interval above it (the last one
// reaches +infinity). A negative value -a sits in bin -(bin of a).
constexpr std::int32_t kMaxBin = 3 + 2 * kLastEdge;
// Binary exponents of the values between the first and the last edge.
constexpr int kMinLog2 = -30;  // 2^-30 < 1e-9
constexpr int kMaxLog2 = 34;   // 2^34 > 1e10

double pow10(int k) {
  double p = 1.0;
  for (int i = 0; i < k; ++i) p *= 10.0;  // exact up to 10^22
  return p;
}

struct Tables {
  // Each edge is the double nearest its decimal value: one correctly rounded
  // product or quotient of exact integers, the same double a literal gives.
  std::array<double, kEdges> edge{};
  // 10^(3 - e) for decade d (e = kMinExp + d): brings the decade to
  // [1000, 10000). Inexact above 10^12 only in the last ulp; bin_of corrects.
  std::array<double, kDecades> scale{};
  // Decade of 2^k, k = kMinLog2 .. kMaxLog2: the value's decade or the one
  // below it.
  std::array<int, kMaxLog2 - kMinLog2 + 1> decade_of_log2{};
};

Tables make_tables() {
  Tables t;
  for (int k = 0; k < kEdges; ++k) {
    const int exp10 = kMinExp + k / kPerDecade - 3;
    const int j = k % kPerDecade;
    const double m = j < kHalfSteps ? 1000 + 5 * j : 2000 + 10 * (j - kHalfSteps);
    t.edge[static_cast<std::size_t>(k)] =
        exp10 >= 0 ? m * pow10(exp10) : m / pow10(-exp10);
  }
  for (int d = 0; d < kDecades; ++d) {
    const int exp10 = 3 - (kMinExp + d);
    t.scale[static_cast<std::size_t>(d)] =
        exp10 >= 0 ? pow10(exp10) : 1.0 / pow10(-exp10);
  }
  for (int k = kMinLog2; k <= kMaxLog2; ++k) {
    int d = 0;
    while (d + 1 < kDecades &&
           t.edge[static_cast<std::size_t>((d + 1) * kPerDecade)] <= std::ldexp(1.0, k)) {
      ++d;
    }
    t.decade_of_log2[static_cast<std::size_t>(k - kMinLog2)] = d;
  }
  return t;
}

const Tables kTables = make_tables();

// Bin of a > 0 on the non-negative side.
std::int32_t positive_bin(double a) {
  const auto& e = kTables.edge;
  if (a < e[0]) return 1;
  if (a >= e[kLastEdge]) return a == e[kLastEdge] ? 2 + 2 * kLastEdge : kMaxBin;
  // a is normal here: its biased exponent is floor(log2 a), which fixes the
  // decade to within one.
  const int log2 =
      static_cast<int>((std::bit_cast<std::uint64_t>(a) >> 52) & 0x7ff) - 1023;
  int d = kTables.decade_of_log2[static_cast<std::size_t>(log2 - kMinLog2)];
  if (d + 1 < kDecades && a >= e[static_cast<std::size_t>((d + 1) * kPerDecade)]) ++d;
  const int n = std::clamp(
      static_cast<int>(a * kTables.scale[static_cast<std::size_t>(d)]), 1000, 9999);
  int k = d * kPerDecade +
          (n < 2000 ? (n - 1000) / 5 : kHalfSteps + (n - 2000) / 10);
  // The scaled value can round across one edge either way.
  while (a < e[static_cast<std::size_t>(k)]) --k;
  while (a >= e[static_cast<std::size_t>(k) + 1]) ++k;
  return a == e[static_cast<std::size_t>(k)] ? 2 + 2 * k : 3 + 2 * k;
}

}  // namespace

std::int32_t Cdf::bin_of(double v) {
  if (v == 0.0) return 0;
  return v < 0.0 ? -positive_bin(-v) : positive_bin(v);
}

std::pair<double, double> Cdf::bounds(std::int32_t bin) {
  const std::int32_t p = bin < 0 ? -bin : bin;
  const auto& e = kTables.edge;
  double lo = 0.0;
  double hi = 0.0;
  if (p == 1) {
    hi = e[0];
  } else if (p > 1) {
    const auto k = static_cast<std::size_t>((p - 2) / 2);
    lo = e[k];
    hi = p % 2 == 0 ? lo
         : k == kLastEdge ? std::numeric_limits<double>::infinity()
                          : e[k + 1];
  }
  if (bin < 0) return {-hi, -lo};
  return {lo, hi};
}

std::int32_t Cdf::max_bin() { return kMaxBin; }

void Cdf::grow_to(std::int32_t bin) {
  if (counts_.empty()) {
    first_ = bin;
    counts_.assign(1, 0);
  } else if (bin < first_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(first_ - bin), 0);
    first_ = bin;
  } else if (bin - first_ >= static_cast<std::int32_t>(counts_.size())) {
    counts_.resize(static_cast<std::size_t>(bin - first_) + 1, 0);
  }
}

void Cdf::add(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("Cdf: sample must be finite");
  const std::int32_t bin = bin_of(v);
  const auto i = static_cast<std::size_t>(bin - first_);  // wraps below first_
  if (i < counts_.size()) {
    ++counts_[i];
  } else {
    grow_to(bin);
    ++counts_[static_cast<std::size_t>(bin - first_)];
  }
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Cdf::add_all(const std::vector<double>& vs) {
  for (const double v : vs) add(v);
}

void Cdf::merge(const Cdf& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  grow_to(other.first_);
  grow_to(other.first_ + static_cast<std::int32_t>(other.counts_.size()) - 1);
  const auto offset = static_cast<std::size_t>(other.first_ - first_);
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[offset + i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Cdf::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::uint64_t Cdf::count_before(std::int32_t bin) const {
  const auto end = static_cast<std::size_t>(std::clamp<std::int64_t>(
      std::int64_t{bin} - first_, 0, static_cast<std::int64_t>(counts_.size())));
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < end; ++i) n += counts_[i];
  return n;
}

std::uint64_t Cdf::count_in(std::int32_t bin) const {
  const std::int64_t i = std::int64_t{bin} - first_;
  if (i < 0 || i >= static_cast<std::int64_t>(counts_.size())) return 0;
  return counts_[static_cast<std::size_t>(i)];
}

double Cdf::share_below(std::int32_t bin, double x) const {
  const auto [lo, hi] = bounds(bin);
  const double a = std::max(lo, min_);
  const double b = std::min(hi, max_);
  if (b <= a) return x >= b ? 1.0 : 0.0;
  return std::clamp((x - a) / (b - a), 0.0, 1.0);
}

double Cdf::value_at_rank(std::uint64_t rank) const {
  if (rank == 0) return min_;
  if (rank + 1 >= count_) return max_;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t c = counts_[i];
    if (seen + c > rank) {
      const auto [lo, hi] = bounds(first_ + static_cast<std::int32_t>(i));
      if (lo == hi) return lo;
      // Spread the bin's samples evenly over the part of it the data spans.
      const double a = std::max(lo, min_);
      const double b = std::min(hi, max_);
      return a + (b - a) * (static_cast<double>(rank - seen) + 0.5) /
                     static_cast<double>(c);
    }
    seen += c;
  }
  return max_;
}

double Cdf::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double idx = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(std::floor(idx));
  const auto hi = static_cast<std::uint64_t>(std::ceil(idx));
  const double v_lo = value_at_rank(lo);
  if (lo == hi) return v_lo;
  const double f = idx - static_cast<double>(lo);
  return v_lo * (1.0 - f) + value_at_rank(hi) * f;
}

double Cdf::fraction_below(double x) const {
  if (count_ == 0 || std::isnan(x)) return 0.0;
  if (x >= max_) return 1.0;
  if (x < min_) return 0.0;
  const std::int32_t bin = bin_of(x);
  const std::uint64_t below = count_before(bin);
  const auto [lo, hi] = bounds(bin);
  if (lo == hi) {
    return static_cast<double>(below + count_in(bin)) / static_cast<double>(count_);
  }
  return (static_cast<double>(below) +
          static_cast<double>(count_in(bin)) * share_below(bin, x)) /
         static_cast<double>(count_);
}

double Cdf::fraction_at_least(double x) const {
  if (count_ == 0 || std::isnan(x)) return 0.0;
  if (x <= min_) return 1.0;
  if (x > max_) return 0.0;
  const std::int32_t bin = bin_of(x);
  const std::uint64_t below = count_before(bin);
  const auto [lo, hi] = bounds(bin);
  if (lo == hi) {
    return static_cast<double>(count_ - below) / static_cast<double>(count_);
  }
  return (static_cast<double>(count_ - below) -
          static_cast<double>(count_in(bin)) * share_below(bin, x)) /
         static_cast<double>(count_);
}

std::vector<Cdf::Bin> Cdf::occupied() const {
  std::vector<Bin> out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > 0) {
      out.push_back({first_ + static_cast<std::int32_t>(i), counts_[i]});
    }
  }
  return out;
}

Cdf Cdf::from_parts(const std::vector<Bin>& bins, double sum, double min,
                    double max) {
  auto fail = [](const char* what) {
    throw std::runtime_error(std::string{"Cdf: "} + what);
  };
  Cdf c;
  if (!std::isfinite(sum) || !std::isfinite(min) || !std::isfinite(max)) {
    fail("sum, min and max must be finite");
  }
  if (bins.empty()) {
    if (sum != 0.0 || min != 0.0 || max != 0.0) fail("moments of an empty set");
    return c;
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const auto& b = bins[i];
    if (b.bin < -kMaxBin || b.bin > kMaxBin) fail("bin out of range");
    if (i > 0 && b.bin <= bins[i - 1].bin) fail("bins not strictly ascending");
    if (b.n == 0) fail("zero count");
    if (total + b.n < total) fail("count overflows");
    total += b.n;
  }
  if (!(min <= max) || bin_of(min) != bins.front().bin ||
      bin_of(max) != bins.back().bin || (total == 1 && min != max)) {
    fail("min and max do not match the bins");
  }
  c.first_ = bins.front().bin;
  c.counts_.assign(static_cast<std::size_t>(bins.back().bin - c.first_) + 1, 0);
  for (const auto& b : bins) c.counts_[static_cast<std::size_t>(b.bin - c.first_)] = b.n;
  c.count_ = total;
  c.sum_ = sum;
  c.min_ = min;
  c.max_ = max;
  return c;
}

}  // namespace rpv::metrics
