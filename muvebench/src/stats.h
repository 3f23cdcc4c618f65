#ifndef MUVEBENCH_STATS_H_
#define MUVEBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace muvebench {

/// A tail percentile of a sample, with how many samples lie beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< In [0, 100].
  size_t samples = 0;
  size_t beyond = 0;
};

/// Nearest-rank percentile (`q` in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// The tail a sample supports: the nearest-rank `target` percentile when
/// at least `min_beyond` samples lie beyond it, otherwise the highest
/// percentile that still has `min_beyond` samples beyond it. With
/// `min_beyond` samples or fewer no such percentile exists and the
/// maximum is returned with `beyond` = 0.
inline Tail TailPercentile(std::vector<double> values, double target = 0.99,
                           size_t min_beyond = 10) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t index = static_cast<size_t>(std::ceil(target * n));
  index = index == 0 ? 0 : index - 1;
  if (n <= min_beyond) {
    index = n - 1;
  } else if (n - 1 - index < min_beyond) {
    index = n - 1 - min_beyond;
  }
  tail.value = values[index];
  tail.beyond = n - 1 - index;
  tail.percentile = 100.0 * static_cast<double>(index + 1) / n;
  return tail;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

}  // namespace muvebench

#endif  // MUVEBENCH_STATS_H_
