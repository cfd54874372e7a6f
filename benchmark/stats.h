// Statistics helpers of the benchmark: percentiles over latency samples,
// quartile summaries over repeated runs, and rates. main.cc runs
// SelfCheck() at startup, so a broken helper fails the benchmark instead
// of skewing its numbers.
#ifndef GUMBO_BENCHMARK_STATS_H_
#define GUMBO_BENCHMARK_STATS_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace gumbo::bm {

/// Samples a percentile must leave beyond it to be reported.
inline constexpr size_t kMinTailSamples = 10;

/// The p-th percentile (p in (0, 1]) of `samples`: the value at rank
/// ceil(p * n) - 1 of the sorted samples. nullopt when fewer than
/// kMinTailSamples samples lie beyond that rank, since such a tail is one
/// or two outliers, not a percentile.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Median (mean of the middle two for even n); 0 for no samples.
double Median(std::vector<double> values);

/// Spread summary of one metric over repeated runs. The quartiles follow
/// Python's statistics.quantiles(values, n=4) (the exclusive method), so
/// they match what an external checker computes from the same values.
struct Summary {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
};
Summary Summarize(std::vector<double> values);

/// amount / seconds. A zero (or negative) duration means the clock never
/// ticked, so no rate was measured: the result is 0, never inf.
double Rate(double amount, double seconds);

inline double MbPerS(double bytes, double seconds) {
  return Rate(bytes / (1024.0 * 1024.0), seconds);
}

/// Checks the helpers above on inputs with known answers, including the
/// refused percentile, the zero-duration rate, and span self time with
/// overlapping concurrent children (trace.h). Returns the failures, one
/// line each; empty when every check passes.
std::vector<std::string> SelfCheck();

}  // namespace gumbo::bm

#endif  // GUMBO_BENCHMARK_STATS_H_
