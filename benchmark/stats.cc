#include "stats.h"

#include <algorithm>
#include <cmath>

#include "trace.h"

namespace gumbo::bm {

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const size_t n = samples.size();
  if (n == 0 || p <= 0.0 || p > 1.0) return std::nullopt;
  // The epsilon keeps float error in p * n (0.7 * 10 = 7.000000000000001)
  // from pushing an exact rank one sample up.
  const size_t rank = static_cast<size_t>(std::max(
      1.0, std::ceil(p * static_cast<double>(n) - 1e-9))) - 1;
  if (n - 1 - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  s.min = values.front();
  s.max = values.back();
  s.median = Median(values);
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(method='exclusive'): m = n + 1, cut i of 4 at
  // i*m/4, clamped to [1, n-1] and interpolated in exact integer steps.
  auto cut = [&](size_t i) {
    const size_t m = n + 1;
    const size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double Rate(double amount, double seconds) {
  return seconds > 0.0 ? amount / seconds : 0.0;
}

std::vector<std::string> SelfCheck() {
  std::vector<std::string> failures;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) failures.push_back(what);
  };

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  // Rank ceil(0.9 * 100) - 1 = 89 holds the value 90, with 10 beyond it.
  expect(Percentile(hundred, 0.9) == std::optional<double>(90.0),
         "p90 of 1..100 is not 90");
  expect(Percentile(hundred, 0.5) == std::optional<double>(50.0),
         "p50 of 1..100 is not 50");
  std::vector<double> ninety_nine(hundred.begin(), hundred.end() - 1);
  expect(!Percentile(ninety_nine, 0.9).has_value(),
         "p90 of 99 samples (9 beyond it) was not refused");
  expect(!Percentile(hundred, 0.99).has_value(),
         "p99 of 100 samples was not refused");

  const Summary s = Summarize({1, 2, 3, 4, 5});
  expect(s.q1 == 1.5 && s.median == 3.0 && s.q3 == 4.5 && s.min == 1.0 &&
             s.max == 5.0,
         "quartiles of 1..5 differ from statistics.quantiles");

  expect(MbPerS(1024.0 * 1024.0, 0.0) == 0.0, "MB/s of a zero duration is not 0");
  expect(MbPerS(2.0 * 1024.0 * 1024.0, 0.5) == 4.0, "2 MB in 0.5 s is not 4 MB/s");

  // Parent [0, 100) with concurrent children [10, 40) and [30, 60) that
  // overlap each other, plus [80, 90) and a grandchild inside [10, 40):
  // the children cover 60, so the parent's self time is 40, and the
  // grandchild only reduces its own parent's self time.
  std::vector<Span> spans(5);
  const int64_t bounds[5][3] = {
      {0, 0, 100}, {1, 10, 40}, {1, 30, 60}, {1, 80, 90}, {2, 15, 20}};
  for (size_t i = 0; i < spans.size(); ++i) {
    spans[i].id = static_cast<SpanId>(i + 1);
    spans[i].parent = static_cast<SpanId>(bounds[i][0]);
    spans[i].start_ns = bounds[i][1];
    spans[i].end_ns = bounds[i][2];
  }
  const std::vector<int64_t> self = SelfTimesNs(spans);
  expect(self[0] == 40, "self time with overlapping children is not 40");
  expect(self[1] == 25, "self time with one nested child is not 25");
  return failures;
}

}  // namespace gumbo::bm
