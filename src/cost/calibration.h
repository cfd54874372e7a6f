// Self-calibrating cost-model feedback (DESIGN.md §10).
//
// The §5.3 cost model is exact about machine constants (Table 5) but
// approximate about data: unmaterialized inputs are estimated from
// declared *upper bounds* (paper §4.1: "the output size K can be
// approximated by its upper bound N1"), and those bounds are tight only
// in the regime the paper measures — uniform keys, independent
// attributes. Under Zipf-skewed or correlated keys the real intermediate
// sizes diverge from the bounds by regime-dependent ratios, which is
// exactly where a fixed model mis-ranks strategies (a semi-join chain
// that shrinks 100x per step looks as expensive as one that doesn't).
//
// The executor already records the observed (N_i, M_i) of every job
// input (mr::InputStats). A CalibrationStore accumulates
// observed/estimated ratios per (channel, skew regime): the planner
// tags each estimate with the channel it came from (sampled map run,
// catalog upper bound, output bound) and the input's skew regime; after
// execution, plan::CalibrateFromExecution feeds the observations back.
// Future estimates multiply in the learned geometric-mean ratio, so the
// planner's strategy ranking adapts to the data regime it actually
// serves — without ever touching the Table 5 machine constants.
#ifndef GUMBO_COST_CALIBRATION_H_
#define GUMBO_COST_CALIBRATION_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/relation.h"
#include "common/result.h"

namespace gumbo::cost {

/// Key-skew regime of a relation, classified from the share of its most
/// frequent first-attribute value (the join key position in this repo's
/// generators). Thresholds are relative to the uniform expectation, so
/// classification is stable across relation sizes.
enum class SkewRegime { kUniform = 0, kModerate = 1, kHeavy = 2 };

constexpr size_t kNumRegimes = 3;

const char* SkewRegimeName(SkewRegime regime);

/// Classifies `rel` by sampling up to `sample_cap` rows (stride sample,
/// deterministic) and measuring the top first-attribute-value share s:
///   s >= 20%          -> kHeavy    (a Zipf(>=1) hot key)
///   s >= max(4%, 8/u) -> kModerate (u = distinct values seen; the 8/u
///                        term keeps tiny uniform domains out)
///   otherwise         -> kUniform
SkewRegime ClassifyKeySkew(const Relation& rel, size_t sample_cap = 2048);

/// Which estimate a correction factor applies to. Channels are separated
/// because their error sources are independent: sampling error is small
/// and regime-insensitive, upper-bound error is large and regime-driven.
enum class Channel {
  /// M_i from sampling the real map function on a materialized input.
  kSampledOutput = 0,
  /// N_i of an unmaterialized input, estimated from the catalog bound.
  kCatalogInput = 1,
  /// M_i of an unmaterialized input, estimated from the catalog bound.
  kCatalogOutput = 2,
  /// The job's output size K, defaulted to the summed input sizes.
  kOutputBound = 3,
};

constexpr size_t kNumChannels = 4;

const char* ChannelName(Channel channel);

/// Thread-safe accumulator of observed/estimated ratios per
/// (channel, regime). Factor() is the damped geometric mean of the
/// observed ratios, clamped to [1/64, 64]; with no observations it is
/// exactly 1.0, so an empty store reproduces the uncalibrated planner
/// byte-for-byte. Save/Load round-trip the full state as text.
class CalibrationStore {
 public:
  CalibrationStore() = default;
  CalibrationStore(const CalibrationStore& o) { *this = o; }
  CalibrationStore& operator=(const CalibrationStore& o);

  /// Records one observation. Ignored unless estimated > 0 and
  /// observed >= 0; the ratio is clamped to [1/64, 64] so one pathological
  /// job cannot poison the mean.
  void Observe(Channel channel, SkewRegime regime, double estimated,
               double observed);

  /// The multiplicative correction for estimates on this channel/regime.
  double Factor(Channel channel, SkewRegime regime) const;

  uint64_t Observations(Channel channel, SkewRegime regime) const;
  uint64_t TotalObservations() const;

  /// Serializes the store as a small line-oriented text format (stable
  /// across versions: unknown lines, channels and regimes are skipped on
  /// load). Deserialize rejects, leaving the store unchanged, any cell
  /// Serialize cannot write: a count of 0 or with a sign, or a log-sum
  /// beyond what `count` clamped observations can add up to.
  std::string Serialize() const;
  Status Deserialize(const std::string& text);

  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  /// Human-readable factor table (for bench output).
  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  double log_sum_[kNumChannels][kNumRegimes] = {};
  uint64_t count_[kNumChannels][kNumRegimes] = {};
};

}  // namespace gumbo::cost

#endif  // GUMBO_COST_CALIBRATION_H_
