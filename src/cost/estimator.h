// Cost estimation for query planning.
//
// Estimates the cost of candidate MR jobs *before* running them, the way
// Gumbo does (paper §5.1, optimization (3)): the job's real map function is
// simulated on a small sample of each input relation and the per-input
// intermediate sizes are extrapolated; reducer counts follow from the
// intermediate-size estimate. The resulting (N_i, M_i) partitions feed the
// cost model of model.h under either variant (gumbo / wang), which is what
// the §5.2 cost-model experiment compares.
//
// Relations that do not exist yet at planning time (outputs of earlier
// batches of an SGF plan) are estimated from a StatsCatalog of declared
// upper bounds (paper §4.1: "the output size K can be approximated by its
// upper bound N1").
#ifndef GUMBO_COST_ESTIMATOR_H_
#define GUMBO_COST_ESTIMATOR_H_

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "cost/calibration.h"
#include "cost/constants.h"
#include "cost/model.h"
#include "mr/job.h"

namespace gumbo::cost {

/// Declared statistics of one relation (possibly not yet materialized).
struct RelationStats {
  double tuples = 0.0;          ///< represented tuple count
  double bytes_per_tuple = 0.0;
  /// Key-skew regime of the relation (materialized: classified by
  /// sampling; catalog entries inherit their upstream guard's regime).
  /// Selects which calibration factors apply (DESIGN.md §10).
  SkewRegime regime = SkewRegime::kUniform;
  double SizeMb() const {
    return tuples * bytes_per_tuple / (1024.0 * 1024.0);
  }
};

/// Name -> stats map used for not-yet-materialized inputs.
class StatsCatalog {
 public:
  void Put(const std::string& name, RelationStats stats) {
    stats_[name] = stats;
  }
  bool Contains(const std::string& name) const {
    return stats_.count(name) > 0;
  }
  Result<RelationStats> Get(const std::string& name) const {
    auto it = stats_.find(name);
    if (it == stats_.end()) return Status::NotFound("stats for " + name);
    return it->second;
  }

 private:
  std::map<std::string, RelationStats> stats_;
};

/// Where one input's estimate came from plus the values the planner
/// believed — recorded so observed execution stats can be matched back to
/// the exact estimate they correct (plan::CalibrateFromExecution).
struct InputEstimateTag {
  std::string dataset;
  Channel channel = Channel::kSampledOutput;
  SkewRegime regime = SkewRegime::kUniform;
  double input_mb = 0.0;   ///< estimated N_i, after calibration
  double output_mb = 0.0;  ///< estimated M_i, after calibration
};

/// Estimated job profile: the cost-model inputs plus the derived cost.
struct JobEstimate {
  std::vector<MapPartition> partitions;  // one per input
  double output_mb = 0.0;                // K (upper bound)
  int num_reducers = 1;
  double cost = 0.0;
  /// Parallel to `partitions`: provenance of each input's estimate.
  std::vector<InputEstimateTag> input_tags;
  /// Regime + provenance of the K bound (kOutputBound calibration).
  SkewRegime bound_regime = SkewRegime::kUniform;
  bool bound_defaulted = false;  ///< K defaulted to summed input sizes
};

/// Estimates are memoized for the estimator's lifetime, which is why its
/// methods are non-const and one estimator must not be shared across
/// threads: the stats of each materialized relation (its skew regime is
/// classified once) and the raw sampled map output per (dataset,
/// pack_messages, JobInput::signature). The database must therefore not
/// change while the estimator lives — a planner builds one per Plan call
/// (DESIGN.md §10). The catalog may change; its entries are never cached.
class CostEstimator {
 public:
  /// `db` supplies materialized relations for sampling; `catalog` supplies
  /// declared stats for everything else. Both pointers must outlive the
  /// estimator. `sample_size` caps the tuples sampled per input.
  /// `calibration` (optional, must outlive the estimator) scales estimates
  /// by learned observed/estimated factors per channel and skew regime; a
  /// null or empty store reproduces uncalibrated estimates exactly.
  CostEstimator(const ClusterConfig& config, CostModelVariant variant,
                const Database* db, const StatsCatalog* catalog,
                size_t sample_size = 1024,
                const CalibrationStore* calibration = nullptr)
      : config_(config),
        variant_(variant),
        db_(db),
        catalog_(catalog),
        sample_size_(sample_size),
        calibration_(calibration) {}

  CostModelVariant variant() const { return variant_; }
  const ClusterConfig& config() const { return config_; }

  /// Estimates the cost of running `job`. `output_mb_upper_bound` is the
  /// planner's bound on K (pass < 0 to default to the summed input sizes).
  Result<JobEstimate> EstimateJob(const mr::JobSpec& job,
                                  double output_mb_upper_bound = -1.0);

  /// Stats for a dataset: from the materialized relation when available,
  /// otherwise from the catalog.
  Result<RelationStats> StatsOf(const std::string& name);

 private:
  /// The map output of a stride sample, before any scaling: calibration
  /// and overhead factors apply after the memo lookup, so a memoized
  /// estimate is bit-identical to a fresh one.
  struct SampledOutput {
    double wire_bytes = 0.0;
    size_t records = 0;
  };

  /// Stats of a materialized relation, computed once per estimator.
  const RelationStats& MaterializedStats(const std::string& name,
                                         const Relation& rel);

  /// Runs the job's mapper on a stride sample of input `input_index`
  /// (materialized as `rel`), memoized when the input has a signature.
  SampledOutput SampleMapOutput(const mr::JobSpec& job, size_t input_index,
                                const Relation& rel);

  /// Per-input (N, M, Mhat, mappers) via map-function sampling or catalog
  /// fallback. Fills `tag` with the estimate's provenance.
  Result<MapPartition> EstimateInput(const mr::JobSpec& job,
                                     size_t input_index,
                                     InputEstimateTag* tag);

  double Factor(Channel channel, SkewRegime regime) const {
    return calibration_ != nullptr ? calibration_->Factor(channel, regime)
                                   : 1.0;
  }

  const ClusterConfig& config_;
  CostModelVariant variant_;
  const Database* db_;
  const StatsCatalog* catalog_;
  size_t sample_size_;
  const CalibrationStore* calibration_;
  std::map<std::string, RelationStats> stats_memo_;
  /// Keyed by (dataset, pack_messages, JobInput::signature).
  std::map<std::tuple<std::string, bool, std::string>, SampledOutput>
      sample_memo_;
};

}  // namespace gumbo::cost

#endif  // GUMBO_COST_ESTIMATOR_H_
