// Strategy-based query planning: turns an SGF query into an executable
// MapReduce program (paper §4.4–§4.7, §5).
//
// Strategies, matching the paper's experimental nomenclature:
//   SEQ        — sequential semi-join chains per DNF clause (§5.2);
//   PAR        — every semi-join in its own MSJ job, one EVAL (§5.2);
//   GREEDY     — Greedy-BSGF grouping of semi-joins into MSJ jobs + EVAL;
//   OPT        — brute-force optimal grouping (small queries);
//   1-ROUND    — fused MSJ+EVAL single job (§5.1 opt (4); only for
//                qualifying queries, see ops::CanOneRound);
//   SEQUNIT    — nested SGF: one subquery at a time, PAR inside (§5.3);
//   PARUNIT    — nested SGF: level by level, PAR inside (§5.3);
//   GREEDY-SGF — Greedy-SGF multiway toposort, GREEDY inside (§4.6);
//   OPT-SGF    — brute-force best multiway toposort, GREEDY inside.
//
// Flat strategies applied to nested queries operate level by level.
#ifndef GUMBO_PLAN_PLANNER_H_
#define GUMBO_PLAN_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "cost/estimator.h"
#include "mr/program.h"
#include "ops/msj.h"
#include "sgf/sgf.h"

namespace gumbo::plan {

enum class Strategy {
  kSeq,
  kPar,
  kGreedy,
  kOpt,
  kOneRound,
  kSeqUnit,
  kParUnit,
  kGreedySgf,
  kOptSgf,
};

const char* StrategyName(Strategy s);
Result<Strategy> StrategyFromName(const std::string& name);

struct PlannerOptions {
  Strategy strategy = Strategy::kGreedy;
  ops::OpOptions op;  ///< packing / tuple-id toggles (§5.1 opts (1),(2))
  cost::CostModelVariant cost_variant = cost::CostModelVariant::kGumbo;
  size_t sample_size = 1024;  ///< map-sampling size for cost estimation
  /// Optional learned observed/estimated correction factors (DESIGN.md
  /// §10). Non-owning; must outlive the planner. Null or empty store =
  /// the uncalibrated paper model, byte for byte.
  const cost::CalibrationStore* calibration = nullptr;
};

/// Plan-time estimate of one job, recorded parallel to the program's jobs
/// so observed execution stats can be fed back into a CalibrationStore
/// (CalibrateFromExecution, DESIGN.md §10).
struct JobEstimateRecord {
  std::string job_name;
  double cost = 0.0;           ///< modeled §5.3 job cost
  double output_mb = 0.0;      ///< K bound the estimate used
  cost::SkewRegime bound_regime = cost::SkewRegime::kUniform;
  bool bound_defaulted = false;
  /// One per job input, in JobSpec::inputs order.
  std::vector<cost::InputEstimateTag> inputs;
};

/// A fully-lowered plan: the MR program plus dataset bookkeeping. Once
/// lowered, a QueryPlan is immutable and reusable: executing it never
/// writes into it, so one plan may serve many (concurrent) executions —
/// the property the serve-layer plan cache relies on (DESIGN.md §8).
struct QueryPlan {
  mr::Program program;
  /// Output dataset per subquery (dataset name == subquery output name).
  std::vector<std::string> outputs;
  /// Human-readable plan summary (one line per job).
  std::string description;
  /// Plan-time cost estimates, parallel to program jobs (the calibration
  /// feedback loop's "estimated" side). Every strategy gets them, so
  /// estimated totals are comparable across strategies.
  std::vector<JobEstimateRecord> job_estimates;
  /// Summed estimated job cost of the whole plan (the §5.3 total-time
  /// analogue used to rank strategies in ChoosePlan).
  double estimated_cost = 0.0;
};

/// Shared handle to an immutable lowered plan (plan cache currency).
using PlanRef = std::shared_ptr<const QueryPlan>;

class Planner {
 public:
  Planner(const cost::ClusterConfig& config, PlannerOptions options)
      : config_(config), options_(std::move(options)) {}

  const PlannerOptions& options() const { return options_; }

  /// Plans `query` against the (base-relation) database `db`. The query
  /// must validate (sgf::ValidateSgf).
  Result<QueryPlan> Plan(const sgf::SgfQuery& query, const Database& db) const;

 private:
  cost::ClusterConfig config_;
  PlannerOptions options_;
};

/// One candidate strategy's estimated outcome (ChoosePlan).
struct StrategyCost {
  Strategy strategy = Strategy::kGreedy;
  double estimated_cost = 0.0;
};

/// The plan ChoosePlan selected, plus the ranking that selected it.
struct StrategyChoice {
  Strategy strategy = Strategy::kGreedy;
  QueryPlan plan;  ///< the winning strategy's plan
  /// Every candidate that planned successfully, with its estimated cost
  /// (ranking input; inapplicable candidates, e.g. 1-ROUND on a
  /// non-qualifying query, are simply absent).
  std::vector<StrategyCost> candidates;
};

/// Plans `query` under each candidate strategy and picks the one with the
/// lowest estimated plan cost under `base.calibration` (the self-
/// calibrating optimizer's strategy re-pick, DESIGN.md §10). `candidates`
/// defaults to {1-ROUND, SEQ, PAR, GREEDY}; candidates whose planning
/// fails with FailedPrecondition are skipped. base.strategy is ignored.
Result<StrategyChoice> ChoosePlan(const sgf::SgfQuery& query,
                                  const Database& db,
                                  const cost::ClusterConfig& config,
                                  const PlannerOptions& base,
                                  std::vector<Strategy> candidates = {});

}  // namespace gumbo::plan

#endif  // GUMBO_PLAN_PLANNER_H_
