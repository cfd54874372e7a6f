// Partitioning a set of semi-join equations into MSJ jobs (paper §4.4).
//
// BSGF-Opt — finding the partition of S minimizing the summed job costs
// (Equation 9; the EVAL term is constant across partitions) — is
// NP-complete (Theorem 1). Two solvers are provided:
//
//  * GreedyBsgfGrouping — the paper's Greedy-BSGF: start from singletons
//    and repeatedly merge the pair of groups with the largest positive
//    gain(Si, Sj) = cost(Si) + cost(Sj) - cost(Si u Sj);
//  * OptimalGrouping   — exhaustive enumeration of set partitions with
//    memoized per-subset costs (practical to ~12 equations; used to
//    validate the heuristic and for the OPT strategy on small queries).
#ifndef GUMBO_PLAN_GROUPING_H_
#define GUMBO_PLAN_GROUPING_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "cost/estimator.h"
#include "ops/msj.h"

namespace gumbo::plan {

/// A partition of equation indices [0, n) into groups.
struct Grouping {
  std::vector<std::vector<size_t>> groups;
  double total_cost = 0.0;  ///< sum of estimated per-group MSJ job costs

  std::string ToString() const;
};

/// Estimates the MSJ job cost of evaluating exactly the given equations in
/// one job (the cost(S_i) of Equation 5, via the estimator).
Result<double> EstimateGroupCost(
    const std::vector<ops::SemiJoinEquation>& equations,
    const std::vector<size_t>& group, const ops::OpOptions& options,
    cost::CostEstimator& estimator);

/// The paper's Greedy-BSGF heuristic.
Result<Grouping> GreedyBsgfGrouping(
    const std::vector<ops::SemiJoinEquation>& equations,
    const ops::OpOptions& options, cost::CostEstimator& estimator);

/// Exhaustive optimum over all set partitions. Fails with OutOfRange when
/// n exceeds `max_n`.
Result<Grouping> OptimalGrouping(
    const std::vector<ops::SemiJoinEquation>& equations,
    const ops::OpOptions& options, cost::CostEstimator& estimator,
    size_t max_n = 12);

}  // namespace gumbo::plan

#endif  // GUMBO_PLAN_GROUPING_H_
