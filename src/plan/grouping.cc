#include "plan/grouping.h"

#include <algorithm>
#include <map>

namespace gumbo::plan {

std::string Grouping::ToString() const {
  std::string out = "{";
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) out += ", ";
    out += "{";
    for (size_t i = 0; i < groups[g].size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(groups[g][i]);
    }
    out += "}";
  }
  out += "}";
  return out;
}

Result<double> EstimateGroupCost(
    const std::vector<ops::SemiJoinEquation>& equations,
    const std::vector<size_t>& group, const ops::OpOptions& options,
    cost::CostEstimator& estimator) {
  std::vector<ops::SemiJoinEquation> subset;
  subset.reserve(group.size());
  for (size_t i : group) subset.push_back(equations[i]);
  GUMBO_ASSIGN_OR_RETURN(mr::JobSpec spec,
                         BuildMsjJob(subset, options, "estimate"));
  // Output bound K: one row per guard fact per equation, in the shipped
  // payload representation (paper §4.1 bounds K by the guard size N1).
  double k_mb = 0.0;
  for (const auto& eq : subset) {
    GUMBO_ASSIGN_OR_RETURN(cost::RelationStats stats,
                           estimator.StatsOf(eq.guard_dataset));
    double payload_bytes = options.tuple_id_refs
                               ? 8.0
                               : 10.0 * static_cast<double>(eq.guard.arity());
    k_mb += stats.tuples * payload_bytes / (1024.0 * 1024.0);
  }
  GUMBO_ASSIGN_OR_RETURN(cost::JobEstimate est,
                         estimator.EstimateJob(spec, k_mb));
  return est.cost;
}

namespace {

// Cached group costs keyed by bitmask (n <= 63).
class GroupCostCache {
 public:
  GroupCostCache(const std::vector<ops::SemiJoinEquation>& equations,
                 const ops::OpOptions& options,
                 cost::CostEstimator& estimator)
      : equations_(equations), options_(options), estimator_(estimator) {}

  Result<double> Cost(uint64_t mask) {
    auto it = cache_.find(mask);
    if (it != cache_.end()) return it->second;
    std::vector<size_t> group;
    for (size_t i = 0; i < equations_.size(); ++i) {
      if (mask & (1ULL << i)) group.push_back(i);
    }
    GUMBO_ASSIGN_OR_RETURN(
        double c, EstimateGroupCost(equations_, group, options_, estimator_));
    cache_.emplace(mask, c);
    return c;
  }

 private:
  const std::vector<ops::SemiJoinEquation>& equations_;
  const ops::OpOptions& options_;
  cost::CostEstimator& estimator_;
  std::map<uint64_t, double> cache_;
};

}  // namespace

Result<Grouping> GreedyBsgfGrouping(
    const std::vector<ops::SemiJoinEquation>& equations,
    const ops::OpOptions& options, cost::CostEstimator& estimator) {
  const size_t n = equations.size();
  if (n == 0) return Status::InvalidArgument("grouping: no equations");
  if (n > 63) return Status::OutOfRange("grouping: more than 63 equations");

  GroupCostCache cache(equations, options, estimator);

  // Active groups as bitmasks with their costs.
  std::vector<uint64_t> masks;
  std::vector<double> costs;
  for (size_t i = 0; i < n; ++i) {
    uint64_t m = 1ULL << i;
    GUMBO_ASSIGN_OR_RETURN(double c, cache.Cost(m));
    masks.push_back(m);
    costs.push_back(c);
  }

  // Repeatedly merge the best positive-gain pair.
  while (masks.size() > 1) {
    double best_gain = 0.0;
    size_t best_i = 0, best_j = 0;
    double best_merged_cost = 0.0;
    for (size_t i = 0; i < masks.size(); ++i) {
      for (size_t j = i + 1; j < masks.size(); ++j) {
        GUMBO_ASSIGN_OR_RETURN(double merged, cache.Cost(masks[i] | masks[j]));
        double gain = costs[i] + costs[j] - merged;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_i = i;
          best_j = j;
          best_merged_cost = merged;
        }
      }
    }
    if (best_gain <= 0.0) break;
    masks[best_i] |= masks[best_j];
    costs[best_i] = best_merged_cost;
    masks.erase(masks.begin() + static_cast<long>(best_j));
    costs.erase(costs.begin() + static_cast<long>(best_j));
  }

  Grouping result;
  for (size_t g = 0; g < masks.size(); ++g) {
    std::vector<size_t> group;
    for (size_t i = 0; i < n; ++i) {
      if (masks[g] & (1ULL << i)) group.push_back(i);
    }
    result.groups.push_back(std::move(group));
    result.total_cost += costs[g];
  }
  // Deterministic order: by smallest member.
  std::sort(result.groups.begin(), result.groups.end());
  return result;
}

namespace {

// Recursive set-partition enumeration: item i joins an existing group or
// opens a new one (canonical / duplicate-free).
Status EnumeratePartitions(size_t i, size_t n, std::vector<uint64_t>* groups,
                           GroupCostCache* cache, Grouping* best) {
  if (i == n) {
    double total = 0.0;
    for (uint64_t mask : *groups) {
      GUMBO_ASSIGN_OR_RETURN(double c, cache->Cost(mask));
      total += c;
    }
    if (best->groups.empty() || total < best->total_cost - 1e-12) {
      best->total_cost = total;
      best->groups.clear();
      for (uint64_t mask : *groups) {
        std::vector<size_t> g;
        for (size_t k = 0; k < n; ++k) {
          if (mask & (1ULL << k)) g.push_back(k);
        }
        best->groups.push_back(std::move(g));
      }
    }
    return Status::Ok();
  }
  uint64_t bit = 1ULL << i;
  for (size_t g = 0; g < groups->size(); ++g) {
    (*groups)[g] |= bit;
    GUMBO_RETURN_IF_ERROR(EnumeratePartitions(i + 1, n, groups, cache, best));
    (*groups)[g] &= ~bit;
  }
  groups->push_back(bit);
  GUMBO_RETURN_IF_ERROR(EnumeratePartitions(i + 1, n, groups, cache, best));
  groups->pop_back();
  return Status::Ok();
}

}  // namespace

Result<Grouping> OptimalGrouping(
    const std::vector<ops::SemiJoinEquation>& equations,
    const ops::OpOptions& options, cost::CostEstimator& estimator,
    size_t max_n) {
  const size_t n = equations.size();
  if (n == 0) return Status::InvalidArgument("grouping: no equations");
  if (n > max_n || n > 63) {
    return Status::OutOfRange("optimal grouping limited to " +
                              std::to_string(max_n) + " equations, got " +
                              std::to_string(n));
  }
  GroupCostCache cache(equations, options, estimator);
  Grouping best;
  std::vector<uint64_t> groups;
  GUMBO_RETURN_IF_ERROR(EnumeratePartitions(0, n, &groups, &cache, &best));
  std::sort(best.groups.begin(), best.groups.end());
  return best;
}

}  // namespace gumbo::plan
