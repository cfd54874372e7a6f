// SgfQuery: a strictly-guarded-fragment query — an ordered collection of
// BSGF queries Z1 := xi1; ...; Zn := xin; where xi_i may mention Zj for
// j < i (paper §3.1). Also provides the dependency graph used by the
// multiway-topological-sort planner (paper §4.6).
#ifndef GUMBO_SGF_SGF_H_
#define GUMBO_SGF_SGF_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sgf/bsgf.h"

namespace gumbo::sgf {

/// The dependency graph G_Q over BSGF subqueries: an edge i -> j means the
/// output of subquery i is mentioned by subquery j, so i must be evaluated
/// first.
class DependencyGraph {
 public:
  explicit DependencyGraph(size_t n) : succ_(n), pred_(n) {}

  size_t size() const { return succ_.size(); }
  void AddEdge(size_t from, size_t to);
  const std::vector<size_t>& Successors(size_t i) const { return succ_[i]; }
  const std::vector<size_t>& Predecessors(size_t i) const { return pred_[i]; }
  bool HasEdge(size_t from, size_t to) const;

  /// True iff the graph has no directed cycle.
  bool IsAcyclic() const;

 private:
  std::vector<std::vector<size_t>> succ_;
  std::vector<std::vector<size_t>> pred_;
};

class SgfQuery {
 public:
  SgfQuery() = default;
  explicit SgfQuery(std::vector<BsgfQuery> subqueries)
      : subqueries_(std::move(subqueries)) {}

  const std::vector<BsgfQuery>& subqueries() const { return subqueries_; }
  std::vector<BsgfQuery>& mutable_subqueries() { return subqueries_; }
  size_t size() const { return subqueries_.size(); }
  bool empty() const { return subqueries_.empty(); }

  void Append(BsgfQuery q) { subqueries_.push_back(std::move(q)); }

  /// Index of the subquery producing `name`, or -1 if `name` is a base
  /// relation.
  int ProducerOf(const std::string& name) const;

  /// Builds G_Q: edge i -> j iff Z_i is mentioned in subquery j (as guard
  /// or conditional relation).
  DependencyGraph BuildDependencyGraph() const;

  /// Names produced by some subquery (intermediate or final).
  std::vector<std::string> ProducedNames() const;

  /// Base (non-produced) relation names read anywhere in the query.
  std::vector<std::string> BaseRelations() const;

  std::string ToString(const Dictionary* dict = nullptr) const;

 private:
  std::vector<BsgfQuery> subqueries_;
};

}  // namespace gumbo::sgf

#endif  // GUMBO_SGF_SGF_H_
