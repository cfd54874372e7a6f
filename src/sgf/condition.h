// Condition: the Boolean combination in a BSGF WHERE clause.
//
// Leaves reference conditional atoms by index (the atoms themselves live in
// the owning BsgfQuery); inner nodes are AND / OR / NOT. See paper §3.1.
#ifndef GUMBO_SGF_CONDITION_H_
#define GUMBO_SGF_CONDITION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace gumbo::sgf {

class Condition;
using ConditionPtr = std::unique_ptr<Condition>;

class Condition {
 public:
  enum class Kind { kAtom, kAnd, kOr, kNot };

  static ConditionPtr MakeAtom(size_t atom_index);
  static ConditionPtr MakeAnd(ConditionPtr lhs, ConditionPtr rhs);
  static ConditionPtr MakeOr(ConditionPtr lhs, ConditionPtr rhs);
  static ConditionPtr MakeNot(ConditionPtr child);

  Kind kind() const { return kind_; }
  size_t atom_index() const { return atom_index_; }
  const Condition* lhs() const { return lhs_.get(); }
  const Condition* rhs() const { return rhs_.get(); }
  /// For kNot, the single child is stored as lhs.
  const Condition* child() const { return lhs_.get(); }

  ConditionPtr Clone() const;

  /// Evaluates the Boolean combination given the truth value of each
  /// conditional atom.
  bool Evaluate(const std::function<bool(size_t)>& atom_truth) const;

  /// Appends all atom indices in this subtree (with repetition, in
  /// left-to-right order).
  void CollectAtomIndices(std::vector<size_t>* out) const;

  /// True if the condition is a disjunction of literals (atoms or negated
  /// atoms) — the class of conditions the 1-ROUND fused job supports even
  /// when join keys differ (paper §5.1, optimization (4)).
  bool IsDisjunctionOfLiterals() const;

  /// Converts to disjunctive normal form as a list of clauses, each clause
  /// a list of signed atom indices (positive = atom, negative = NOT atom,
  /// using index+1 to keep 0 unambiguous). Fails with FailedPrecondition if
  /// the DNF would exceed `max_clauses` (exponential blowup guard). Used by
  /// the sequential (SEQ) baseline planner.
  Status ToDnf(std::vector<std::vector<int>>* clauses,
               size_t max_clauses = 4096) const;

  /// Renders with explicit parentheses, naming atoms via the callback.
  std::string ToString(
      const std::function<std::string(size_t)>& atom_name) const;

 private:
  Condition() = default;

  Kind kind_ = Kind::kAtom;
  size_t atom_index_ = 0;
  ConditionPtr lhs_;
  ConditionPtr rhs_;
};

}  // namespace gumbo::sgf

#endif  // GUMBO_SGF_CONDITION_H_
