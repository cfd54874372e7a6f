// Atom: R(t1, ..., tn) — a relation symbol applied to terms.
//
// Implements the paper's conformance relation (§4, "a fact T(a) conforms to
// an atom U(t)") and projections pi_{alpha;x}(f), which are the primitive
// operations of both the naive evaluator and the MapReduce operators.
#ifndef GUMBO_SGF_ATOM_H_
#define GUMBO_SGF_ATOM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/tuple.h"
#include "sgf/term.h"

namespace gumbo::sgf {

class Atom {
 public:
  Atom() = default;
  Atom(std::string relation, std::vector<Term> terms)
      : relation_(std::move(relation)), terms_(std::move(terms)) {
    CompileConformance();
  }

  /// Convenience: atom over fresh variables var_names.
  static Atom Vars(std::string relation,
                   const std::vector<std::string>& var_names) {
    std::vector<Term> ts;
    ts.reserve(var_names.size());
    for (const auto& v : var_names) ts.push_back(Term::Var(v));
    return Atom(std::move(relation), std::move(ts));
  }

  const std::string& relation() const { return relation_; }
  const std::vector<Term>& terms() const { return terms_; }
  uint32_t arity() const { return static_cast<uint32_t>(terms_.size()); }

  /// Distinct variables in first-occurrence order.
  std::vector<std::string> Variables() const;

  /// Whether `var` occurs among the terms.
  bool UsesVariable(const std::string& var) const;

  /// Conformance check f |= this (paper §4): positions with equal terms
  /// hold equal values; constant positions hold that constant. The fact's
  /// relation is NOT checked here (callers route facts by relation).
  /// Takes a zero-copy view; owning Tuples convert implicitly. Compiled
  /// at construction into raw-word compares, so no string is touched per
  /// fact (DESIGN.md §7).
  bool Conforms(TupleView fact) const {
    if (fact.size() != terms_.size()) return false;
    const uint64_t* w = fact.words();
    for (const auto& [pos, raw] : constants_) {
      if (w[pos] != raw) return false;
    }
    for (const auto& [pos, first] : repeats_) {
      if (w[pos] != w[first]) return false;
    }
    return true;
  }

  /// pi_{this;vars}(fact): projects a conforming fact onto the given
  /// variables (each var's first occurrence position). Callers must pass
  /// variables that occur in this atom.
  Tuple Project(TupleView fact, const std::vector<std::string>& vars) const;

  /// First-occurrence position of `var`, or -1.
  int PositionOf(const std::string& var) const;

  /// The join key shared with a guard atom: variables of this atom that
  /// also occur in `guard`, ordered by first occurrence in *this* atom.
  /// Both the guard side and the conditional side of a semi-join project
  /// onto this ordering, so the shuffle keys agree (see ops/msj.h).
  std::vector<std::string> SharedVariables(const Atom& guard) const;

  /// Structural equality (same relation, same term list).
  bool operator==(const Atom& o) const {
    return relation_ == o.relation_ && terms_ == o.terms_;
  }
  bool operator!=(const Atom& o) const { return !(*this == o); }

  /// Canonical signature of this atom *as a condition with the given join
  /// key*: two conditional atoms with equal signatures assert exactly the
  /// same thing about a given key tuple, so a single Assert message can
  /// serve both (the paper's "conditional name sharing", query A2).
  ///
  /// The signature encodes, per position: a constant, the index of a
  /// key variable within `key_vars`, or the first-occurrence index of an
  /// existential variable. Example: S(z, x, z, 3) with key (x) =>
  /// "S/4:E0,K0,E0,C3".
  std::string ConditionSignature(const std::vector<std::string>& key_vars) const;

  std::string ToString(const Dictionary* dict = nullptr) const;

 private:
  void CompileConformance();

  std::string relation_;
  std::vector<Term> terms_;
  /// Compiled conformance test: (position, raw constant) for every
  /// constant term, and (position, first position) for every repeated
  /// occurrence of a variable.
  std::vector<std::pair<uint32_t, uint64_t>> constants_;
  std::vector<std::pair<uint32_t, uint32_t>> repeats_;
};

}  // namespace gumbo::sgf

#endif  // GUMBO_SGF_ATOM_H_
