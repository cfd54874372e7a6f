// Tests for the SGF query language: atoms, conditions, parser, analyzer,
// and the naive reference evaluator (including the paper's Examples 1-3).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "sgf/analyzer.h"
#include "sgf/atom.h"
#include "sgf/condition.h"
#include "sgf/naive_eval.h"
#include "sgf/parser.h"
#include "test_util.h"

namespace gumbo::sgf {
namespace {

using ::gumbo::testing::MakeRelation;
using ::gumbo::testing::ParseBsgfOrDie;
using ::gumbo::testing::ParseSgfOrDie;
using ::gumbo::testing::RowsOf;

// ---- Atoms -----------------------------------------------------------------

TEST(AtomTest, VariablesFirstOccurrenceOrder) {
  Atom a = Atom::Vars("R", {"x", "y", "x", "z"});
  EXPECT_EQ(a.Variables(), (std::vector<std::string>{"x", "y", "z"}));
}

TEST(AtomTest, ConformsChecksConstants) {
  // R(x, 2, x, y): paper example — (1,2,1,3) conforms to (x,2,x,y).
  Atom a("R", {Term::Var("x"), Term::ConstInt(2), Term::Var("x"),
               Term::Var("y")});
  EXPECT_TRUE(a.Conforms(Tuple::Ints({1, 2, 1, 3})));
  EXPECT_FALSE(a.Conforms(Tuple::Ints({1, 5, 1, 3})));  // constant mismatch
  EXPECT_FALSE(a.Conforms(Tuple::Ints({1, 2, 7, 3})));  // equality violated
  EXPECT_FALSE(a.Conforms(Tuple::Ints({1, 2, 1})));     // arity mismatch
}

// Conformance interpreted term by term — the reference the compiled
// Atom::Conforms must match: a constant position holds that constant, and
// a variable's later occurrence equals its first.
bool ReferenceConforms(const Atom& atom, TupleView fact) {
  const std::vector<Term>& terms = atom.terms();
  if (fact.size() != terms.size()) return false;
  for (size_t i = 0; i < terms.size(); ++i) {
    const Term& t = terms[i];
    if (t.is_constant()) {
      if (fact[i] != t.value()) return false;
    } else {
      for (size_t j = 0; j < i; ++j) {
        if (terms[j].is_variable() && terms[j].var() == t.var()) {
          if (fact[i] != fact[j]) return false;
          break;
        }
      }
    }
  }
  return true;
}

TEST(AtomTest, CompiledConformsMatchesReference) {
  Xoshiro256 rng(20261017);
  size_t conforming = 0;
  for (int round = 0; round < 400; ++round) {
    // Arity 0..6 over a tiny variable and constant pool: repeated
    // variables and constants are common.
    const uint32_t arity = static_cast<uint32_t>(rng.Uniform(7));
    std::vector<Term> terms;
    for (uint32_t i = 0; i < arity; ++i) {
      if (rng.Uniform(3) == 0) {
        terms.push_back(Term::ConstInt(static_cast<int64_t>(rng.Uniform(3))));
      } else {
        terms.push_back(Term::Var("v" + std::to_string(rng.Uniform(3))));
      }
    }
    const Atom atom("R", terms);
    for (int f = 0; f < 50; ++f) {
      // Mostly the atom's arity, sometimes one off in either direction.
      uint32_t fact_arity = arity;
      const uint64_t roll = rng.Uniform(8);
      if (roll == 0) fact_arity = arity + 1;
      if (roll == 1 && arity > 0) fact_arity = arity - 1;
      Tuple fact;
      for (uint32_t i = 0; i < fact_arity; ++i) {
        fact.PushBack(Value::Int(static_cast<int64_t>(rng.Uniform(3))));
      }
      const bool expected = ReferenceConforms(atom, fact);
      EXPECT_EQ(atom.Conforms(fact), expected)
          << atom.ToString() << " on " << fact.ToString();
      conforming += expected ? 1 : 0;
    }
  }
  // Both answers occur often enough to mean something.
  EXPECT_GT(conforming, 1000u);
  EXPECT_LT(conforming, 19000u);
}

TEST(AtomTest, ProjectionUsesFirstOccurrence) {
  // pi_{R(x,y,x,z); x,z}(R(1,2,1,3)) = (1,3) — paper §4 example.
  Atom a = Atom::Vars("R", {"x", "y", "x", "z"});
  Tuple p = a.Project(Tuple::Ints({1, 2, 1, 3}), {"x", "z"});
  EXPECT_EQ(p, Tuple::Ints({1, 3}));
}

TEST(AtomTest, SharedVariablesKappaOrder) {
  Atom guard = Atom::Vars("R", {"x", "y", "z", "w"});
  Atom kappa = Atom::Vars("S", {"w", "q", "x"});
  // Order of first occurrence in kappa, not in the guard.
  EXPECT_EQ(kappa.SharedVariables(guard),
            (std::vector<std::string>{"w", "x"}));
}

TEST(AtomTest, ConditionSignatureSharing) {
  // A2-style sharing: S(x), S(y) against guard R(x,y,z,w) both have the
  // signature "S bound at key position 0".
  Atom guard = Atom::Vars("R", {"x", "y", "z", "w"});
  Atom sx = Atom::Vars("S", {"x"});
  Atom sy = Atom::Vars("S", {"y"});
  EXPECT_EQ(sx.ConditionSignature(sx.SharedVariables(guard)),
            sy.ConditionSignature(sy.SharedVariables(guard)));
  // Different relations do not share.
  Atom tx = Atom::Vars("T", {"x"});
  EXPECT_NE(sx.ConditionSignature(sx.SharedVariables(guard)),
            tx.ConditionSignature(tx.SharedVariables(guard)));
  // Existential equality patterns matter: S(z1, x, z1) vs S(z1, x, z2).
  Atom rep("S", {Term::Var("p"), Term::Var("x"), Term::Var("p")});
  Atom norep("S", {Term::Var("p"), Term::Var("x"), Term::Var("q")});
  EXPECT_NE(rep.ConditionSignature({"x"}), norep.ConditionSignature({"x"}));
}

// ---- Conditions ------------------------------------------------------------

TEST(ConditionTest, EvaluateBooleanCombination) {
  // (0 AND NOT 1) OR 2
  auto c = Condition::MakeOr(
      Condition::MakeAnd(Condition::MakeAtom(0),
                         Condition::MakeNot(Condition::MakeAtom(1))),
      Condition::MakeAtom(2));
  auto eval = [&](bool a0, bool a1, bool a2) {
    bool truth[] = {a0, a1, a2};
    return c->Evaluate([&](size_t i) { return truth[i]; });
  };
  EXPECT_TRUE(eval(true, false, false));
  EXPECT_FALSE(eval(true, true, false));
  EXPECT_TRUE(eval(false, true, true));
  EXPECT_FALSE(eval(false, true, false));
}

TEST(ConditionTest, IsDisjunctionOfLiterals) {
  auto lit_or = Condition::MakeOr(Condition::MakeAtom(0),
                                  Condition::MakeNot(Condition::MakeAtom(1)));
  EXPECT_TRUE(lit_or->IsDisjunctionOfLiterals());
  auto with_and = Condition::MakeOr(
      Condition::MakeAtom(0),
      Condition::MakeAnd(Condition::MakeAtom(1), Condition::MakeAtom(2)));
  EXPECT_FALSE(with_and->IsDisjunctionOfLiterals());
  auto not_not = Condition::MakeNot(
      Condition::MakeNot(Condition::MakeAtom(0)));
  EXPECT_FALSE(not_not->IsDisjunctionOfLiterals());
}

TEST(ConditionTest, ToDnfDistributes) {
  // 0 AND (1 OR NOT 2) => {0,1}, {0,-2} (as 1-based signed literals).
  auto c = Condition::MakeAnd(
      Condition::MakeAtom(0),
      Condition::MakeOr(Condition::MakeAtom(1),
                        Condition::MakeNot(Condition::MakeAtom(2))));
  std::vector<std::vector<int>> clauses;
  ASSERT_OK(c->ToDnf(&clauses));
  ASSERT_EQ(clauses.size(), 2u);
  EXPECT_EQ(clauses[0], (std::vector<int>{1, 2}));
  EXPECT_EQ(clauses[1], (std::vector<int>{1, -3}));
}

TEST(ConditionTest, ToDnfPushesNegation) {
  // NOT (0 OR 1) => {-1,-2}; NOT (0 AND 1) => {-1}, {-2}.
  auto nor = Condition::MakeNot(
      Condition::MakeOr(Condition::MakeAtom(0), Condition::MakeAtom(1)));
  std::vector<std::vector<int>> clauses;
  ASSERT_OK(nor->ToDnf(&clauses));
  ASSERT_EQ(clauses.size(), 1u);
  EXPECT_EQ(clauses[0], (std::vector<int>{-1, -2}));

  auto nand = Condition::MakeNot(
      Condition::MakeAnd(Condition::MakeAtom(0), Condition::MakeAtom(1)));
  ASSERT_OK(nand->ToDnf(&clauses));
  ASSERT_EQ(clauses.size(), 2u);
}

// ---- Parser ----------------------------------------------------------------

TEST(ParserTest, ParsesIntroQuery) {
  // The paper's introductory query Q.
  sgf::BsgfQuery q = ParseBsgfOrDie(
      "Z := SELECT (x, y) FROM R(x, y) "
      "WHERE (S(x, y) OR S(y, x)) AND T(x, z);");
  EXPECT_EQ(q.output(), "Z");
  EXPECT_EQ(q.select_vars(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(q.guard().relation(), "R");
  EXPECT_EQ(q.num_conditional_atoms(), 3u);  // S(x,y), S(y,x), T(x,z)
}

TEST(ParserTest, InternsIdenticalAtoms) {
  // S(1,x) appears twice; the paper treats identical atoms as one.
  sgf::BsgfQuery q = ParseBsgfOrDie(
      "Z5 := SELECT (x, y) FROM R(x, y, 4) "
      "WHERE (S(1, x) AND NOT S(y, 10)) OR (NOT S(1, x) AND S(y, 10));");
  EXPECT_EQ(q.num_conditional_atoms(), 2u);
  EXPECT_EQ(q.guard().terms()[2].value(), Value::Int(4));
}

TEST(ParserTest, ParsesStringsAndComments) {
  sgf::SgfQuery q = ParseSgfOrDie(
      "-- the bookstore query of Example 2\n"
      "Z1 := SELECT aut FROM Amaz(ttl, aut, \"bad\") "
      "WHERE BN(ttl, aut, \"bad\") AND BD(ttl, aut, \"bad\");\n"
      "Z2 := SELECT (new, aut) FROM Upcoming(new, aut) WHERE NOT Z1(aut);");
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.subqueries()[1].conditional_atoms()[0].relation(), "Z1");
}

TEST(ParserTest, RejectsGarbage) {
  Dictionary dict;
  EXPECT_FALSE(sgf::ParseBsgf("Z := FROM R(x)", &dict).ok());
  EXPECT_FALSE(sgf::ParseBsgf("Z := SELECT x FROM R(x", &dict).ok());
  EXPECT_FALSE(sgf::ParseBsgf("Z := SELECT x FROM R(x) WHERE", &dict).ok());
  EXPECT_FALSE(sgf::ParseBsgf("", &dict).ok());
  EXPECT_FALSE(
      sgf::ParseBsgf("Z := SELECT x FROM R(x) WHERE S(\"unterminated);",
                     &dict).ok());
}

TEST(ParserTest, ReportsLineAndColumn) {
  Dictionary dict;
  auto r = sgf::ParseSgf("Z1 := SELECT x FROM R(x);\nZ2 := SELEKT x;", &dict);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status();
}

TEST(ParserTest, OperatorPrecedenceNotAndOr) {
  // a OR b AND NOT c parses as a OR (b AND (NOT c)).
  sgf::BsgfQuery q = ParseBsgfOrDie(
      "Z := SELECT x FROM R(x) WHERE A(x) OR B(x) AND NOT C(x);");
  const Condition* c = q.condition();
  ASSERT_EQ(c->kind(), Condition::Kind::kOr);
  EXPECT_EQ(c->lhs()->kind(), Condition::Kind::kAtom);
  EXPECT_EQ(c->rhs()->kind(), Condition::Kind::kAnd);
  EXPECT_EQ(c->rhs()->rhs()->kind(), Condition::Kind::kNot);
}

// ---- Analyzer --------------------------------------------------------------

TEST(AnalyzerTest, RejectsSelectVarNotInGuard) {
  Dictionary dict;
  auto r = sgf::ParseBsgf("Z := SELECT q FROM R(x, y) WHERE S(x);", &dict);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(AnalyzerTest, RejectsGuardednessViolation) {
  // S(x, t) and T(y, t) share t, which is not in the guard — the paper's
  // Example 2 explains this is not expressible as a basic query.
  Dictionary dict;
  auto r = sgf::ParseBsgf(
      "Z := SELECT x FROM R(x, y) WHERE S(x, t) AND T(y, t);", &dict);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("guardedness"), std::string::npos);
}

TEST(AnalyzerTest, AcceptsSharedGuardVariables) {
  Dictionary dict;
  EXPECT_OK(sgf::ParseBsgf(
                "Z := SELECT x FROM R(x, y) WHERE S(x, t) AND T(x, y, q);",
                &dict)
                .status());
}

TEST(AnalyzerTest, RejectsForwardReference) {
  Dictionary dict;
  auto r = sgf::ParseSgf(
      "Z1 := SELECT x FROM R(x) WHERE Z2(x);\n"
      "Z2 := SELECT x FROM S(x);",
      &dict);
  EXPECT_FALSE(r.ok());
}

TEST(AnalyzerTest, RejectsDuplicateOutput) {
  Dictionary dict;
  auto r = sgf::ParseSgf(
      "Z1 := SELECT x FROM R(x);\nZ1 := SELECT x FROM S(x);", &dict);
  EXPECT_FALSE(r.ok());
}

TEST(AnalyzerTest, RejectsArityMismatch) {
  Dictionary dict;
  auto r = sgf::ParseSgf(
      "Z1 := SELECT x FROM R(x, y);\n"
      "Z2 := SELECT a FROM S(a) WHERE R(a);",
      &dict);
  EXPECT_FALSE(r.ok());
}

// ---- Naive evaluator -------------------------------------------------------

Database Example1Db() {
  Database db;
  db.Put(MakeRelation("R", 2, {{1, 2}, {3, 4}, {5, 6}}));
  db.Put(MakeRelation("S", 2, {{1, 2}, {4, 9}, {6, 7}}));
  return db;
}

TEST(NaiveEvalTest, IntersectionAndDifference) {
  Database db = Example1Db();
  // Z1 := R intersect S; Z2 := R - S (paper Example 1).
  auto z1 = NaiveEvalBsgf(
      ParseBsgfOrDie("Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x, y);"), db);
  ASSERT_OK(z1);
  EXPECT_EQ(RowsOf(*z1), (std::vector<std::vector<int64_t>>{{1, 2}}));

  auto z2 = NaiveEvalBsgf(
      ParseBsgfOrDie("Z2 := SELECT (x, y) FROM R(x, y) WHERE NOT S(x, y);"),
      db);
  ASSERT_OK(z2);
  EXPECT_EQ(RowsOf(*z2),
            (std::vector<std::vector<int64_t>>{{3, 4}, {5, 6}}));
}

TEST(NaiveEvalTest, SemijoinAndAntijoin) {
  Database db = Example1Db();
  // Z3 := R |x S on R.y = S.x (semijoin via shared variable y).
  auto z3 = NaiveEvalBsgf(
      ParseBsgfOrDie("Z3 := SELECT (x, y) FROM R(x, y) WHERE S(y, z);"), db);
  ASSERT_OK(z3);
  // R-tuples whose y appears as S's first column: (3,4)->S(4,9),
  // (5,6)->S(6,7). (1,2) has no S(2,_).
  EXPECT_EQ(RowsOf(*z3),
            (std::vector<std::vector<int64_t>>{{3, 4}, {5, 6}}));

  auto z4 = NaiveEvalBsgf(
      ParseBsgfOrDie("Z4 := SELECT (x, y) FROM R(x, y) WHERE NOT S(y, z);"),
      db);
  ASSERT_OK(z4);
  EXPECT_EQ(RowsOf(*z4), (std::vector<std::vector<int64_t>>{{1, 2}}));
}

TEST(NaiveEvalTest, PaperExample3) {
  // Z := pi_x(R(x,z) |x S(z,y)) over I = {R(1,2), R(4,5), S(2,3)} = {(1)}.
  Database db;
  db.Put(MakeRelation("R", 2, {{1, 2}, {4, 5}}));
  db.Put(MakeRelation("S", 2, {{2, 3}}));
  auto z = NaiveEvalBsgf(
      ParseBsgfOrDie("Z := SELECT x FROM R(x, z) WHERE S(z, y);"), db);
  ASSERT_OK(z);
  EXPECT_EQ(RowsOf(*z), (std::vector<std::vector<int64_t>>{{1}}));
}

TEST(NaiveEvalTest, ConstantsInGuardAndCondition) {
  Database db;
  db.Put(MakeRelation("R", 3, {{1, 2, 4}, {3, 4, 4}, {5, 6, 7}}));
  db.Put(MakeRelation("S", 2, {{1, 1}, {4, 10}}));
  // Guard constant filters rows; conditional constants filter matches.
  auto z = NaiveEvalBsgf(
      ParseBsgfOrDie(
          "Z := SELECT (x, y) FROM R(x, y, 4) WHERE S(1, x) OR S(y, 10);"),
      db);
  ASSERT_OK(z);
  // (1,2,4): S(1,1) matches S(1,x)? needs S(1,1) with x=1 — yes.
  // (3,4,4): S(1,3)? no. S(4,10)? yes.
  // (5,6,7): filtered by guard constant.
  EXPECT_EQ(RowsOf(*z),
            (std::vector<std::vector<int64_t>>{{1, 2}, {3, 4}}));
}

TEST(NaiveEvalTest, RepeatedVariablesInConditional) {
  Database db;
  db.Put(MakeRelation("R", 1, {{1}, {2}}));
  db.Put(MakeRelation("S", 2, {{1, 1}, {2, 3}}));
  // S(x, x): only guard value 1 has a "diagonal" S-fact.
  auto z = NaiveEvalBsgf(
      ParseBsgfOrDie("Z := SELECT x FROM R(x) WHERE S(x, x);"), db);
  ASSERT_OK(z);
  EXPECT_EQ(RowsOf(*z), (std::vector<std::vector<int64_t>>{{1}}));
}

TEST(NaiveEvalTest, ExistentialEqualityInConditional) {
  Database db;
  db.Put(MakeRelation("R", 1, {{1}, {2}}));
  db.Put(MakeRelation("S", 3, {{1, 7, 7}, {2, 8, 9}}));
  // S(x, p, p): existential p must repeat.
  auto z = NaiveEvalBsgf(
      ParseBsgfOrDie("Z := SELECT x FROM R(x) WHERE S(x, p, p);"), db);
  ASSERT_OK(z);
  EXPECT_EQ(RowsOf(*z), (std::vector<std::vector<int64_t>>{{1}}));
}

TEST(NaiveEvalTest, NestedSgfBookstore) {
  // Paper Example 2, with string data.
  Dictionary* dict = &Dictionary::Global();
  sgf::SgfQuery q = ParseSgfOrDie(
      "Z1 := SELECT aut FROM Amaz(ttl, aut, \"bad\") "
      "WHERE BN(ttl, aut, \"bad\") AND BD(ttl, aut, \"bad\");\n"
      "Z2 := SELECT (new, aut) FROM Upcoming(new, aut) WHERE NOT Z1(aut);");
  Value bad = dict->Intern("bad");
  Value good = dict->Intern("good");
  Value t1 = dict->Intern("t1"), t2 = dict->Intern("t2");
  Value a1 = dict->Intern("a1"), a2 = dict->Intern("a2");
  Value n1 = dict->Intern("n1"), n2 = dict->Intern("n2");

  Database db;
  Relation amaz("Amaz", 3), bn("BN", 3), bd("BD", 3), up("Upcoming", 2);
  // a1 has "bad" ratings for t1 everywhere; a2 only at Amazon.
  ASSERT_OK(amaz.Add(Tuple{t1, a1, bad}));
  ASSERT_OK(amaz.Add(Tuple{t2, a2, bad}));
  ASSERT_OK(bn.Add(Tuple{t1, a1, bad}));
  ASSERT_OK(bd.Add(Tuple{t1, a1, bad}));
  ASSERT_OK(bn.Add(Tuple{t2, a2, good}));
  ASSERT_OK(bd.Add(Tuple{t2, a2, good}));
  ASSERT_OK(up.Add(Tuple{n1, a1}));
  ASSERT_OK(up.Add(Tuple{n2, a2}));
  db.Put(amaz);
  db.Put(bn);
  db.Put(bd);
  db.Put(up);

  auto out = NaiveEvalSgf(q, db);
  ASSERT_OK(out);
  const Relation* z2 = out->Get("Z2").value();
  // Only a2's upcoming book survives (a1 is bad at all three stores).
  ASSERT_EQ(z2->size(), 1u);
  EXPECT_EQ(z2->TupleAt(0), (Tuple{n2, a2}));
}

TEST(NaiveEvalTest, GuardednessAllowsDistinctExistentials) {
  // Remark 1's example: S(x, z1) AND NOT S(y, z2).
  Database db;
  db.Put(MakeRelation("R", 2, {{1, 2}, {3, 4}}));
  db.Put(MakeRelation("S", 2, {{1, 9}, {4, 9}}));
  auto z = NaiveEvalBsgf(
      ParseBsgfOrDie(
          "Z := SELECT x FROM R(x, y) WHERE S(x, z1) AND NOT S(y, z2);"),
      db);
  ASSERT_OK(z);
  // (1,2): S(1,9) yes, S(2,_) no -> keep. (3,4): S(3,_) no -> drop.
  EXPECT_EQ(RowsOf(*z), (std::vector<std::vector<int64_t>>{{1}}));
}

TEST(NaiveEvalTest, MissingRelationIsError) {
  Database db;
  db.Put(MakeRelation("R", 1, {{1}}));
  auto z = NaiveEvalBsgf(
      ParseBsgfOrDie("Z := SELECT x FROM R(x) WHERE Nope(x);"), db);
  EXPECT_FALSE(z.ok());
  EXPECT_EQ(z.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace gumbo::sgf
