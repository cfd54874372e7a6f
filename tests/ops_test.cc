// Tests for the MapReduce operators (MSJ, EVAL, 1-ROUND, chain steps):
// every operator is validated against the naive reference evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/scheduler.h"
#include "mr/engine.h"
#include "mr/program.h"
#include "mr/runtime.h"
#include "ops/chain.h"
#include "ops/eval.h"
#include "ops/messages.h"
#include "ops/msj.h"
#include "ops/one_round.h"
#include "sgf/naive_eval.h"
#include "test_util.h"

namespace gumbo::ops {
namespace {

using ::gumbo::testing::MakeRelation;
using ::gumbo::testing::ParseBsgfOrDie;
using ::gumbo::testing::RowsOf;

cost::ClusterConfig TestCluster() {
  cost::ClusterConfig c;
  c.split_mb = 0.0005;  // several map tasks even on tiny relations
  c.mb_per_reducer = 0.0005;
  return c;
}

Database IntroDb() {
  Database db;
  db.Put(MakeRelation("R", 2, {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}}));
  db.Put(MakeRelation("S", 2, {{1, 2}, {3, 2}, {4, 5}}));
  db.Put(MakeRelation("T", 2, {{1, 9}, {3, 7}, {5, 5}}));
  return db;
}

// Runs MSJ for all equations of `query` (in one job), then EVAL; returns
// the output relation.
Result<Relation> RunTwoRound(const sgf::BsgfQuery& query, Database db,
                             const OpOptions& options) {
  std::vector<SemiJoinEquation> eqs;
  EvalTask eval_task;
  eval_task.query = query;
  eval_task.guard_dataset = query.guard().relation();
  eval_task.output_dataset = query.output();
  for (size_t i = 0; i < query.num_conditional_atoms(); ++i) {
    SemiJoinEquation eq;
    eq.output = "__x" + std::to_string(i);
    eq.guard = query.guard();
    eq.guard_dataset = query.guard().relation();
    eq.conditional = query.conditional_atoms()[i];
    eq.conditional_dataset = query.conditional_atoms()[i].relation();
    eval_task.x_datasets.push_back(eq.output);
    eqs.push_back(std::move(eq));
  }
  mr::Program program;
  GUMBO_ASSIGN_OR_RETURN(mr::JobSpec msj, BuildMsjJob(eqs, options, "msj"));
  size_t j = program.AddJob(std::move(msj));
  GUMBO_ASSIGN_OR_RETURN(mr::JobSpec eval,
                         BuildEvalJob({eval_task}, options, "eval"));
  program.AddJob(std::move(eval), {j});
  mr::Engine engine(TestCluster());
  GUMBO_RETURN_IF_ERROR(mr::Runtime(&engine).Execute(program, &db).status());
  GUMBO_ASSIGN_OR_RETURN(const Relation* out, db.Get(query.output()));
  return *out;
}

void ExpectMatchesNaive(const std::string& text, const Database& db,
                        const OpOptions& options) {
  sgf::BsgfQuery q = ParseBsgfOrDie(text);
  auto expected = sgf::NaiveEvalBsgf(q, db);
  ASSERT_OK(expected);
  auto got = RunTwoRound(q, db, options);
  ASSERT_OK(got);
  EXPECT_TRUE(got->SetEquals(*expected))
      << "query: " << text << "\n got " << got->size() << " tuples, want "
      << expected->size();
}

TEST(MsjEvalTest, IntroQueryBothPayloadModes) {
  const char* q =
      "Z := SELECT (x, y) FROM R(x, y) "
      "WHERE (S(x, y) OR S(y, x)) AND T(x, z);";
  for (bool ids : {true, false}) {
    OpOptions opt;
    opt.tuple_id_refs = ids;
    ExpectMatchesNaive(q, IntroDb(), opt);
  }
}

TEST(MsjEvalTest, NegationRequiresGuardPresence) {
  // Tuples matching NO atom must still be evaluated (NOT S).
  ExpectMatchesNaive("Z := SELECT (x, y) FROM R(x, y) WHERE NOT S(x, y);",
                     IntroDb(), OpOptions{});
}

TEST(MsjEvalTest, EarlyProjectionWouldBeWrong) {
  // Two guard tuples agree on x but satisfy different atoms; projecting
  // before EVAL would wrongly emit x=1. Guards against the §4.2 pitfall
  // discussed in DESIGN.md.
  Database db;
  db.Put(MakeRelation("R", 2, {{1, 10}, {1, 20}}));
  db.Put(MakeRelation("S", 1, {{10}}));
  db.Put(MakeRelation("T", 1, {{20}}));
  ExpectMatchesNaive("Z := SELECT x FROM R(x, y) WHERE S(y) AND T(y);", db,
                     OpOptions{});
  // And verify the expected answer is indeed empty.
  auto q = ParseBsgfOrDie("Z := SELECT x FROM R(x, y) WHERE S(y) AND T(y);");
  auto expected = sgf::NaiveEvalBsgf(q, db);
  ASSERT_OK(expected);
  EXPECT_EQ(expected->size(), 0u);
}

TEST(MsjEvalTest, SharedConditionSignatures) {
  // A2-style: same relation tested on four different guard columns.
  Database db;
  db.Put(MakeRelation("G", 4, {{1, 2, 3, 4}, {5, 5, 5, 5}, {9, 9, 9, 9}}));
  db.Put(MakeRelation("S", 1, {{1}, {2}, {3}, {4}, {5}}));
  ExpectMatchesNaive(
      "Z := SELECT (x, y, z, w) FROM G(x, y, z, w) "
      "WHERE S(x) AND S(y) AND S(z) AND S(w);",
      db, OpOptions{});
}

TEST(MsjEvalTest, SharedKeysAcrossConditions) {
  // A3-style: different relations, same key.
  Database db;
  db.Put(MakeRelation("G", 4, {{1, 2, 3, 4}, {2, 1, 1, 1}, {7, 0, 0, 0}}));
  db.Put(MakeRelation("S", 1, {{1}, {7}}));
  db.Put(MakeRelation("T", 1, {{1}, {2}}));
  db.Put(MakeRelation("U", 1, {{2}, {7}}));
  ExpectMatchesNaive(
      "Z := SELECT (x, y, z, w) FROM G(x, y, z, w) "
      "WHERE S(x) AND (T(x) OR NOT U(x));",
      db, OpOptions{});
}

TEST(MsjEvalTest, GuardAlsoConditional) {
  // The same relation appears as guard and conditional.
  Database db;
  db.Put(MakeRelation("R", 2, {{1, 2}, {2, 1}, {3, 4}}));
  ExpectMatchesNaive("Z := SELECT (x, y) FROM R(x, y) WHERE R(y, x);", db,
                     OpOptions{});
}

TEST(MsjEvalTest, EmptyConditionalRelation) {
  Database db = IntroDb();
  db.Put(Relation("E", 1));
  ExpectMatchesNaive("Z := SELECT x FROM R(x, y) WHERE NOT E(x);", db,
                     OpOptions{});
  ExpectMatchesNaive("Z := SELECT x FROM R(x, y) WHERE E(x);", db,
                     OpOptions{});
}

TEST(MsjEvalTest, CrossConditionNoSharedVars) {
  // Conditional atom sharing no variable with the guard: existential
  // "relation is non-empty" semantics; exercises the empty join key.
  Database db;
  db.Put(MakeRelation("R", 1, {{1}, {2}}));
  db.Put(MakeRelation("S", 1, {{9}}));
  db.Put(Relation("E", 1));
  ExpectMatchesNaive("Z := SELECT x FROM R(x) WHERE S(q);", db, OpOptions{});
  ExpectMatchesNaive("Z := SELECT x FROM R(x) WHERE E(q);", db, OpOptions{});
  ExpectMatchesNaive("Z := SELECT x FROM R(x) WHERE NOT E(q);", db,
                     OpOptions{});
}

TEST(MsjTest, RejectsDuplicateOutputs) {
  SemiJoinEquation eq;
  eq.output = "X";
  eq.guard = sgf::Atom::Vars("R", {"x"});
  eq.guard_dataset = "R";
  eq.conditional = sgf::Atom::Vars("S", {"x"});
  eq.conditional_dataset = "S";
  auto r = BuildMsjJob({eq, eq}, OpOptions{}, "bad");
  EXPECT_FALSE(r.ok());
}

TEST(MsjTest, RejectsOutputShadowingInput) {
  SemiJoinEquation eq;
  eq.output = "S";  // collides with the conditional input
  eq.guard = sgf::Atom::Vars("R", {"x"});
  eq.guard_dataset = "R";
  eq.conditional = sgf::Atom::Vars("S", {"x"});
  eq.conditional_dataset = "S";
  EXPECT_FALSE(BuildMsjJob({eq}, OpOptions{}, "bad").ok());
}

// Per-input signatures of the MSJ job over every equation of `query`, in
// JobSpec::inputs order (guard first).
std::vector<std::string> InputSignatures(const std::string& query,
                                         bool tuple_ids = true) {
  const sgf::BsgfQuery q = ParseBsgfOrDie(query);
  std::vector<SemiJoinEquation> eqs;
  for (size_t i = 0; i < q.num_conditional_atoms(); ++i) {
    SemiJoinEquation eq;
    eq.output = "__x" + std::to_string(i);
    eq.guard = q.guard();
    eq.guard_dataset = q.guard().relation();
    eq.conditional = q.conditional_atoms()[i];
    eq.conditional_dataset = q.conditional_atoms()[i].relation();
    eqs.push_back(std::move(eq));
  }
  OpOptions options;
  options.tuple_id_refs = tuple_ids;
  auto job = BuildMsjJob(eqs, options, "sig");
  EXPECT_TRUE(job.ok()) << job.status();
  std::vector<std::string> out;
  if (job.ok()) {
    for (const mr::JobInput& in : job->inputs) out.push_back(in.signature);
  }
  return out;
}

// The cost estimator samples each (dataset, input signature) once per
// planning call (DESIGN.md §10), so a signature must change with anything
// the mapper emits for that input and with nothing else.
TEST(MsjTest, InputSignaturesTrackWhatTheMapperEmits) {
  const char* kBase = "Z := SELECT x FROM R(x, y) WHERE S(x, 3);";
  const std::vector<std::string> base = InputSignatures(kBase);
  ASSERT_EQ(base.size(), 2u);  // guard R, conditional S
  EXPECT_FALSE(base[0].empty());
  EXPECT_FALSE(base[1].empty());
  EXPECT_EQ(InputSignatures("Z := SELECT a FROM R(a, b) WHERE S(a, 3);"),
            base);

  // A constant selects which conditional facts assert.
  const auto constant =
      InputSignatures("Z := SELECT x FROM R(x, y) WHERE S(x, 4);");
  EXPECT_EQ(constant[0], base[0]);
  EXPECT_NE(constant[1], base[1]);

  // A repeated variable selects which guard facts request.
  const auto repeated =
      InputSignatures("Z := SELECT x FROM R(x, x) WHERE S(x, 3);");
  EXPECT_NE(repeated[0], base[0]);
  EXPECT_EQ(repeated[1], base[1]);

  // The key variables choose the columns a fact projects to.
  const auto other_column =
      InputSignatures("Z := SELECT x FROM R(x, y) WHERE S(y, 3);");
  EXPECT_NE(other_column[0], base[0]);
  EXPECT_EQ(other_column[1], base[1]);
  EXPECT_NE(InputSignatures("Z := SELECT x FROM R(x, y) WHERE S(x, y);")[1],
            InputSignatures("Z := SELECT x FROM R(x, z) WHERE S(x, y);")[1]);

  // The tuple-id mode sets the request payload width.
  EXPECT_NE(InputSignatures(kBase, /*tuple_ids=*/false)[0], base[0]);
}

// ---- 1-ROUND ---------------------------------------------------------------

TEST(OneRoundTest, QualificationRules) {
  EXPECT_TRUE(CanOneRound(ParseBsgfOrDie(
      "Z := SELECT x FROM R(x, y) WHERE S(x) AND T(x) AND NOT U(x);")));
  EXPECT_TRUE(CanOneRound(ParseBsgfOrDie(
      "Z := SELECT x FROM R(x, y) WHERE S(x) OR NOT T(y);")));
  EXPECT_FALSE(CanOneRound(ParseBsgfOrDie(
      "Z := SELECT x FROM R(x, y) WHERE S(x) AND T(y);")));
  EXPECT_TRUE(CanOneRound(ParseBsgfOrDie("Z := SELECT x FROM R(x, y);")));
}

Result<Relation> RunOneRound(const sgf::BsgfQuery& query, Database db) {
  OneRoundTask task;
  task.query = query;
  task.guard_dataset = query.guard().relation();
  for (const auto& a : query.conditional_atoms()) {
    task.conditional_datasets.push_back(a.relation());
  }
  task.output_dataset = query.output();
  GUMBO_ASSIGN_OR_RETURN(mr::JobSpec spec,
                         BuildOneRoundJob({task}, OpOptions{}, "1round"));
  mr::Engine engine(TestCluster());
  GUMBO_RETURN_IF_ERROR(engine.Run(spec, &db).status());
  GUMBO_ASSIGN_OR_RETURN(const Relation* out, db.Get(query.output()));
  return *out;
}

void ExpectOneRoundMatchesNaive(const std::string& text, const Database& db) {
  sgf::BsgfQuery q = ParseBsgfOrDie(text);
  auto expected = sgf::NaiveEvalBsgf(q, db);
  ASSERT_OK(expected);
  auto got = RunOneRound(q, db);
  ASSERT_OK(got);
  EXPECT_TRUE(got->SetEquals(*expected))
      << "query: " << text << "\n got " << got->size() << ", want "
      << expected->size();
}

TEST(OneRoundTest, SharedKeyFullCondition) {
  Database db;
  db.Put(MakeRelation("G", 4, {{1, 2, 3, 4}, {2, 1, 1, 1}, {7, 0, 0, 0}}));
  db.Put(MakeRelation("S", 1, {{1}, {7}}));
  db.Put(MakeRelation("T", 1, {{1}, {2}}));
  db.Put(MakeRelation("U", 1, {{2}, {7}}));
  ExpectOneRoundMatchesNaive(
      "Z := SELECT (x, y, z, w) FROM G(x, y, z, w) "
      "WHERE (S(x) AND NOT T(x)) OR U(x);",
      db);
}

TEST(OneRoundTest, DisjunctionOfLiteralsAcrossKeys) {
  Database db = IntroDb();
  ExpectOneRoundMatchesNaive(
      "Z := SELECT (x, y) FROM R(x, y) WHERE S(x, q) OR NOT T(y, p);", db);
}

TEST(OneRoundTest, ProjectionOnly) {
  Database db;
  db.Put(MakeRelation("R", 3, {{1, 2, 4}, {3, 4, 4}, {5, 6, 7}, {8, 9, 4}}));
  ExpectOneRoundMatchesNaive("Z := SELECT y FROM R(x, y, 4);", db);
}

TEST(OneRoundTest, RefusesNonQualifyingQuery) {
  sgf::BsgfQuery q = ParseBsgfOrDie(
      "Z := SELECT x FROM R(x, y) WHERE S(x) AND T(y);");
  OneRoundTask task;
  task.query = q;
  task.guard_dataset = "R";
  task.conditional_datasets = {"S", "T"};
  task.output_dataset = "Z";
  EXPECT_FALSE(BuildOneRoundJob({task}, OpOptions{}, "bad").ok());
}

// ---- Chain steps (SEQ) -----------------------------------------------------

TEST(ChainTest, SemijoinThenAntijoin) {
  Database db = IntroDb();
  // Z := R |x S(x,q) then anti-join T(x,p): matches naive for
  // "S(x,q) AND NOT T(x,p)".
  sgf::BsgfQuery q = ParseBsgfOrDie(
      "Z := SELECT (x, y) FROM R(x, y) WHERE S(x, q) AND NOT T(x, p);");
  auto expected = sgf::NaiveEvalBsgf(q, db);
  ASSERT_OK(expected);

  ChainStepSpec s1;
  s1.guard = q.guard();
  s1.input_dataset = "R";
  s1.conditional = q.conditional_atoms()[0];
  s1.conditional_dataset = "S";
  s1.positive = true;
  s1.filter_guard_pattern = true;
  s1.output_dataset = "__c1";

  ChainStepSpec s2;
  s2.guard = q.guard();
  s2.input_dataset = "__c1";
  s2.conditional = q.conditional_atoms()[1];
  s2.conditional_dataset = "T";
  s2.positive = false;
  s2.emit_projection = true;
  s2.select_vars = q.select_vars();
  s2.output_dataset = "Z";

  mr::Program program;
  auto j1 = BuildChainStepJob(s1, OpOptions{}, "step1");
  ASSERT_OK(j1);
  size_t id1 = program.AddJob(std::move(*j1));
  auto j2 = BuildChainStepJob(s2, OpOptions{}, "step2");
  ASSERT_OK(j2);
  program.AddJob(std::move(*j2), {id1});

  mr::Engine engine(TestCluster());
  ASSERT_OK(mr::Runtime(&engine).Execute(program, &db).status());
  EXPECT_TRUE(db.Get("Z").value()->SetEquals(*expected));
}

TEST(ChainTest, IntermediateShrinks) {
  Database db = IntroDb();
  ChainStepSpec s1;
  s1.guard = sgf::Atom::Vars("R", {"x", "y"});
  s1.input_dataset = "R";
  s1.conditional = sgf::Atom::Vars("S", {"x", "q"});
  s1.conditional_dataset = "S";
  s1.positive = true;
  s1.filter_guard_pattern = true;
  s1.output_dataset = "__c";
  auto job = BuildChainStepJob(s1, OpOptions{}, "s");
  ASSERT_OK(job);
  mr::Engine engine(TestCluster());
  ASSERT_OK(engine.Run(*job, &db).status());
  EXPECT_LT(db.Get("__c").value()->size(), db.Get("R").value()->size());
}

// Anti-join + Bloom filters (DESIGN.md §5.2): requests must NOT be
// filtered on a negative step — dropping a filter-negative request would
// silently delete exactly the tuples an anti-join is supposed to keep.
// Only dead asserts (keys no input tuple requests) may be suppressed.
TEST(ChainTest, AntiJoinWithFiltersKeepsUnmatchedGuards) {
  OpOptions filtered;
  filtered.bloom_filters = true;
  OpOptions plain;
  plain.bloom_filters = false;
  for (const OpOptions& options : {filtered, plain}) {
    Database db = IntroDb();
    ChainStepSpec s;
    s.guard = sgf::Atom::Vars("R", {"x", "y"});
    s.input_dataset = "R";
    s.conditional = sgf::Atom::Vars("S", {"x", "q"});
    s.conditional_dataset = "S";
    s.positive = false;  // keep R tuples with NO matching S fact
    s.filter_guard_pattern = true;
    s.output_dataset = "Z";
    auto job = BuildChainStepJob(s, options, "asj");
    ASSERT_OK(job);
    mr::Engine engine(TestCluster());
    auto stats = engine.Run(*job, &db);
    ASSERT_OK(stats);
    // S has x in {1, 3, 4}; R keeps x in {2, 5}.
    EXPECT_EQ(RowsOf(*db.Get("Z").value()),
              (std::vector<std::vector<int64_t>>{{2, 3}, {5, 1}}));
    if (options.bloom_filters) {
      // The dead asserts (S keys 1/3/4 all appear in R here, so none are
      // dead) may or may not fire; what matters is nothing was requested
      // away: all requests flowed.
      EXPECT_GT(stats->filter_mb, 0.0);
    } else {
      EXPECT_EQ(stats->filtered_messages, 0u);
      EXPECT_EQ(stats->filter_mb, 0.0);
    }
  }
}

// Two-sided MSJ filtering drops both unmatched requests and dead asserts
// while leaving the result untouched.
TEST(MsjEvalTest, FiltersSuppressTrafficWithoutChangingResults) {
  const char* q =
      "Z := SELECT (x, y) FROM R(x, y) WHERE S(x, q) AND T(y, r);";
  Database db = IntroDb();
  OpOptions on;
  on.bloom_filters = true;
  OpOptions off;
  off.bloom_filters = false;
  ExpectMatchesNaive(q, db, on);
  ExpectMatchesNaive(q, db, off);
}

TEST(ChainTest, UnionProjectDedupes) {
  Database db;
  db.Put(MakeRelation("C1", 2, {{1, 2}, {3, 4}}));
  db.Put(MakeRelation("C2", 2, {{3, 4}, {5, 6}}));
  auto job = BuildUnionProjectJob({"C1", "C2"}, sgf::Atom::Vars("R", {"x", "y"}),
                                  {"x"}, "Z", "union");
  ASSERT_OK(job);
  mr::Engine engine(TestCluster());
  ASSERT_OK(engine.Run(*job, &db).status());
  EXPECT_EQ(RowsOf(*db.Get("Z").value()),
            (std::vector<std::vector<int64_t>>{{1}, {3}, {5}}));
}

// ---- Compiled keys and the engine's filter build ---------------------------

// Random atom over R/arity with repeated variables and constants; every
// variable it uses is returned in `vars` (first-occurrence order).
sgf::Atom RandomAtom(Xoshiro256* rng, uint32_t arity,
                     std::vector<std::string>* vars) {
  std::vector<sgf::Term> terms;
  for (uint32_t i = 0; i < arity; ++i) {
    if (rng->Uniform(4) == 0) {
      terms.push_back(
          sgf::Term::ConstInt(static_cast<int64_t>(rng->Uniform(3))));
    } else {
      terms.push_back(sgf::Term::Var("v" + std::to_string(rng->Uniform(4))));
    }
  }
  sgf::Atom atom("R", std::move(terms));
  *vars = atom.Variables();
  return atom;
}

TEST(ShuffleKeyTest, PositionProjectionMatchesNamedProjection) {
  Xoshiro256 rng(13);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::string> vars;
    const sgf::Atom atom =
        RandomAtom(&rng, static_cast<uint32_t>(rng.Uniform(6)), &vars);
    // A random ordered subset of the atom's variables — sometimes all of
    // them in term order, which may be an identity projection.
    std::vector<std::string> key_vars;
    for (const std::string& v : vars) {
      if (rng.Uniform(3) != 0) key_vars.push_back(v);
    }
    if (rng.Uniform(2) == 0) std::reverse(key_vars.begin(), key_vars.end());
    const KeyProjection proj = KeyProjection::Of(atom, key_vars);
    ShuffleKey key;
    std::vector<uint64_t> gathered;
    for (int f = 0; f < 20; ++f) {
      Tuple fact;
      for (uint32_t i = 0; i < atom.arity(); ++i) {
        fact.PushBack(Value::Int(static_cast<int64_t>(rng.Uniform(5))));
      }
      const RowView row(fact.raw_words(), fact.size(), fact.Hash());
      const Tuple expected = atom.Project(fact, key_vars);
      EXPECT_EQ(ShuffleKeyHash(proj, row), expected.Hash()) << atom.ToString();
      key.Select(proj, row);
      EXPECT_EQ(key.key.ToTuple(), expected);
      EXPECT_EQ(key.hash, expected.Hash());
      EXPECT_EQ(proj.Gather(row, &gathered).ToTuple(), expected);
      // Prefixed keys: (7, 9, projection...).
      Tuple prefixed = Tuple::Ints({7, 9});
      for (const Value& v : expected) prefixed.PushBack(v);
      key.Compose({Value::Int(7).raw(), Value::Int(9).raw()}, proj, row);
      EXPECT_EQ(key.key.ToTuple(), prefixed);
      EXPECT_EQ(key.hash, prefixed.Hash());
    }
  }
}

// The filter sets the operators declare, over random relations: an MSJ
// job with shared and distinct conditions on several inputs, a 1-ROUND
// disjunction across keys, and a chain step.
std::vector<mr::JobSpec> FilteredJobs() {
  const sgf::Atom guard = sgf::Atom::Vars("R", {"x", "y", "z"});
  auto eq = [&](const std::string& out, const sgf::Atom& cond) {
    return SemiJoinEquation{out, guard, "R", cond, cond.relation()};
  };
  std::vector<SemiJoinEquation> eqs = {
      eq("X0", sgf::Atom::Vars("S", {"x", "q"})),
      eq("X1", sgf::Atom::Vars("S", {"x", "r"})),  // shares X0's condition
      eq("X2", sgf::Atom::Vars("S", {"y", "x"})),
      eq("X3", sgf::Atom::Vars("T", {"z", "z"})),
      eq("X4", sgf::Atom::Vars("R", {"y", "z", "q"}))};
  std::vector<mr::JobSpec> jobs;
  jobs.push_back(BuildMsjJob(eqs, OpOptions{}, "msj").value());
  OneRoundTask task;
  task.query = ParseBsgfOrDie(
      "Z := SELECT (x, y) FROM R(x, y, z) WHERE S(x, q) OR T(z, z) OR "
      "S(x, r);");
  task.guard_dataset = "R";
  task.conditional_datasets = {"S", "T", "S"};
  task.output_dataset = "Z";
  jobs.push_back(BuildOneRoundJob({task}, OpOptions{}, "one_round").value());
  ChainStepSpec step;
  step.guard = guard;
  step.input_dataset = "R";
  step.conditional = sgf::Atom::Vars("T", {"y", "w"});
  step.conditional_dataset = "T";
  step.filter_guard_pattern = true;
  step.output_dataset = "C";
  jobs.push_back(BuildChainStepJob(step, OpOptions{}, "chain").value());
  return jobs;
}

TEST(FilterBuildTest, ParallelBuildEqualsSerialInsert) {
  Xoshiro256 rng(5);
  Database db;
  for (const auto& [name, arity] :
       std::vector<std::pair<std::string, uint32_t>>{{"R", 3}, {"S", 2},
                                                     {"T", 2}}) {
    Relation rel(name, arity);
    for (int i = 0; i < 3000; ++i) {
      Tuple t;
      for (uint32_t a = 0; a < arity; ++a) {
        t.PushBack(Value::Int(static_cast<int64_t>(rng.Uniform(400))));
      }
      ASSERT_OK(rel.Add(std::move(t)));
    }
    db.Put(std::move(rel));
  }
  for (const mr::JobSpec& job : FilteredJobs()) {
    std::vector<const Relation*> rels;
    for (const mr::JobInput& in : job.inputs) {
      rels.push_back(db.Get(in.dataset).value());
    }
    auto plan = job.filter_builder(rels);
    ASSERT_OK(plan) << job.name;
    ASSERT_FALSE(plan->passes.empty()) << job.name;
    // The reference: every pass inserted in declaration order, serially.
    mr::FilterSet serial = plan->filters;
    for (const mr::FilterPass& pass : plan->passes) {
      uint64_t h = 0;
      for (RowView fact : rels[pass.input]->views()) {
        if (pass.key(fact, &h)) serial.mutable_filter(pass.filter)->Insert(h);
      }
    }
    for (size_t f = 0; f < serial.size(); ++f) {
      if (plan->filters.filter(f).SizeBytes() == 0.0) continue;
      EXPECT_NE(serial.filter(f), plan->filters.filter(f))
          << job.name << " filter " << f << " stayed empty";
    }
    for (size_t workers : {1u, 2u, 8u}) {
      Scheduler scheduler(workers);
      SchedContext ctx;
      ctx.scheduler = &scheduler;
      const mr::FilterSet built = mr::BuildFilters(*plan, rels, ctx);
      ASSERT_EQ(built.size(), serial.size());
      for (size_t f = 0; f < serial.size(); ++f) {
        EXPECT_EQ(built.filter(f), serial.filter(f))
            << job.name << " filter " << f << " at " << workers << " workers";
      }
    }
  }
}

}  // namespace
}  // namespace gumbo::ops
