// Property-based integration tests: random BSGF/SGF queries over random
// databases, evaluated under EVERY strategy (and the Pig/Hive baselines),
// must all agree with the naive reference evaluator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "common/rng.h"
#include "ops/one_round.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "sgf/analyzer.h"
#include "sgf/naive_eval.h"
#include "test_util.h"

namespace gumbo {
namespace {

using plan::Strategy;

cost::ClusterConfig FuzzCluster(Xoshiro256* rng) {
  cost::ClusterConfig c;
  // Randomize the cluster shape too: task counts and reducer counts vary.
  c.nodes = 1 + static_cast<int>(rng->Uniform(4));
  c.map_slots_per_node = 1 + static_cast<int>(rng->Uniform(4));
  c.reduce_slots_per_node = 1 + static_cast<int>(rng->Uniform(4));
  c.split_mb = 0.0001 + rng->UniformDouble() * 0.001;
  c.mb_per_reducer = 0.0001 + rng->UniformDouble() * 0.001;
  return c;
}

// A random guard atom over relation `rel` with `arity` positions: mostly
// distinct variables, sometimes repeated variables or constants.
sgf::Atom RandomGuardAtom(const std::string& rel, uint32_t arity,
                          Xoshiro256* rng, std::vector<std::string>* vars) {
  std::vector<sgf::Term> terms;
  for (uint32_t i = 0; i < arity; ++i) {
    double roll = rng->UniformDouble();
    if (roll < 0.1) {
      terms.push_back(sgf::Term::ConstInt(
          static_cast<int64_t>(rng->Uniform(6))));
    } else if (roll < 0.25 && !vars->empty()) {
      terms.push_back(
          sgf::Term::Var((*vars)[rng->Uniform(vars->size())]));
    } else {
      std::string v = "v" + std::to_string(vars->size());
      vars->push_back(v);
      terms.push_back(sgf::Term::Var(v));
    }
  }
  return sgf::Atom(rel, std::move(terms));
}

// A random conditional atom: guard variables, fresh existentials, and
// constants. Existentials are unique per atom, so guardedness holds by
// construction.
sgf::Atom RandomConditionalAtom(const std::string& rel, uint32_t arity,
                                const std::vector<std::string>& guard_vars,
                                int atom_id, Xoshiro256* rng) {
  std::vector<sgf::Term> terms;
  int fresh = 0;
  for (uint32_t i = 0; i < arity; ++i) {
    double roll = rng->UniformDouble();
    if (roll < 0.55 && !guard_vars.empty()) {
      terms.push_back(
          sgf::Term::Var(guard_vars[rng->Uniform(guard_vars.size())]));
    } else if (roll < 0.7) {
      terms.push_back(sgf::Term::ConstInt(
          static_cast<int64_t>(rng->Uniform(6))));
    } else {
      terms.push_back(sgf::Term::Var("e" + std::to_string(atom_id) + "_" +
                                     std::to_string(fresh++)));
    }
  }
  return sgf::Atom(rel, std::move(terms));
}

sgf::ConditionPtr RandomCondition(size_t num_atoms, Xoshiro256* rng,
                                  size_t* next_atom) {
  if (num_atoms == 1) {
    auto leaf = sgf::Condition::MakeAtom((*next_atom)++);
    if (rng->Bernoulli(0.3)) {
      return sgf::Condition::MakeNot(std::move(leaf));
    }
    return leaf;
  }
  size_t left = 1 + rng->Uniform(num_atoms - 1);
  auto lhs = RandomCondition(left, rng, next_atom);
  auto rhs = RandomCondition(num_atoms - left, rng, next_atom);
  auto node = rng->Bernoulli(0.5)
                  ? sgf::Condition::MakeAnd(std::move(lhs), std::move(rhs))
                  : sgf::Condition::MakeOr(std::move(lhs), std::move(rhs));
  if (rng->Bernoulli(0.15)) {
    return sgf::Condition::MakeNot(std::move(node));
  }
  return node;
}

// A random BSGF over the given guard dataset (name + arity); conditional
// relations are drawn from `cond_pool` (name -> arity).
sgf::BsgfQuery RandomBsgf(
    const std::string& output, const std::string& guard_rel,
    uint32_t guard_arity,
    const std::vector<std::pair<std::string, uint32_t>>& cond_pool,
    int query_id, Xoshiro256* rng) {
  std::vector<std::string> vars;
  sgf::Atom guard = RandomGuardAtom(guard_rel, guard_arity, rng, &vars);
  while (vars.empty()) {
    // All-constant guard: re-roll (select list needs a variable).
    vars.clear();
    guard = RandomGuardAtom(guard_rel, guard_arity, rng, &vars);
  }
  // Select a random non-empty subset of guard variables.
  std::vector<std::string> select;
  for (const std::string& v : vars) {
    if (rng->Bernoulli(0.6)) select.push_back(v);
  }
  if (select.empty()) select.push_back(vars[rng->Uniform(vars.size())]);

  size_t num_atoms = rng->Uniform(4);  // 0..3
  std::vector<sgf::Atom> atoms;
  sgf::ConditionPtr cond;
  if (num_atoms > 0) {
    for (size_t a = 0; a < num_atoms; ++a) {
      const auto& [rel, arity] = cond_pool[rng->Uniform(cond_pool.size())];
      atoms.push_back(RandomConditionalAtom(
          rel, arity, vars, query_id * 10 + static_cast<int>(a), rng));
    }
    // Dedupe identical atoms (the parser would intern them).
    std::vector<sgf::Atom> unique;
    std::vector<size_t> remap(atoms.size());
    for (size_t a = 0; a < atoms.size(); ++a) {
      bool found = false;
      for (size_t u = 0; u < unique.size(); ++u) {
        if (unique[u] == atoms[a]) {
          remap[a] = u;
          found = true;
          break;
        }
      }
      if (!found) {
        remap[a] = unique.size();
        unique.push_back(atoms[a]);
      }
    }
    size_t next = 0;
    cond = RandomCondition(num_atoms, rng, &next);
    // Remap leaf indices onto the deduped atom list.
    struct Remapper {
      static sgf::ConditionPtr Apply(const sgf::Condition& c,
                                     const std::vector<size_t>& remap) {
        switch (c.kind()) {
          case sgf::Condition::Kind::kAtom:
            return sgf::Condition::MakeAtom(remap[c.atom_index()]);
          case sgf::Condition::Kind::kAnd:
            return sgf::Condition::MakeAnd(Apply(*c.lhs(), remap),
                                           Apply(*c.rhs(), remap));
          case sgf::Condition::Kind::kOr:
            return sgf::Condition::MakeOr(Apply(*c.lhs(), remap),
                                          Apply(*c.rhs(), remap));
          case sgf::Condition::Kind::kNot:
            return sgf::Condition::MakeNot(Apply(*c.child(), remap));
        }
        return nullptr;
      }
    };
    cond = Remapper::Apply(*cond, remap);
    atoms = std::move(unique);
  }
  return sgf::BsgfQuery(output, std::move(select), std::move(guard),
                        std::move(atoms), std::move(cond));
}

Relation RandomRelation(const std::string& name, uint32_t arity,
                        size_t tuples, Xoshiro256* rng) {
  Relation rel(name, arity);
  for (size_t i = 0; i < tuples; ++i) {
    Tuple t;
    for (uint32_t a = 0; a < arity; ++a) {
      t.PushBack(Value::Int(static_cast<int64_t>(rng->Uniform(6))));
    }
    rel.AddUnchecked(std::move(t));
  }
  rel.SortAndDedupe();
  return rel;
}

struct FuzzCase {
  sgf::SgfQuery query;
  Database db;
};

FuzzCase RandomCase(uint64_t seed) {
  Xoshiro256 rng(seed);
  FuzzCase fc;
  // Relation pool.
  std::vector<std::pair<std::string, uint32_t>> cond_pool;
  size_t num_rels = 2 + rng.Uniform(3);
  for (size_t i = 0; i < num_rels; ++i) {
    std::string name = "C" + std::to_string(i);
    uint32_t arity = 1 + static_cast<uint32_t>(rng.Uniform(3));
    cond_pool.push_back({name, arity});
    fc.db.Put(RandomRelation(name, arity, 10 + rng.Uniform(40), &rng));
  }
  uint32_t guard_arity = 1 + static_cast<uint32_t>(rng.Uniform(3));
  fc.db.Put(RandomRelation("R", guard_arity, 20 + rng.Uniform(60), &rng));

  // First query over the base guard.
  fc.query.Append(
      RandomBsgf("Z1", "R", guard_arity, cond_pool, 1, &rng));
  // Optionally a second query whose guard is Z1 (nested SGF) and which may
  // also use Z1 as a conditional through the pool.
  if (rng.Bernoulli(0.6)) {
    uint32_t z1_arity = fc.query.subqueries()[0].OutputArity();
    auto pool2 = cond_pool;
    pool2.push_back({"Z1", z1_arity});
    fc.query.Append(RandomBsgf("Z2", "Z1", z1_arity, pool2, 2, &rng));
  }
  return fc;
}

class StrategyFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyFuzzTest, AllStrategiesAgreeWithNaive) {
  FuzzCase fc = RandomCase(GetParam());
  ASSERT_OK(sgf::ValidateSgf(fc.query)) << fc.query.ToString();
  Xoshiro256 rng(GetParam() ^ 0xabcdef);
  cost::ClusterConfig config = FuzzCluster(&rng);

  std::vector<Strategy> strategies = {
      Strategy::kSeq,     Strategy::kPar,        Strategy::kGreedy,
      Strategy::kOpt,     Strategy::kSeqUnit,    Strategy::kParUnit,
      Strategy::kGreedySgf};
  // OPT-SGF only on 2-subquery cases (cheap enough).
  if (fc.query.size() <= 2) strategies.push_back(Strategy::kOptSgf);
  bool one_round_ok = true;
  for (const auto& q : fc.query.subqueries()) {
    one_round_ok = one_round_ok && ops::CanOneRound(q);
  }
  // 1-ROUND applies per level only when every subquery qualifies.
  if (one_round_ok) strategies.push_back(Strategy::kOneRound);

  for (Strategy s : strategies) {
    for (bool ids : {true, false}) {
      for (bool pack : {true, false}) {
        plan::PlannerOptions opts;
        opts.strategy = s;
        opts.op.tuple_id_refs = ids;
        opts.op.pack_messages = pack;
        opts.sample_size = 32;
        plan::Planner planner(config, opts);
        mr::Engine engine(config);
        Database db = fc.db;
        auto result = plan::ExecuteAndVerify(fc.query, planner, &engine, &db);
        ASSERT_OK(result) << "seed=" << GetParam() << " strategy="
                          << StrategyName(s) << " ids=" << ids
                          << " pack=" << pack << "\n"
                          << fc.query.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyFuzzTest,
                         ::testing::Range<uint64_t>(0, 60));

class BaselineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BaselineFuzzTest, BaselinesAgreeWithNaive) {
  FuzzCase fc = RandomCase(GetParam());
  // Baselines support flat queries only: keep just Z1.
  sgf::SgfQuery flat;
  flat.Append(fc.query.subqueries()[0]);
  auto expected = sgf::NaiveEvalSgf(flat, fc.db);
  ASSERT_OK(expected);
  Xoshiro256 rng(GetParam() ^ 0x9999);
  cost::ClusterConfig config = FuzzCluster(&rng);
  for (auto kind : {baselines::BaselineKind::kHivePar,
                    baselines::BaselineKind::kHiveParSemiJoin,
                    baselines::BaselineKind::kPigPar}) {
    auto plan = baselines::PlanBaseline(kind, flat, fc.db);
    ASSERT_OK(plan) << baselines::BaselineName(kind);
    mr::Engine engine(config);
    Database db = fc.db;
    auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, db, &db);
    ASSERT_OK(result);
    EXPECT_TRUE(db.Get("Z1").value()->SetEquals(*expected->Get("Z1").value()))
        << "seed=" << GetParam() << " " << baselines::BaselineName(kind)
        << "\n" << flat.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineFuzzTest,
                         ::testing::Range<uint64_t>(0, 40));

}  // namespace
}  // namespace gumbo
