// Property-based tests of module invariants, using parameterized sweeps:
//
//  * DNF conversion is truth-table equivalent to the original condition;
//  * parser round-trips: ToString(parse(q)) reparses to the same structure;
//  * the scheduler respects fundamental bounds (net <= total, critical
//    path lower bound, slot monotonicity);
//  * the cost model is monotone in its size arguments;
//  * multiway-toposort enumeration on random DAGs yields only valid sorts
//    and always contains the all-singletons sort;
//  * Greedy-BSGF grouping cost never beats the brute-force optimum;
//  * shuffle-volume optimizations (DESIGN.md §5): over random BSGF
//    queries, results are byte-identical with Bloom filters on vs. off,
//    and the filtered run never shuffles more records.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "cost/model.h"
#include "data/generator.h"
#include "mr/program.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "plan/toposort.h"
#include "sgf/condition.h"
#include "sgf/parser.h"
#include "test_util.h"

namespace gumbo {
namespace {

// ---- Condition / DNF ---------------------------------------------------------

sgf::ConditionPtr RandomCondition(size_t atoms, Xoshiro256* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.35)) {
    auto leaf = sgf::Condition::MakeAtom(rng->Uniform(atoms));
    return rng->Bernoulli(0.3) ? sgf::Condition::MakeNot(std::move(leaf))
                               : std::move(leaf);
  }
  auto lhs = RandomCondition(atoms, rng, depth - 1);
  auto rhs = RandomCondition(atoms, rng, depth - 1);
  auto node = rng->Bernoulli(0.5)
                  ? sgf::Condition::MakeAnd(std::move(lhs), std::move(rhs))
                  : sgf::Condition::MakeOr(std::move(lhs), std::move(rhs));
  return rng->Bernoulli(0.2) ? sgf::Condition::MakeNot(std::move(node))
                             : std::move(node);
}

bool EvalDnf(const std::vector<std::vector<int>>& clauses, uint32_t truth) {
  for (const auto& clause : clauses) {
    bool all = true;
    for (int lit : clause) {
      size_t atom = static_cast<size_t>(std::abs(lit)) - 1;
      bool v = (truth >> atom) & 1;
      if ((lit > 0) != v) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class DnfPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DnfPropertyTest, DnfIsTruthTableEquivalent) {
  Xoshiro256 rng(GetParam());
  const size_t atoms = 1 + rng.Uniform(5);
  auto cond = RandomCondition(atoms, &rng, 4);
  std::vector<std::vector<int>> clauses;
  auto st = cond->ToDnf(&clauses, 1 << 14);
  ASSERT_OK(st);
  for (uint32_t truth = 0; truth < (1u << atoms); ++truth) {
    bool direct =
        cond->Evaluate([&](size_t i) { return ((truth >> i) & 1) != 0; });
    // An empty-clause DNF can only arise from an empty condition, which
    // RandomCondition never produces; clauses.empty() means "false".
    bool via_dnf = EvalDnf(clauses, truth);
    ASSERT_EQ(direct, via_dnf)
        << "seed " << GetParam() << " truth " << truth << " condition "
        << cond->ToString([](size_t i) { return "a" + std::to_string(i); });
  }
}

TEST_P(DnfPropertyTest, CloneIsEquivalent) {
  Xoshiro256 rng(GetParam() ^ 0xc10c);
  const size_t atoms = 1 + rng.Uniform(5);
  auto cond = RandomCondition(atoms, &rng, 4);
  auto clone = cond->Clone();
  for (uint32_t truth = 0; truth < (1u << atoms); ++truth) {
    auto f = [&](size_t i) { return ((truth >> i) & 1) != 0; };
    ASSERT_EQ(cond->Evaluate(f), clone->Evaluate(f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnfPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

// ---- Parser round-trip ---------------------------------------------------------

class ParserRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRoundTripTest, ToStringReparses) {
  Dictionary* dict = &Dictionary::Global();
  auto q1 = sgf::ParseSgf(GetParam(), dict);
  ASSERT_OK(q1);
  std::string printed = q1->ToString(dict);
  auto q2 = sgf::ParseSgf(printed, dict);
  ASSERT_OK(q2) << "reprint failed to parse:\n" << printed;
  EXPECT_EQ(printed, q2->ToString(dict));
  ASSERT_EQ(q1->size(), q2->size());
  for (size_t i = 0; i < q1->size(); ++i) {
    const auto& a = q1->subqueries()[i];
    const auto& b = q2->subqueries()[i];
    EXPECT_EQ(a.output(), b.output());
    EXPECT_EQ(a.select_vars(), b.select_vars());
    EXPECT_EQ(a.guard(), b.guard());
    EXPECT_EQ(a.conditional_atoms().size(), b.conditional_atoms().size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, ParserRoundTripTest,
    ::testing::Values(
        "Z := SELECT x FROM R(x);",
        "Z := SELECT (x, y) FROM R(x, y) WHERE S(x, y) OR S(y, x);",
        "Z := SELECT (x, y) FROM R(x, y, 4) "
        "WHERE (S(1, x) AND NOT S(y, 10)) OR (NOT S(1, x) AND S(y, 10));",
        "Z := SELECT x FROM R(x, -5) WHERE NOT S(x, \"weird string\");",
        "Z1 := SELECT x FROM R(x, y) WHERE S(x);\n"
        "Z2 := SELECT x FROM Z1(x) WHERE NOT T(x, q);",
        "Z := SELECT w FROM R(w, w, w);",
        "Z := SELECT x FROM R(x) WHERE A(x) AND B(x) AND C(x) AND D(x) AND "
        "E(x) OR NOT (F(x) OR G(x));"));

// ---- Scheduler properties -------------------------------------------------------

mr::JobStats RandomJob(Xoshiro256* rng) {
  mr::JobStats js;
  size_t maps = 1 + rng->Uniform(12);
  size_t reds = 1 + rng->Uniform(5);
  for (size_t i = 0; i < maps; ++i) {
    js.map_task_costs.push_back(0.5 + rng->UniformDouble() * 20.0);
  }
  for (size_t i = 0; i < reds; ++i) {
    js.reduce_task_costs.push_back(0.5 + rng->UniformDouble() * 10.0);
  }
  js.job_overhead = rng->UniformDouble() * 5.0;
  return js;
}

class SchedulerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerPropertyTest, BoundsAndSlotMonotonicity) {
  Xoshiro256 rng(GetParam());
  size_t n = 1 + rng.Uniform(6);
  std::vector<mr::JobStats> jobs;
  std::vector<std::vector<size_t>> deps(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    jobs.push_back(RandomJob(&rng));
    total += jobs.back().TotalCost();
    for (size_t p = 0; p < i; ++p) {
      if (rng.Bernoulli(0.3)) deps[i].push_back(p);
    }
  }
  cost::ClusterConfig small;
  small.nodes = 1;
  small.map_slots_per_node = 1 + static_cast<int>(rng.Uniform(3));
  small.reduce_slots_per_node = 1 + static_cast<int>(rng.Uniform(3));
  small.costs.job_overhead = 1.0;
  double net_small = mr::SimulateNetTime(jobs, deps, small);

  cost::ClusterConfig big = small;
  big.nodes = 100;
  double net_big = mr::SimulateNetTime(jobs, deps, big);

  // With per-job overhead counted once in total and once per job in net,
  // net on one node with one slot of each kind equals total only when
  // overheads match; use the universal bounds instead:
  EXPECT_LE(net_big, net_small + 1e-9) << "more slots should not hurt";
  EXPECT_GT(net_small, 0.0);
  // Net time on the huge cluster is at least the critical path of any
  // single job: max over jobs of (overhead + longest map + longest red).
  double lower = 0.0;
  for (const auto& j : jobs) {
    double m = *std::max_element(j.map_task_costs.begin(),
                                 j.map_task_costs.end());
    double r = *std::max_element(j.reduce_task_costs.begin(),
                                 j.reduce_task_costs.end());
    lower = std::max(lower, 1.0 + m + r);
  }
  EXPECT_GE(net_big + 1e-9, lower);
  // And no schedule beats the sum of all work divided by slot count.
  EXPECT_GE(net_small + 1e-9,
            total /
                std::max(small.TotalMapSlots() + small.TotalReduceSlots(), 1));
}

TEST_P(SchedulerPropertyTest, SerialChainIsSumOfJobs) {
  Xoshiro256 rng(GetParam() ^ 0x5e71a1);
  size_t n = 2 + rng.Uniform(4);
  std::vector<mr::JobStats> jobs;
  std::vector<std::vector<size_t>> deps(n);
  cost::ClusterConfig c;  // 100 slots: no contention inside a job
  c.costs.job_overhead = 2.0;
  double expected = 0.0;
  for (size_t i = 0; i < n; ++i) {
    jobs.push_back(RandomJob(&rng));
    if (i > 0) deps[i] = {i - 1};
    double m = *std::max_element(jobs[i].map_task_costs.begin(),
                                 jobs[i].map_task_costs.end());
    double r = *std::max_element(jobs[i].reduce_task_costs.begin(),
                                 jobs[i].reduce_task_costs.end());
    expected += 2.0 + m + r;
  }
  EXPECT_NEAR(mr::SimulateNetTime(jobs, deps, c), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Range<uint64_t>(0, 30));

// ---- Cost model monotonicity -----------------------------------------------------

class CostMonotonicityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CostMonotonicityTest, CostGrowsWithSizes) {
  Xoshiro256 rng(GetParam());
  cost::CostConstants c;
  cost::MapPartition p;
  p.input_mb = rng.UniformDouble() * 1000.0;
  p.output_mb = rng.UniformDouble() * 5000.0;
  p.metadata_mb = rng.UniformDouble() * 100.0;
  p.num_mappers = 1 + static_cast<int>(rng.Uniform(30));

  cost::MapPartition bigger_in = p;
  bigger_in.input_mb += 100.0;
  EXPECT_GE(MapCost(c, bigger_in), MapCost(c, p));

  cost::MapPartition bigger_out = p;
  bigger_out.output_mb += 100.0;
  EXPECT_GE(MapCost(c, bigger_out), MapCost(c, p));

  // More mappers for the same data never increases the per-partition
  // map cost (fewer merge passes per task).
  cost::MapPartition more_mappers = p;
  more_mappers.num_mappers = p.num_mappers * 2;
  EXPECT_LE(MapCost(c, more_mappers), MapCost(c, p) + 1e-9);

  double m = rng.UniformDouble() * 4000.0;
  double k = rng.UniformDouble() * 500.0;
  int r = 1 + static_cast<int>(rng.Uniform(20));
  EXPECT_GE(ReduceCost(c, m + 50.0, k, r), ReduceCost(c, m, k, r));
  EXPECT_GE(ReduceCost(c, m, k + 50.0, r), ReduceCost(c, m, k, r));
  EXPECT_LE(ReduceCost(c, m, k, r * 2), ReduceCost(c, m, k, r) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostMonotonicityTest,
                         ::testing::Range<uint64_t>(0, 50));

// ---- Multiway toposort on random DAGs ---------------------------------------------

class ToposortPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ToposortPropertyTest, EnumerationValidAndContainsSingletons) {
  Xoshiro256 rng(GetParam());
  size_t n = 1 + rng.Uniform(5);
  sgf::DependencyGraph g(n);
  for (size_t j = 1; j < n; ++j) {
    for (size_t i = 0; i < j; ++i) {
      if (rng.Bernoulli(0.35)) g.AddEdge(i, j);
    }
  }
  auto sorts = plan::EnumerateMultiwayTopoSorts(g);
  ASSERT_OK(sorts);
  ASSERT_FALSE(sorts->empty());
  for (const auto& b : *sorts) {
    ASSERT_TRUE(plan::IsValidMultiwaySort(g, b));
  }
  // The all-singletons sort in index order is always valid here (edges
  // point forward), so it must be enumerated.
  plan::Batches singletons;
  for (size_t i = 0; i < n; ++i) singletons.push_back({i});
  EXPECT_NE(std::find(sorts->begin(), sorts->end(), singletons),
            sorts->end());
  // No duplicates.
  std::set<plan::Batches> dedup(sorts->begin(), sorts->end());
  EXPECT_EQ(dedup.size(), sorts->size());
}

TEST_P(ToposortPropertyTest, RejectsInvalidSorts) {
  Xoshiro256 rng(GetParam() ^ 0xbad);
  sgf::DependencyGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_FALSE(plan::IsValidMultiwaySort(g, {{0, 1}, {2}}));  // edge inside
  EXPECT_FALSE(plan::IsValidMultiwaySort(g, {{1}, {0}, {2}}));  // reversed
  EXPECT_FALSE(plan::IsValidMultiwaySort(g, {{0}, {2}}));       // missing 1
  EXPECT_TRUE(plan::IsValidMultiwaySort(g, {{0}, {1}, {2}}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ToposortPropertyTest,
                         ::testing::Range<uint64_t>(0, 30));

// ---- Shuffle-volume optimizations on random BSGF queries (DESIGN.md §5) ----

// Renders a random BSGF query over guard G(x, y, z) and conditional
// relations S/T/U/V of arity 2. Atom terms mix guard variables,
// existentials, and small constants; the WHERE condition is a random
// AND/OR/NOT tree over the atoms.
std::string RandomBsgfQueryText(Xoshiro256* rng) {
  const char* kGuardVars[3] = {"x", "y", "z"};
  const char* kRels[4] = {"S", "T", "U", "V"};
  const size_t natoms = 1 + rng->Uniform(4);
  std::vector<std::string> leaves;
  for (size_t i = 0; i < natoms; ++i) {
    std::string t1 = kGuardVars[rng->Uniform(3)];
    std::string t2;
    switch (rng->Uniform(3)) {
      case 0:
        t2 = kGuardVars[rng->Uniform(3)];
        break;
      case 1:
        t2 = "e" + std::to_string(i);
        break;
      default:
        t2 = std::to_string(rng->Uniform(50));
        break;
    }
    std::string atom =
        std::string(kRels[rng->Uniform(4)]) + "(" + t1 + ", " + t2 + ")";
    leaves.push_back(rng->Bernoulli(0.3) ? "NOT " + atom : atom);
  }
  while (leaves.size() > 1) {
    size_t i = rng->Uniform(leaves.size() - 1);
    leaves[i] = "(" + leaves[i] +
                (rng->Bernoulli(0.5) ? " AND " : " OR ") + leaves[i + 1] +
                ")";
    leaves.erase(leaves.begin() + static_cast<long>(i) + 1);
  }
  // Random non-empty SELECT subset of the guard variables.
  std::vector<std::string> select;
  for (const char* v : kGuardVars) {
    if (rng->Bernoulli(0.5)) select.push_back(v);
  }
  if (select.empty()) select.push_back(kGuardVars[rng->Uniform(3)]);
  std::string sel;
  if (select.size() == 1) {
    sel = select[0];
  } else {
    sel = "(";
    for (size_t i = 0; i < select.size(); ++i) {
      if (i > 0) sel += ", ";
      sel += select[i];
    }
    sel += ")";
  }
  return "Z := SELECT " + sel + " FROM G(x, y, z) WHERE " + leaves[0] + ";";
}

struct OptRun {
  std::vector<Tuple> output;  // tuple order, not just set
  plan::Metrics metrics;
};

class OptimizationEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(OptimizationEquivalenceTest, ByteIdenticalResultsAndNoExtraShuffle) {
  Xoshiro256 rng(GetParam() ^ 0x5b10f17e5ULL);
  Dictionary* dict = &Dictionary::Global();
  const std::string text = RandomBsgfQueryText(&rng);
  auto query = sgf::ParseSgf(text, dict);
  ASSERT_OK(query) << text;

  data::GeneratorConfig g;
  g.tuples = 300;
  g.representation_scale = 1.0;
  g.seed = GetParam() * 131 + 7;
  g.selectivity = 0.4;
  data::Generator gen(g);
  Database db;
  db.Put(gen.Guard("G", 3));
  for (const char* rel : {"S", "T", "U", "V"}) {
    db.Put(gen.Conditional(rel, 2));
  }

  cost::ClusterConfig config;
  config.split_mb = 0.002;
  config.mb_per_reducer = 0.002;

  // GREEDY exercises MSJ + EVAL; SEQ exercises semi-/anti-join chains
  // (anti-joins must keep their requests: only asserts are filtered).
  for (plan::Strategy strategy :
       {plan::Strategy::kGreedy, plan::Strategy::kSeq}) {
    auto run = [&](bool optimized) -> OptRun {
      plan::PlannerOptions opts;
      opts.strategy = strategy;
      opts.sample_size = 32;
      opts.op.bloom_filters = optimized;
      plan::Planner planner(config, opts);
      mr::Engine engine(config);
      Database run_db = db;
      // ExecuteAndVerify additionally checks against the naive reference
      // evaluator, so each configuration is independently correct.
      auto result = plan::ExecuteAndVerify(*query, planner, &engine, &run_db);
      EXPECT_TRUE(result.ok())
          << text << "\noptimized=" << optimized << ": " << result.status();
      OptRun out;
      if (result.ok()) {
        out.metrics = result->metrics;
        out.output = run_db.Get("Z").value()->ToTuples();
      }
      return out;
    };
    OptRun on = run(true);
    OptRun off = run(false);
    // Byte-identical output: same tuples in the same order.
    EXPECT_EQ(on.output, off.output) << text;
    // The optimized run never shuffles more.
    EXPECT_LE(on.metrics.shuffle_records, off.metrics.shuffle_records) << text;
    EXPECT_LE(on.metrics.shuffle_messages, off.metrics.shuffle_messages)
        << text;
    EXPECT_LE(on.metrics.shuffle_mb, off.metrics.shuffle_mb + 1e-9) << text;
    // Nothing is dropped when filters are off, and nothing is ever
    // combined: map-side combiners are gone (DESIGN.md §5.1).
    EXPECT_EQ(on.metrics.combined_messages, 0u);
    EXPECT_EQ(off.metrics.combined_messages, 0u);
    EXPECT_EQ(off.metrics.filtered_messages, 0u);
    EXPECT_EQ(off.metrics.filter_broadcast_mb, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizationEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 16));

}  // namespace
}  // namespace gumbo
