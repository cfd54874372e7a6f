// Tests for the planning layer: grouping (Greedy-BSGF vs optimal),
// multiway topological sorts (Greedy-SGF vs enumeration; paper Example 5),
// the strategy planner, and the Pig/Hive baselines — all verified against
// the naive reference evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cmath>
#include <iterator>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "data/generator.h"
#include "data/workloads.h"
#include "plan/executor.h"
#include "plan/grouping.h"
#include "plan/planner.h"
#include "plan/toposort.h"
#include "sgf/naive_eval.h"
#include "sgf/query_gen.h"
#include "soak/soak.h"
#include "test_util.h"

namespace gumbo::plan {
namespace {

using ::gumbo::testing::MakeRelation;
using ::gumbo::testing::ParseSgfOrDie;

cost::ClusterConfig TestCluster() {
  cost::ClusterConfig c;
  c.split_mb = 0.0005;
  c.mb_per_reducer = 0.0005;
  return c;
}

data::GeneratorConfig SmallData() {
  data::GeneratorConfig g;
  g.tuples = 400;
  g.representation_scale = 1.0;
  g.seed = 7;
  return g;
}

// A paper query by name: A1-A5, B1-B2 or C1-C4.
Result<data::Workload> MakePaperWorkload(const std::string& name,
                                         const data::GeneratorConfig& g) {
  const int i = name[1] - '0';
  switch (name[0]) {
    case 'A':
      return data::MakeA(i, g);
    case 'B':
      return data::MakeB(i, g);
    default:
      return data::MakeC(i, g);
  }
}

// ---- Grouping ---------------------------------------------------------------

// Builds equations from the first subquery of a workload.
std::vector<ops::SemiJoinEquation> EquationsOf(const data::Workload& w) {
  std::vector<ops::SemiJoinEquation> eqs;
  const sgf::BsgfQuery& q = w.query.subqueries()[0];
  for (size_t i = 0; i < q.num_conditional_atoms(); ++i) {
    ops::SemiJoinEquation eq;
    eq.output = "__X" + std::to_string(i);
    eq.guard = q.guard();
    eq.guard_dataset = q.guard().relation();
    eq.conditional = q.conditional_atoms()[i];
    eq.conditional_dataset = q.conditional_atoms()[i].relation();
    eqs.push_back(std::move(eq));
  }
  return eqs;
}

bool IsPartition(const Grouping& g, size_t n) {
  std::set<size_t> seen;
  for (const auto& grp : g.groups) {
    for (size_t i : grp) {
      if (i >= n || !seen.insert(i).second) return false;
    }
  }
  return seen.size() == n;
}

TEST(GroupingTest, GreedyProducesValidPartitionAndBeatsOrMatchesSingletons) {
  auto w = data::MakeA(1, SmallData());
  ASSERT_OK(w);
  auto eqs = EquationsOf(*w);
  cost::StatsCatalog catalog;
  cost::ClusterConfig config = TestCluster();
  cost::CostEstimator est(config, cost::CostModelVariant::kGumbo, &w->db,
                          &catalog, 128);
  auto greedy = GreedyBsgfGrouping(eqs, ops::OpOptions{}, est);
  ASSERT_OK(greedy);
  EXPECT_TRUE(IsPartition(*greedy, eqs.size())) << greedy->ToString();

  // Singleton cost as reference: greedy must never be worse.
  double singleton_cost = 0.0;
  for (size_t i = 0; i < eqs.size(); ++i) {
    auto c = EstimateGroupCost(eqs, {i}, ops::OpOptions{}, est);
    ASSERT_OK(c);
    singleton_cost += *c;
  }
  EXPECT_LE(greedy->total_cost, singleton_cost + 1e-9);
}

TEST(GroupingTest, SharedGuardMakesGroupingProfitable) {
  // A1: four semi-joins over one guard — grouping shares the 4 GB guard
  // scan, so greedy should merge everything into one job.
  auto w = data::MakeA(1, SmallData());
  ASSERT_OK(w);
  auto eqs = EquationsOf(*w);
  cost::StatsCatalog catalog;
  cost::ClusterConfig config;  // paper-scale constants
  cost::CostEstimator est(config, cost::CostModelVariant::kGumbo, &w->db,
                          &catalog, 128);
  auto greedy = GreedyBsgfGrouping(eqs, ops::OpOptions{}, est);
  ASSERT_OK(greedy);
  EXPECT_EQ(greedy->groups.size(), 1u) << greedy->ToString();
}

TEST(GroupingTest, GreedyNeverBeatsOptimal) {
  for (int qi : {1, 2, 3}) {
    auto w = data::MakeA(qi, SmallData());
    ASSERT_OK(w);
    auto eqs = EquationsOf(*w);
    cost::StatsCatalog catalog;
    cost::ClusterConfig config = TestCluster();
    cost::CostEstimator est(config, cost::CostModelVariant::kGumbo, &w->db,
                            &catalog, 128);
    auto greedy = GreedyBsgfGrouping(eqs, ops::OpOptions{}, est);
    auto opt = OptimalGrouping(eqs, ops::OpOptions{}, est);
    ASSERT_OK(greedy);
    ASSERT_OK(opt);
    EXPECT_TRUE(IsPartition(*opt, eqs.size()));
    EXPECT_GE(greedy->total_cost, opt->total_cost - 1e-9)
        << "A" << qi << ": optimal worse than greedy?!";
  }
}

TEST(GroupingTest, OptimalRefusesLargeInputs) {
  auto w = data::MakeB(1, SmallData());  // 16 equations
  ASSERT_OK(w);
  auto eqs = EquationsOf(*w);
  cost::StatsCatalog catalog;
  cost::ClusterConfig config = TestCluster();
  cost::CostEstimator est(config, cost::CostModelVariant::kGumbo, &w->db,
                          &catalog, 128);
  EXPECT_FALSE(OptimalGrouping(eqs, ops::OpOptions{}, est, 10).ok());
}

// ---- Estimator memo (DESIGN.md §10) -----------------------------------------

// The groups a planner may cost: every non-empty subset of up to 6
// equations; beyond that, every group of one to three.
std::vector<std::vector<size_t>> CandidateGroups(size_t n) {
  std::vector<std::vector<size_t>> groups;
  for (uint64_t mask = 1; mask < (1ULL << n); ++mask) {
    if (n > 6 && std::bitset<64>(mask).count() > 3) continue;
    std::vector<size_t> group;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) group.push_back(i);
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

// Every double one group's estimate yields: the planner's group cost (with
// its K bound), then the unbounded job estimate and each input's N, M and
// metadata.
Result<std::vector<double>> GroupEstimate(
    const std::vector<ops::SemiJoinEquation>& eqs,
    const std::vector<size_t>& group, const ops::OpOptions& op,
    cost::CostEstimator& estimator) {
  GUMBO_ASSIGN_OR_RETURN(double cost,
                         EstimateGroupCost(eqs, group, op, estimator));
  std::vector<ops::SemiJoinEquation> subset;
  for (size_t i : group) subset.push_back(eqs[i]);
  GUMBO_ASSIGN_OR_RETURN(mr::JobSpec spec,
                         ops::BuildMsjJob(subset, op, "memo"));
  GUMBO_ASSIGN_OR_RETURN(cost::JobEstimate est, estimator.EstimateJob(spec));
  std::vector<double> values = {cost, est.cost, est.output_mb};
  for (const cost::MapPartition& p : est.partitions) {
    values.insert(values.end(), {p.input_mb, p.output_mb, p.metadata_mb});
  }
  return values;
}

TEST(EstimatorMemoTest, SharedEstimatorMatchesFreshOnEveryGroup) {
  std::vector<data::Workload> workloads;
  for (const char* name : {"A1", "A3", "B1"}) {
    auto w = MakePaperWorkload(name, SmallData());
    ASSERT_OK(w);
    workloads.push_back(std::move(*w));
  }
  sgf::QueryGenConfig qc;
  qc.shape = sgf::QueryShape::kWideFanout;
  const sgf::GeneratedQuery wide = sgf::QueryGenerator(qc).Generate(9);
  workloads.push_back({"wide-fanout-9", wide.query,
                       soak::BuildDatabase(wide.base_relations,
                                           soak::DataRegime::kZipfHeavy, 9,
                                           400, 0.4)});

  cost::CalibrationStore calibration;
  for (size_t c = 0; c < cost::kNumChannels; ++c) {
    for (size_t r = 0; r < cost::kNumRegimes; ++r) {
      calibration.Observe(static_cast<cost::Channel>(c),
                          static_cast<cost::SkewRegime>(r), 1.0,
                          0.5 + 0.25 * static_cast<double>(c) +
                              0.125 * static_cast<double>(r));
    }
  }
  const std::vector<const cost::CalibrationStore*> stores = {nullptr,
                                                             &calibration};
  const cost::ClusterConfig config = TestCluster();
  std::mt19937_64 rng(20160901);
  for (const data::Workload& w : workloads) {
    const auto eqs = EquationsOf(w);
    const auto groups = CandidateGroups(eqs.size());
    for (bool tuple_ids : {true, false}) {
      for (const cost::CalibrationStore* store : stores) {
        ops::OpOptions op;
        op.tuple_id_refs = tuple_ids;
        cost::StatsCatalog catalog;
        cost::CostEstimator shared(config, cost::CostModelVariant::kGumbo,
                                   &w.db, &catalog, 64, store);
        std::vector<size_t> order(groups.size());
        std::iota(order.begin(), order.end(), 0);
        std::shuffle(order.begin(), order.end(), rng);
        for (size_t gi : order) {
          cost::CostEstimator fresh(config, cost::CostModelVariant::kGumbo,
                                    &w.db, &catalog, 64, store);
          auto got = GroupEstimate(eqs, groups[gi], op, shared);
          auto want = GroupEstimate(eqs, groups[gi], op, fresh);
          ASSERT_OK(got);
          ASSERT_OK(want);
          EXPECT_EQ(*got, *want)
              << w.name << " group " << gi << " tuple ids " << tuple_ids
              << " calibrated " << (store != nullptr);
        }
      }
    }
  }
}

// ---- Multiway topological sorts ---------------------------------------------

sgf::SgfQuery Example5Query() {
  // Paper Example 5 (guards reshaped to unary chains; structure intact).
  return ParseSgfOrDie(
      "Z1 := SELECT x FROM R1(x, y) WHERE S(x);\n"
      "Z2 := SELECT x FROM Z1(x) WHERE T(x);\n"
      "Z3 := SELECT x FROM Z2(x) WHERE U(x);\n"
      "Z4 := SELECT x FROM R2(x, y) WHERE T(x);\n"
      "Z5 := SELECT x FROM Z3(x) WHERE Z4(x);");
}

TEST(ToposortTest, Example5HasExactlyFourPartitions) {
  sgf::SgfQuery q = Example5Query();
  sgf::DependencyGraph g = q.BuildDependencyGraph();
  auto sorts = EnumerateMultiwayTopoSorts(g);
  ASSERT_OK(sorts);
  for (const Batches& b : *sorts) {
    EXPECT_TRUE(IsValidMultiwaySort(g, b));
  }
  // The paper counts sorts up to batch reordering (evaluation cost is
  // order-invariant): canonicalize to a multiset of batches.
  std::set<std::set<std::vector<size_t>>> canonical;
  for (const Batches& b : *sorts) {
    std::set<std::vector<size_t>> cb(b.begin(), b.end());
    canonical.insert(std::move(cb));
  }
  EXPECT_EQ(canonical.size(), 4u);
}

TEST(ToposortTest, GreedySgfPlacesQ4WithQ2) {
  // overlap(Q4, {Q2}) = 1 (they share T) — the only positive overlap, so
  // Greedy-SGF should produce ({Q1},{Q2,Q4},{Q3},{Q5}), the paper's
  // sort #2.
  auto batches = GreedySgfSort(Example5Query());
  ASSERT_OK(batches);
  Batches expected = {{0}, {1, 3}, {2}, {4}};
  EXPECT_EQ(*batches, expected);
}

TEST(ToposortTest, GreedyAlwaysValid) {
  for (int ci : {1, 2, 3, 4}) {
    auto w = data::MakeC(ci, SmallData());
    ASSERT_OK(w);
    auto batches = GreedySgfSort(w->query);
    ASSERT_OK(batches);
    EXPECT_TRUE(
        IsValidMultiwaySort(w->query.BuildDependencyGraph(), *batches))
        << "C" << ci;
  }
}

TEST(ToposortTest, OverlapCountsDistinctSharedRelations) {
  sgf::SgfQuery q = Example5Query();
  // Q2 reads {Z1, T}; Q4 reads {R2, T} -> overlap 1 (T).
  EXPECT_EQ(Overlap(q, 1, {3}), 1u);
  // Q1 reads {R1, S}: no overlap with Q4.
  EXPECT_EQ(Overlap(q, 0, {3}), 0u);
}

// ---- Planner strategies end-to-end -------------------------------------------

void VerifyStrategies(const data::Workload& w,
                      std::initializer_list<Strategy> strategies) {
  for (Strategy s : strategies) {
    PlannerOptions opts;
    opts.strategy = s;
    opts.sample_size = 64;
    cost::ClusterConfig config = TestCluster();
    Planner planner(config, opts);
    mr::Engine engine(config);
    Database db = w.db;
    auto result = ExecuteAndVerify(w.query, planner, &engine, &db);
    ASSERT_OK(result) << w.name << " under " << StrategyName(s);
    EXPECT_GT(result->metrics.total_time, 0.0);
    EXPECT_GT(result->metrics.net_time, 0.0);
    EXPECT_LE(result->metrics.net_time, result->metrics.total_time + 1e-9);
  }
}

TEST(PlannerTest, FlatQueriesAllStrategies) {
  for (int i : {1, 2, 3, 4, 5}) {
    auto w = data::MakeA(i, SmallData());
    ASSERT_OK(w);
    VerifyStrategies(*w, {Strategy::kSeq, Strategy::kPar, Strategy::kGreedy,
                          Strategy::kOpt});
  }
}

TEST(PlannerTest, OneRoundOnQualifyingQueries) {
  auto a3 = data::MakeA(3, SmallData());
  ASSERT_OK(a3);
  VerifyStrategies(*a3, {Strategy::kOneRound});
  auto b2 = data::MakeB(2, SmallData());
  ASSERT_OK(b2);
  VerifyStrategies(*b2, {Strategy::kOneRound});
}

TEST(PlannerTest, OneRoundRefusesMixedKeys) {
  auto a1 = data::MakeA(1, SmallData());
  ASSERT_OK(a1);
  PlannerOptions opts;
  opts.strategy = Strategy::kOneRound;
  cost::ClusterConfig config = TestCluster();
  Planner planner(config, opts);
  EXPECT_FALSE(planner.Plan(a1->query, a1->db).ok());
}

TEST(PlannerTest, LargeQueries) {
  for (int i : {1, 2}) {
    auto w = data::MakeB(i, SmallData());
    ASSERT_OK(w);
    VerifyStrategies(*w, {Strategy::kSeq, Strategy::kPar, Strategy::kGreedy});
  }
}

TEST(PlannerTest, NestedSgfAllStrategies) {
  for (int i : {1, 2, 3, 4}) {
    auto w = data::MakeC(i, SmallData());
    ASSERT_OK(w);
    VerifyStrategies(*w, {Strategy::kSeqUnit, Strategy::kParUnit,
                          Strategy::kGreedySgf});
  }
}

TEST(PlannerTest, OptSgfOnSmallQuery) {
  auto w = data::MakeC(1, SmallData());
  ASSERT_OK(w);
  VerifyStrategies(*w, {Strategy::kOptSgf});
}

TEST(PlannerTest, CostModelQueryBothVariants) {
  data::GeneratorConfig g = SmallData();
  g.tuples = 200;
  auto w = data::MakeCostModelQuery(g);
  ASSERT_OK(w);
  for (auto variant :
       {cost::CostModelVariant::kGumbo, cost::CostModelVariant::kWang}) {
    PlannerOptions opts;
    opts.strategy = Strategy::kGreedy;
    opts.cost_variant = variant;
    opts.sample_size = 64;
    cost::ClusterConfig config = TestCluster();
    Planner planner(config, opts);
    mr::Engine engine(config);
    Database db = w->db;
    ASSERT_OK(ExecuteAndVerify(w->query, planner, &engine, &db))
        << CostModelVariantName(variant);
  }
}

TEST(PlannerTest, SeqMatchesRoundCountToChainLength) {
  // B1 under SEQ: 16 chained steps -> 16 rounds; PAR: 2 rounds.
  auto w = data::MakeB(1, SmallData());
  ASSERT_OK(w);
  cost::ClusterConfig config = TestCluster();
  mr::Engine engine(config);
  {
    PlannerOptions opts;
    opts.strategy = Strategy::kSeq;
    Planner planner(config, opts);
    auto plan = planner.Plan(w->query, w->db);
    ASSERT_OK(plan);
    EXPECT_EQ(plan->program.Rounds(), 16);
  }
  {
    PlannerOptions opts;
    opts.strategy = Strategy::kPar;
    Planner planner(config, opts);
    auto plan = planner.Plan(w->query, w->db);
    ASSERT_OK(plan);
    EXPECT_EQ(plan->program.Rounds(), 2);
    EXPECT_EQ(plan->program.size(), 17u);  // 16 MSJ + 1 EVAL
  }
}

// ---- Golden plans -------------------------------------------------------------

// What the planner produced for each paper query, recorded before the cost
// estimator memoized its per-input work (DESIGN.md §10), which must leave
// every plan and estimate unchanged. A change that moves a plan on purpose
// replaces golden_plans.inc with the entries a failing run prints.
struct GoldenPlan {
  const char* query;
  const char* strategy;
  const char* description;
  double estimated_cost;
  std::vector<double> job_costs;
};

const std::vector<GoldenPlan>& GoldenPlans() {
  static const std::vector<GoldenPlan> kPlans = {
#include "golden_plans.inc"
  };
  return kPlans;
}

// One golden_plans.inc entry; a mismatch prints every actual plan in this
// form. 17 significant digits round-trip a double exactly.
std::string GoldenEntry(const std::string& query, Strategy strategy,
                        const QueryPlan& plan) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"" << query << "\", \"" << StrategyName(strategy) << "\",\n"
      << " R\"plan(" << plan.description << ")plan\",\n"
      << " " << plan.estimated_cost << ",\n {";
  for (size_t j = 0; j < plan.job_estimates.size(); ++j) {
    out << (j > 0 ? ", " : "") << plan.job_estimates[j].cost;
  }
  out << "}},\n";
  return out.str();
}

// The paper queries under the benchmark's strategies: GREEDY for the flat
// A/B queries, GREEDY-SGF for the nested C sets.
TEST(GoldenPlanTest, PaperQueriesPlanAsRecorded) {
  const char* kQueries[] = {"A1", "A2", "A3", "A4", "A5", "B1",
                            "B2", "C1", "C2", "C3", "C4"};
  EXPECT_EQ(GoldenPlans().size(), std::size(kQueries));
  std::string actual;
  for (size_t qi = 0; qi < std::size(kQueries); ++qi) {
    const std::string name = kQueries[qi];
    const Strategy strategy =
        name[0] == 'C' ? Strategy::kGreedySgf : Strategy::kGreedy;
    auto w = MakePaperWorkload(name, SmallData());
    ASSERT_OK(w);
    PlannerOptions opts;
    opts.strategy = strategy;
    opts.sample_size = 64;
    auto plan = Planner(TestCluster(), opts).Plan(w->query, w->db);
    ASSERT_OK(plan) << name;
    actual += GoldenEntry(name, strategy, *plan);
    if (qi >= GoldenPlans().size()) continue;

    const GoldenPlan& golden = GoldenPlans()[qi];
    EXPECT_EQ(golden.query, name);
    EXPECT_EQ(golden.strategy, std::string(StrategyName(strategy)));
    EXPECT_EQ(plan->description, golden.description) << name;
    EXPECT_NEAR(plan->estimated_cost, golden.estimated_cost,
                1e-12 * std::abs(golden.estimated_cost))
        << name;
    ASSERT_EQ(plan->job_estimates.size(), golden.job_costs.size()) << name;
    for (size_t j = 0; j < golden.job_costs.size(); ++j) {
      EXPECT_NEAR(plan->job_estimates[j].cost, golden.job_costs[j],
                  1e-12 * std::abs(golden.job_costs[j]))
          << name << " job " << j;
    }
  }
  if (HasFailure()) {
    ADD_FAILURE() << "actual plans, in golden_plans.inc form:\n" << actual;
  }
}

// What executing each paper query's plan counted per job, recorded after
// map-side combiners were removed (DESIGN.md §5.1). Later engine changes
// must leave every count and modeled time unchanged. Covers the
// benchmark's strategies plus SEQ (chain steps) and 1-ROUND where the
// query qualifies.
struct GoldenJobCounters {
  double filter_mb;
  double filter_build_cost;
  uint64_t filtered_messages;
  uint64_t shuffle_records;
  uint64_t shuffle_messages;
  double shuffle_mb;
};

struct GoldenCounters {
  const char* query;
  const char* strategy;
  double net_time;
  double total_time;
  std::vector<GoldenJobCounters> jobs;
};

const std::vector<GoldenCounters>& GoldenCounterSets() {
  static const std::vector<GoldenCounters> kCounters = {
#include "golden_counters.inc"
  };
  return kCounters;
}

std::string GoldenCounterEntry(const std::string& query, Strategy strategy,
                               const ExecutionResult& result) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"" << query << "\", \"" << StrategyName(strategy) << "\", "
      << result.metrics.net_time << ", " << result.metrics.total_time
      << ",\n {";
  for (size_t j = 0; j < result.stats.jobs.size(); ++j) {
    const mr::JobStats& js = result.stats.jobs[j];
    out << (j > 0 ? ",\n  " : "") << "{" << js.filter_mb << ", "
        << js.filter_build_cost << ", " << js.filtered_messages << ", "
        << js.shuffle_records << ", " << js.shuffle_messages << ", "
        << js.shuffle_mb << "}";
  }
  out << "}},\n";
  return out.str();
}

TEST(GoldenCounterTest, PaperQueriesCountAsRecorded) {
  const char* kQueries[] = {"A1", "A2", "A3", "A4", "A5", "B1",
                            "B2", "C1", "C2", "C3", "C4"};
  std::string actual;
  size_t gi = 0;
  for (const char* query : kQueries) {
    const std::string name = query;
    std::vector<Strategy> strategies;
    if (name[0] == 'C') {
      strategies = {Strategy::kGreedySgf};
    } else {
      strategies = {Strategy::kGreedy, Strategy::kSeq, Strategy::kOneRound};
    }
    for (Strategy strategy : strategies) {
      auto w = MakePaperWorkload(name, SmallData());
      ASSERT_OK(w);
      PlannerOptions opts;
      opts.strategy = strategy;
      opts.sample_size = 64;
      auto plan = Planner(TestCluster(), opts).Plan(w->query, w->db);
      // 1-ROUND plans only the queries that qualify for it.
      if (strategy == Strategy::kOneRound && !plan.ok()) continue;
      ASSERT_OK(plan) << name;
      mr::Engine engine(TestCluster());
      Database db = w->db;
      auto result = ExecutePlanOnSnapshot(*plan, &engine, db, &db);
      ASSERT_OK(result) << name;
      actual += GoldenCounterEntry(name, strategy, *result);
      if (gi >= GoldenCounterSets().size()) {
        ADD_FAILURE() << "no golden counters for " << name << " "
                      << StrategyName(strategy);
        continue;
      }
      const GoldenCounters& golden = GoldenCounterSets()[gi++];
      const std::string where = name + " " + StrategyName(strategy);
      EXPECT_EQ(golden.query, name);
      EXPECT_EQ(golden.strategy, std::string(StrategyName(strategy)));
      EXPECT_EQ(result->metrics.net_time, golden.net_time) << where;
      EXPECT_EQ(result->metrics.total_time, golden.total_time) << where;
      ASSERT_EQ(result->stats.jobs.size(), golden.jobs.size()) << where;
      for (size_t j = 0; j < golden.jobs.size(); ++j) {
        const mr::JobStats& js = result->stats.jobs[j];
        const GoldenJobCounters& g = golden.jobs[j];
        EXPECT_EQ(js.filter_mb, g.filter_mb) << where << " job " << j;
        EXPECT_EQ(js.filter_build_cost, g.filter_build_cost)
            << where << " job " << j;
        EXPECT_EQ(js.filtered_messages, g.filtered_messages)
            << where << " job " << j;
        EXPECT_EQ(js.shuffle_records, g.shuffle_records)
            << where << " job " << j;
        EXPECT_EQ(js.shuffle_messages, g.shuffle_messages)
            << where << " job " << j;
        EXPECT_EQ(js.shuffle_mb, g.shuffle_mb) << where << " job " << j;
      }
    }
  }
  EXPECT_EQ(gi, GoldenCounterSets().size());
  if (HasFailure()) {
    ADD_FAILURE() << "actual counters, in golden_counters.inc form:\n"
                  << actual;
  }
}

TEST(PlannerTest, StrategyNamesRoundTrip) {
  for (Strategy s : {Strategy::kSeq, Strategy::kPar, Strategy::kGreedy,
                     Strategy::kOpt, Strategy::kOneRound, Strategy::kSeqUnit,
                     Strategy::kParUnit, Strategy::kGreedySgf,
                     Strategy::kOptSgf}) {
    auto parsed = StrategyFromName(StrategyName(s));
    ASSERT_OK(parsed);
    EXPECT_EQ(*parsed, s);
  }
  // Case-insensitive lookup.
  auto lower = StrategyFromName("greedy-sgf");
  ASSERT_OK(lower);
  EXPECT_EQ(*lower, Strategy::kGreedySgf);
  auto mixed = StrategyFromName("Opt");
  ASSERT_OK(mixed);
  EXPECT_EQ(*mixed, Strategy::kOpt);
  // Unknown names fail and the error lists the valid strategies.
  auto bad = StrategyFromName("TURBO");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("GREEDY"), std::string::npos);
  EXPECT_NE(bad.status().ToString().find("1-ROUND"), std::string::npos);
}

// ---- Baselines ----------------------------------------------------------------

// ---- Self-calibrating planner (DESIGN.md §10) -------------------------------

Database SkewDb(double theta, bool cold) {
  data::GeneratorConfig g = SmallData();
  g.selectivity = 0.3;
  data::Generator gen(g);
  Database db;
  db.Put(gen.ZipfGuard("G", 3, theta));
  for (const char* c : {"S", "T", "U"}) {
    db.Put(cold ? gen.ColdConditional(c, 1) : gen.HotConditional(c, 1));
  }
  return db;
}

const char* kSkewQuery =
    "Z := SELECT (x, y, z) FROM G(x, y, z) WHERE S(x) AND T(y) AND U(z);";

TEST(CalibrationPlanTest, EveryPlanCarriesJobEstimates) {
  const sgf::SgfQuery query = ParseSgfOrDie(kSkewQuery);
  // 1-ROUND refuses kSkewQuery (conjunction over distinct join keys), so
  // it gets a single-key query that qualifies.
  const sgf::SgfQuery one_key = ParseSgfOrDie(
      "Z := SELECT (x, y, z) FROM G(x, y, z) WHERE S(x) AND T(x);");
  const Database db = SkewDb(1.2, true);
  for (Strategy s : {Strategy::kSeq, Strategy::kPar, Strategy::kGreedy,
                     Strategy::kOneRound}) {
    PlannerOptions opts;
    opts.strategy = s;
    Planner planner(TestCluster(), opts);
    auto plan =
        planner.Plan(s == Strategy::kOneRound ? one_key : query, db);
    ASSERT_OK(plan);
    // One estimate record per program job, in job order, with positive
    // total cost — the feedback loop's "estimated" side.
    EXPECT_EQ(plan->job_estimates.size(), plan->program.size())
        << StrategyName(s);
    EXPECT_GT(plan->estimated_cost, 0.0);
    for (const JobEstimateRecord& rec : plan->job_estimates) {
      EXPECT_FALSE(rec.inputs.empty());
      EXPECT_GE(rec.cost, 0.0);
    }
  }
}

TEST(CalibrationPlanTest, CalibrateFromExecutionFillsTheStore) {
  const sgf::SgfQuery query = ParseSgfOrDie(kSkewQuery);
  const Database db = SkewDb(1.2, true);
  PlannerOptions opts;
  opts.strategy = Strategy::kSeq;
  Planner planner(TestCluster(), opts);
  auto plan = planner.Plan(query, db);
  ASSERT_OK(plan);
  mr::Engine engine(TestCluster());
  Database out;
  auto run = ExecutePlanOnSnapshot(*plan, &engine, db, &out);
  ASSERT_OK(run);
  cost::CalibrationStore store;
  CalibrateFromExecution(*plan, run->stats, &store);
  EXPECT_GT(store.TotalObservations(), 0u);
  // A null store is a no-op, not a crash.
  CalibrateFromExecution(*plan, run->stats, nullptr);
}

TEST(CalibrationPlanTest, SavedStoreReloadsToIdenticalPlans) {
  const sgf::SgfQuery query = ParseSgfOrDie(kSkewQuery);
  const Database db = SkewDb(1.2, true);
  // Train a store from real executions of two strategies.
  cost::CalibrationStore store;
  for (Strategy s : {Strategy::kSeq, Strategy::kGreedy}) {
    PlannerOptions opts;
    opts.strategy = s;
    Planner planner(TestCluster(), opts);
    auto plan = planner.Plan(query, db);
    ASSERT_OK(plan);
    mr::Engine engine(TestCluster());
    Database out;
    auto run = ExecutePlanOnSnapshot(*plan, &engine, db, &out);
    ASSERT_OK(run);
    CalibrateFromExecution(*plan, run->stats, &store);
  }
  ASSERT_GT(store.TotalObservations(), 0u);

  const std::string path = ::testing::TempDir() + "gumbo_calibration.txt";
  ASSERT_OK(store.Save(path));
  cost::CalibrationStore reloaded;
  ASSERT_OK(reloaded.Load(path));

  // The round-tripped store plans byte-identically: same description,
  // same estimated costs, same chosen strategy.
  PlannerOptions a;
  a.calibration = &store;
  PlannerOptions b;
  b.calibration = &reloaded;
  auto choice_a = ChoosePlan(query, db, TestCluster(), a);
  auto choice_b = ChoosePlan(query, db, TestCluster(), b);
  ASSERT_OK(choice_a);
  ASSERT_OK(choice_b);
  EXPECT_EQ(choice_a->strategy, choice_b->strategy);
  EXPECT_EQ(choice_a->plan.description, choice_b->plan.description);
  EXPECT_DOUBLE_EQ(choice_a->plan.estimated_cost,
                   choice_b->plan.estimated_cost);
  ASSERT_EQ(choice_a->candidates.size(), choice_b->candidates.size());
  for (size_t i = 0; i < choice_a->candidates.size(); ++i) {
    EXPECT_EQ(choice_a->candidates[i].strategy,
              choice_b->candidates[i].strategy);
    EXPECT_DOUBLE_EQ(choice_a->candidates[i].estimated_cost,
                     choice_b->candidates[i].estimated_cost);
  }
}

TEST(CalibrationPlanTest, ChoosePlanSkipsInapplicableCandidates) {
  // A conjunction over distinct join keys disqualifies 1-ROUND; ChoosePlan
  // must still succeed and report only the candidates that planned.
  const sgf::SgfQuery mixed = ParseSgfOrDie(kSkewQuery);
  const Database db = SkewDb(0.0, false);
  auto choice = ChoosePlan(mixed, db, TestCluster(), PlannerOptions{});
  ASSERT_OK(choice);
  EXPECT_FALSE(choice->candidates.empty());
  for (const StrategyCost& c : choice->candidates) {
    EXPECT_NE(c.strategy, Strategy::kOneRound);
  }
}

TEST(BaselineTest, AllBaselinesProduceCorrectResults) {
  for (int i : {1, 2, 3, 5}) {
    auto w = data::MakeA(i, SmallData());
    ASSERT_OK(w);
    auto expected = sgf::NaiveEvalSgf(w->query, w->db);
    ASSERT_OK(expected);
    for (auto kind :
         {baselines::BaselineKind::kHivePar,
          baselines::BaselineKind::kHiveParSemiJoin,
          baselines::BaselineKind::kPigPar}) {
      auto plan = baselines::PlanBaseline(kind, w->query, w->db);
      ASSERT_OK(plan) << baselines::BaselineName(kind);
      cost::ClusterConfig config = TestCluster();
      mr::Engine engine(config);
      Database db = w->db;
      auto result = ExecutePlanOnSnapshot(*plan, &engine, db, &db);
      ASSERT_OK(result) << baselines::BaselineName(kind);
      for (const auto& q : w->query.subqueries()) {
        EXPECT_TRUE(db.Get(q.output()).value()->SetEquals(
            *expected->Get(q.output()).value()))
            << "A" << i << " " << baselines::BaselineName(kind) << " "
            << q.output();
      }
    }
  }
}

TEST(BaselineTest, HparSerializesJoins) {
  auto w = data::MakeA(1, SmallData());
  ASSERT_OK(w);
  auto plan = baselines::PlanBaseline(baselines::BaselineKind::kHivePar,
                                      w->query, w->db);
  ASSERT_OK(plan);
  // 4 chained LOJ jobs + filter = 5 rounds.
  EXPECT_EQ(plan->program.Rounds(), 5);
}

TEST(BaselineTest, HparGroupsSameKeyJoins) {
  auto w = data::MakeA(3, SmallData());
  ASSERT_OK(w);
  auto plan = baselines::PlanBaseline(baselines::BaselineKind::kHivePar,
                                      w->query, w->db);
  ASSERT_OK(plan);
  // The paper's A3 observation: one multi-way join + filter = 2 rounds.
  EXPECT_EQ(plan->program.Rounds(), 2);
}

TEST(BaselineTest, RejectsNestedQueries) {
  auto w = data::MakeC(1, SmallData());
  ASSERT_OK(w);
  EXPECT_FALSE(baselines::PlanBaseline(baselines::BaselineKind::kPigPar,
                                       w->query, w->db)
                   .ok());
}

}  // namespace
}  // namespace gumbo::plan
