// Tests for the MapReduce cost model (§3.3) and the sampling estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cost/constants.h"
#include "cost/estimator.h"
#include "cost/model.h"
#include "data/generator.h"
#include "ops/msj.h"
#include "test_util.h"

namespace gumbo::cost {
namespace {

using ::gumbo::testing::MakeRelation;

TEST(CostModelTest, LogDCeil) {
  EXPECT_DOUBLE_EQ(LogDCeil(0.5, 10.0), 0.0);   // fits in buffer
  EXPECT_DOUBLE_EQ(LogDCeil(1.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(LogDCeil(10.0, 10.0), 1.0);  // one merge pass
  EXPECT_DOUBLE_EQ(LogDCeil(100.0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(LogDCeil(99.2, 10.0), 2.0);  // ceil then log
}

TEST(CostModelTest, MapCostHandComputed) {
  CostConstants c;  // paper Table 5 values
  // Small output: no merge passes.
  MapPartition p;
  p.input_mb = 100.0;
  p.output_mb = 100.0;
  p.metadata_mb = 1.0;
  p.num_mappers = 1;
  // (101/409) < 1 -> merge 0; cost = 0.15*100 + 0 + 0.085*100 = 23.5.
  EXPECT_NEAR(MapCost(c, p), 23.5, 1e-9);

  // Large output: ceil(5000/409)=13 -> log10(13) passes.
  p.output_mb = 5000.0;
  p.metadata_mb = 0.0;
  double merge = (0.03 + 0.085) * 5000.0 * std::log(13.0) / std::log(10.0);
  EXPECT_NEAR(MapCost(c, p), 0.15 * 100.0 + merge + 0.085 * 5000.0, 1e-9);
}

TEST(CostModelTest, ReduceCostHandComputed) {
  CostConstants c;
  // M=1000 over 4 reducers: 250/512 < 1 -> no merge passes.
  EXPECT_NEAR(ReduceCost(c, 1000.0, 300.0, 4),
              0.017 * 1000.0 + 0.25 * 300.0, 1e-9);
  // One reducer: ceil(1000/512)=2 -> log10(2).
  double merge = (0.03 + 0.085) * 1000.0 * std::log(2.0) / std::log(10.0);
  EXPECT_NEAR(ReduceCost(c, 1000.0, 300.0, 1),
              0.017 * 1000.0 + merge + 0.25 * 300.0, 1e-9);
}

TEST(CostModelTest, GumboSeparatesPartitionsWangAggregates) {
  CostConstants c;
  // Two inputs with wildly different expansion: one emits 4000 MB from
  // 100 MB, the other emits nothing. Per-partition accounting sees merge
  // passes only on the hot input at its own task count; the aggregate
  // model smears the data across all mappers, changing the merge term
  // (this is the §3.3 / §5.2 discrepancy).
  MapPartition hot;
  hot.input_mb = 100.0;
  hot.output_mb = 8000.0;
  hot.metadata_mb = 400.0;
  hot.num_mappers = 1;
  MapPartition cold;
  cold.input_mb = 400.0;
  cold.output_mb = 0.0;
  cold.metadata_mb = 0.0;
  cold.num_mappers = 4;

  double gumbo = JobCost(c, CostModelVariant::kGumbo, {hot, cold}, 10.0, 4);
  double wang = JobCost(c, CostModelVariant::kWang, {hot, cold}, 10.0, 4);
  EXPECT_GT(gumbo, wang);  // wang underestimates the hot input's merges
}

TEST(CostModelTest, VariantsAgreeOnUniformInputs) {
  CostConstants c;
  MapPartition a;
  a.input_mb = 100.0;
  a.output_mb = 100.0;
  a.metadata_mb = 5.0;
  a.num_mappers = 2;
  MapPartition b = a;
  double gumbo = JobCost(c, CostModelVariant::kGumbo, {a, b}, 10.0, 2);
  double wang = JobCost(c, CostModelVariant::kWang, {a, b}, 10.0, 2);
  EXPECT_NEAR(gumbo, wang, 1e-9);
}

TEST(CostModelTest, JobOverheadIncluded) {
  CostConstants c;
  c.job_overhead = 42.0;
  EXPECT_NEAR(JobCost(c, CostModelVariant::kGumbo, {}, 0.0, 1), 42.0, 1e-9);
}

TEST(ClusterConfigTest, ScaledBytesPreservesRatios) {
  ClusterConfig c;
  ClusterConfig s = c.ScaledBytes(0.01);
  EXPECT_NEAR(s.split_mb / s.mb_per_reducer, c.split_mb / c.mb_per_reducer,
              1e-12);
  EXPECT_NEAR(s.costs.buf_map_mb, c.costs.buf_map_mb * 0.01, 1e-12);
  EXPECT_EQ(s.TotalMapSlots(), c.TotalMapSlots());
}

// ---- Estimator ---------------------------------------------------------------

TEST(EstimatorTest, SamplingMatchesEngineShapeOnMsj) {
  // Estimate an MSJ job by sampling and compare the input/intermediate
  // profile against structural expectations.
  data::GeneratorConfig g;
  g.tuples = 2000;
  g.representation_scale = 1.0;
  Database db;
  data::Generator gen(g);
  db.Put(gen.Guard("R", 4));
  db.Put(gen.Conditional("S", 1));

  ops::SemiJoinEquation eq;
  eq.output = "X";
  eq.guard = sgf::Atom::Vars("R", {"x", "y", "z", "w"});
  eq.guard_dataset = "R";
  eq.conditional = sgf::Atom::Vars("S", {"x"});
  eq.conditional_dataset = "S";
  ops::OpOptions opt;
  opt.pack_messages = false;  // exact per-message byte math below
  auto job = ops::BuildMsjJob({eq}, opt, "j");
  ASSERT_OK(job);

  ClusterConfig config;
  config.split_mb = 0.01;
  StatsCatalog catalog;
  CostEstimator est(config, CostModelVariant::kGumbo, &db, &catalog, 256);
  auto e = est.EstimateJob(*job);
  ASSERT_OK(e);
  ASSERT_EQ(e->partitions.size(), 2u);
  // Guard input: 2000 * 40 B.
  EXPECT_NEAR(e->partitions[0].input_mb, 2000.0 * 40 / (1024.0 * 1024.0),
              1e-9);
  // Every guard tuple emits one request (key 10 B + msg 3 + 8 id).
  EXPECT_NEAR(e->partitions[0].output_mb, 2000.0 * 21 / (1024.0 * 1024.0),
              1e-6);
  EXPECT_GT(e->cost, 0.0);
}

TEST(EstimatorTest, CatalogFallbackForUnmaterializedInputs) {
  Database db;  // empty: forces the catalog path
  StatsCatalog catalog;
  RelationStats rs;
  rs.tuples = 1000.0;
  rs.bytes_per_tuple = 40.0;
  catalog.Put("R", rs);
  rs.bytes_per_tuple = 10.0;
  catalog.Put("S", rs);

  ops::SemiJoinEquation eq;
  eq.output = "X";
  eq.guard = sgf::Atom::Vars("R", {"x", "y", "z", "w"});
  eq.guard_dataset = "R";
  eq.conditional = sgf::Atom::Vars("S", {"x"});
  eq.conditional_dataset = "S";
  auto job = ops::BuildMsjJob({eq}, ops::OpOptions{}, "j");
  ASSERT_OK(job);

  ClusterConfig config;
  CostEstimator est(config, CostModelVariant::kGumbo, &db, &catalog, 256);
  auto e = est.EstimateJob(*job);
  ASSERT_OK(e);
  EXPECT_NEAR(e->partitions[0].input_mb, 1000.0 * 40 / (1024.0 * 1024.0),
              1e-9);
  EXPECT_GT(e->partitions[0].output_mb, 0.0);

  // Missing from both db and catalog -> NotFound.
  StatsCatalog empty;
  CostEstimator bad(config, CostModelVariant::kGumbo, &db, &empty, 256);
  EXPECT_FALSE(bad.EstimateJob(*job).ok());
}

TEST(EstimatorTest, ConstantFilterDetectedBySampling) {
  // The §5.2 scenario: a conditional atom whose constant matches no tuple
  // contributes zero intermediate data — visible to sampling, invisible
  // to a naive size-proportional guess.
  Database db;
  db.Put(MakeRelation("R", 1, {{1}, {2}, {3}, {4}}));
  Relation s("S", 2);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_OK(s.Add(Tuple::Ints({i, i})));
  }
  db.Put(std::move(s));

  ops::SemiJoinEquation eq;
  eq.output = "X";
  eq.guard = sgf::Atom::Vars("R", {"x"});
  eq.guard_dataset = "R";
  eq.conditional =
      sgf::Atom("S", {sgf::Term::Var("x"), sgf::Term::ConstInt(424242)});
  eq.conditional_dataset = "S";
  auto job = ops::BuildMsjJob({eq}, ops::OpOptions{}, "j");
  ASSERT_OK(job);
  ClusterConfig config;
  StatsCatalog catalog;
  CostEstimator est(config, CostModelVariant::kGumbo, &db, &catalog, 64);
  auto e = est.EstimateJob(*job);
  ASSERT_OK(e);
  EXPECT_DOUBLE_EQ(e->partitions[1].output_mb, 0.0);
}

// ---- Skew classification + calibration (DESIGN.md §10) ----------------------

// A relation whose first (key) column holds counts[v] copies of value v,
// with a distinct second column.
Relation KeyColumn(const std::vector<size_t>& counts) {
  Relation rel("K", 2);
  int64_t row = 0;
  for (size_t v = 0; v < counts.size(); ++v) {
    for (size_t c = 0; c < counts[v]; ++c) {
      Tuple t;
      t.PushBack(Value::Int(static_cast<int64_t>(v)));
      t.PushBack(Value::Int(row++));
      EXPECT_TRUE(rel.Add(std::move(t)).ok());
    }
  }
  return rel;
}

// `top` copies of one value, then `twos` values twice and `ones` once.
std::vector<size_t> KeyCounts(size_t top, size_t twos, size_t ones) {
  std::vector<size_t> counts = {top};
  counts.insert(counts.end(), twos, 2);
  counts.insert(counts.end(), ones, 1);
  return counts;
}

TEST(CalibrationTest, ClassifyKeySkewPerGeneratorRegime) {
  data::GeneratorConfig g;
  g.tuples = 5000;
  g.representation_scale = 1.0;
  data::Generator gen(g);
  EXPECT_EQ(ClassifyKeySkew(gen.Guard("R", 1)), SkewRegime::kUniform);
  EXPECT_EQ(ClassifyKeySkew(gen.ZipfGuard("Z", 1, 1.0)),
            SkewRegime::kModerate);
  EXPECT_EQ(ClassifyKeySkew(gen.ZipfGuard("H", 1, 1.5)), SkewRegime::kHeavy);
  // Correlation skews later attributes, not the key column: with theta=0
  // the first attribute stays uniform.
  EXPECT_EQ(ClassifyKeySkew(gen.CorrelatedGuard("C", 3, 0.9, 0.0)),
            SkewRegime::kUniform);
  EXPECT_EQ(ClassifyKeySkew(Relation("E", 2)), SkewRegime::kUniform);

  // Boundaries, on 100 rows so every row is classified. A top share of
  // exactly 20% is heavy; 19% over 82 values is moderate.
  EXPECT_EQ(ClassifyKeySkew(KeyColumn(KeyCounts(20, 0, 80))),
            SkewRegime::kHeavy);
  EXPECT_EQ(ClassifyKeySkew(KeyColumn(KeyCounts(19, 0, 81))),
            SkewRegime::kModerate);
  // Over u = 50 values the moderate threshold is 8/u = 16%, not 4%.
  EXPECT_EQ(ClassifyKeySkew(KeyColumn(KeyCounts(16, 35, 14))),
            SkewRegime::kModerate);
  EXPECT_EQ(ClassifyKeySkew(KeyColumn(KeyCounts(15, 36, 13))),
            SkewRegime::kUniform);
}

TEST(CalibrationTest, EmptyStoreIsTheIdentity) {
  CalibrationStore store;
  EXPECT_EQ(store.TotalObservations(), 0u);
  for (size_t c = 0; c < kNumChannels; ++c) {
    for (size_t r = 0; r < kNumRegimes; ++r) {
      EXPECT_DOUBLE_EQ(store.Factor(static_cast<Channel>(c),
                                    static_cast<SkewRegime>(r)),
                       1.0);
    }
  }
}

TEST(CalibrationTest, FactorIsTheClampedGeometricMean) {
  CalibrationStore store;
  store.Observe(Channel::kOutputBound, SkewRegime::kHeavy, 1.0, 4.0);
  store.Observe(Channel::kOutputBound, SkewRegime::kHeavy, 2.0, 2.0);
  // Geometric mean of {4, 1} = 2.
  EXPECT_NEAR(store.Factor(Channel::kOutputBound, SkewRegime::kHeavy), 2.0,
              1e-12);
  // Other cells untouched.
  EXPECT_DOUBLE_EQ(store.Factor(Channel::kOutputBound, SkewRegime::kUniform),
                   1.0);
  // A pathological ratio is clamped to 64 before entering the mean.
  CalibrationStore wild;
  wild.Observe(Channel::kCatalogOutput, SkewRegime::kUniform, 1.0, 1e12);
  EXPECT_DOUBLE_EQ(wild.Factor(Channel::kCatalogOutput, SkewRegime::kUniform),
                   64.0);
  // Invalid observations are ignored.
  CalibrationStore noop;
  noop.Observe(Channel::kCatalogOutput, SkewRegime::kUniform, 0.0, 5.0);
  noop.Observe(Channel::kCatalogOutput, SkewRegime::kUniform, 1.0, -1.0);
  EXPECT_EQ(noop.TotalObservations(), 0u);
}

TEST(CalibrationTest, SerializeRoundTripsEveryCell) {
  CalibrationStore store;
  store.Observe(Channel::kSampledOutput, SkewRegime::kUniform, 2.0, 1.0);
  store.Observe(Channel::kCatalogInput, SkewRegime::kModerate, 1.0, 0.25);
  store.Observe(Channel::kOutputBound, SkewRegime::kHeavy, 10.0, 0.5);
  store.Observe(Channel::kCombinerYield, SkewRegime::kHeavy, 1.0, 0.7);

  CalibrationStore loaded;
  ASSERT_OK(loaded.Deserialize(store.Serialize()));
  for (size_t c = 0; c < kNumChannels; ++c) {
    for (size_t r = 0; r < kNumRegimes; ++r) {
      const Channel ch = static_cast<Channel>(c);
      const SkewRegime rg = static_cast<SkewRegime>(r);
      EXPECT_EQ(loaded.Observations(ch, rg), store.Observations(ch, rg));
      EXPECT_DOUBLE_EQ(loaded.Factor(ch, rg), store.Factor(ch, rg));
    }
  }
  // Unknown lines are skipped; garbage headers are rejected.
  ASSERT_OK(loaded.Deserialize(
      "gumbo-calibration v1\nfuture-field 12\ncell catalog-input moderate 1 "
      "-1.0\n"));
  EXPECT_FALSE(loaded.Deserialize("not a calibration file").ok());
}

// ---- Estimator sampling accuracy per skew regime -----------------------------

TEST(EstimatorTest, SampledEstimateErrorBoundedOnSkewedInputs) {
  // The sampled channel must stay accurate whatever the key regime: a
  // 256-row stride sample's M_i estimate lands within 25% of the
  // exhaustive-sample estimate on uniform, Zipf, and hot/cold data.
  data::GeneratorConfig g;
  g.tuples = 4000;
  g.representation_scale = 1.0;
  g.selectivity = 0.3;
  data::Generator gen(g);
  struct Case {
    const char* name;
    Relation guard;
    Relation cond;
  };
  std::vector<Case> cases;
  cases.push_back({"uniform", gen.Guard("R", 2), gen.Conditional("S", 1)});
  cases.push_back(
      {"zipf", gen.ZipfGuard("R", 2, 1.2), gen.Conditional("S", 1)});
  cases.push_back(
      {"hot", gen.ZipfGuard("R", 2, 1.2), gen.HotConditional("S", 1)});
  cases.push_back(
      {"cold", gen.ZipfGuard("R", 2, 1.2), gen.ColdConditional("S", 1)});
  for (Case& c : cases) {
    Database db;
    db.Put(std::move(c.guard));
    db.Put(std::move(c.cond));
    ops::SemiJoinEquation eq;
    eq.output = "X";
    eq.guard = sgf::Atom::Vars("R", {"x", "y"});
    eq.guard_dataset = "R";
    eq.conditional = sgf::Atom::Vars("S", {"x"});
    eq.conditional_dataset = "S";
    auto job = ops::BuildMsjJob({eq}, ops::OpOptions{}, "j");
    ASSERT_OK(job);
    ClusterConfig config;
    StatsCatalog catalog;
    CostEstimator sampled(config, CostModelVariant::kGumbo, &db, &catalog,
                          256);
    CostEstimator exhaustive(config, CostModelVariant::kGumbo, &db, &catalog,
                             g.tuples);
    auto es = sampled.EstimateJob(*job);
    auto ee = exhaustive.EstimateJob(*job);
    ASSERT_OK(es);
    ASSERT_OK(ee);
    ASSERT_EQ(es->partitions.size(), ee->partitions.size());
    for (size_t p = 0; p < es->partitions.size(); ++p) {
      const double got = es->partitions[p].output_mb;
      const double want = ee->partitions[p].output_mb;
      EXPECT_NEAR(got, want, 0.25 * want + 1e-9)
          << c.name << " partition " << p;
    }
  }
}

}  // namespace
}  // namespace gumbo::cost
