// Tests for the common foundations: Status/Result, Value/Dictionary,
// Tuple, Relation/Database, RuntimeConfig, RNG, string helpers, table
// printer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/dictionary.h"
#include "common/relation.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "common/tuple.h"
#include "test_util.h"

namespace gumbo {
namespace {

using ::gumbo::testing::MakeRelation;

// ---- Status / Result -------------------------------------------------------

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(7), 42);

  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  GUMBO_ASSIGN_OR_RETURN(int h, Half(x));
  GUMBO_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto q = Quarter(8);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
}

// ---- Value / Dictionary ----------------------------------------------------

TEST(ValueTest, IntRoundTrip) {
  EXPECT_EQ(Value::Int(0).AsInt(), 0);
  EXPECT_EQ(Value::Int(12345).AsInt(), 12345);
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_TRUE(Value::Int(5).is_int());
  EXPECT_FALSE(Value::Int(5).is_string());
}

TEST(ValueTest, StringsDisjointFromInts) {
  Dictionary dict;
  Value s = dict.Intern("hello");
  EXPECT_TRUE(s.is_string());
  EXPECT_NE(s, Value::Int(static_cast<int64_t>(s.raw())));
  EXPECT_EQ(dict.Lookup(s), "hello");
  EXPECT_EQ(dict.Intern("hello"), s);       // stable
  EXPECT_NE(dict.Intern("world"), s);       // distinct
  EXPECT_EQ(dict.ToString(s), "\"hello\"");
  EXPECT_EQ(dict.ToString(Value::Int(3)), "3");
}

// ---- Tuple -----------------------------------------------------------------

TEST(TupleTest, BasicOps) {
  Tuple t = Tuple::Ints({1, 2, 3});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], Value::Int(2));
  EXPECT_EQ(t, Tuple::Ints({1, 2, 3}));
  EXPECT_NE(t, Tuple::Ints({1, 2}));
  EXPECT_NE(t, Tuple::Ints({1, 2, 4}));
  EXPECT_TRUE(Tuple().empty());
}

TEST(TupleTest, GrowsBeyondInlineCapacity) {
  Tuple t;
  for (int64_t i = 0; i < 20; ++i) t.PushBack(Value::Int(i));
  EXPECT_EQ(t.size(), 20u);
  for (uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(t[i], Value::Int(i));
  }
  // Copy and move of heap-backed tuples.
  Tuple copy = t;
  EXPECT_EQ(copy, t);
  Tuple moved = std::move(copy);
  EXPECT_EQ(moved, t);
}

TEST(TupleTest, LexicographicOrder) {
  EXPECT_LT(Tuple::Ints({1, 2}), Tuple::Ints({1, 3}));
  EXPECT_LT(Tuple::Ints({1}), Tuple::Ints({1, 0}));
  EXPECT_FALSE(Tuple::Ints({2}) < Tuple::Ints({1, 5}));
}

TEST(TupleTest, HashDistinguishes) {
  std::set<uint64_t> hashes;
  for (int64_t i = 0; i < 1000; ++i) {
    hashes.insert(Tuple::Ints({i, i * 2}).Hash());
  }
  EXPECT_EQ(hashes.size(), 1000u);
  // Same content, same hash.
  EXPECT_EQ(Tuple::Ints({5, 6}).Hash(), Tuple::Ints({5, 6}).Hash());
  // (1,2) vs (12): size is part of the hash.
  EXPECT_NE(Tuple::Ints({}).Hash(), Tuple::Ints({0}).Hash());
}

TEST(TupleTest, SelfAssignment) {
  Tuple t = Tuple::Ints({1, 2, 3, 4, 5});
  t = *&t;
  EXPECT_EQ(t.size(), 5u);
}

// ---- Relation / Database ---------------------------------------------------

TEST(RelationTest, ArityEnforced) {
  Relation r("R", 2);
  EXPECT_TRUE(r.Add(Tuple::Ints({1, 2})).ok());
  EXPECT_FALSE(r.Add(Tuple::Ints({1})).ok());
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, SortAndDedupe) {
  Relation r = MakeRelation("R", 2, {{3, 4}, {1, 2}, {3, 4}, {1, 2}});
  r.SortAndDedupe();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.TupleAt(0), Tuple::Ints({1, 2}));
}

TEST(RelationTest, SetEqualsIgnoresOrderAndDuplicates) {
  Relation a = MakeRelation("A", 1, {{1}, {2}, {2}});
  Relation b = MakeRelation("B", 1, {{2}, {1}});
  EXPECT_TRUE(a.SetEquals(b));
  Relation c = MakeRelation("C", 1, {{1}});
  EXPECT_FALSE(a.SetEquals(c));
}

TEST(RelationTest, SizeAccounting) {
  Relation r = MakeRelation("R", 4, {{1, 2, 3, 4}});
  // Default density 10 B/attribute.
  EXPECT_DOUBLE_EQ(r.bytes_per_tuple(), 40.0);
  r.set_representation_scale(100.0);
  EXPECT_DOUBLE_EQ(r.RepresentedRecords(), 100.0);
  EXPECT_NEAR(r.SizeMb(), 100.0 * 40.0 / (1024 * 1024), 1e-12);
  r.set_bytes_per_tuple(8.0);
  EXPECT_DOUBLE_EQ(r.bytes_per_tuple(), 8.0);
}

TEST(DatabaseTest, CrudAndErrors) {
  Database db;
  EXPECT_OK(db.Create("R", 2));
  EXPECT_FALSE(db.Create("R", 3).ok());
  EXPECT_OK(db.AddFact("R", Tuple::Ints({1, 2})));
  EXPECT_FALSE(db.AddFact("R", Tuple::Ints({1})).ok());
  EXPECT_FALSE(db.AddFact("S", Tuple::Ints({1})).ok());
  ASSERT_OK(db.Get("R"));
  EXPECT_EQ(db.Get("R").value()->size(), 1u);
  EXPECT_FALSE(db.Get("S").ok());
  EXPECT_TRUE(db.Erase("R"));
  EXPECT_FALSE(db.Erase("R"));
}

// ---- RuntimeConfig ---------------------------------------------------------

TEST(RuntimeConfigTest, ScopedOverrideReachesGetAndDescribe) {
  const std::optional<size_t> before =
      common::RuntimeConfig::Get().morsel_rows;
  {
    common::RuntimeConfig cfg;
    cfg.morsel_rows = 7;
    common::RuntimeConfig::ScopedOverride guard(cfg);
    EXPECT_EQ(common::RuntimeConfig::Get().morsel_rows.value_or(0), 7u);
    const std::string described = common::RuntimeConfig::Get().Describe();
    const size_t at = described.find("GUMBO_MORSEL_ROWS");
    ASSERT_NE(at, std::string::npos);
    const std::string line =
        described.substr(at, described.find('\n', at) - at);
    EXPECT_EQ(line.substr(line.find('=')), "= 7");
    EXPECT_NE(described.find("GUMBO_FAULT_SEED"), std::string::npos);
  }
  // Leaving the scope restores the previous configuration.
  EXPECT_EQ(common::RuntimeConfig::Get().morsel_rows, before);
}

// strtoull negates a leading '-' modulo 2^64: unchecked, "-1" parses as a
// worker or tuple count near 1.8e19, and the first allocation sized by it
// aborts the process. A negative value must leave its knob unset, as any
// other unparseable value does.
TEST(RuntimeConfigTest, NegativeValuesLeaveKnobsUnset) {
  const char* const kKnobs[] = {"GUMBO_SCHED_WORKERS", "GUMBO_MORSEL_ROWS",
                                "GUMBO_SOAK_ITERS", "GUMBO_BENCH_TUPLES"};
  std::vector<std::optional<std::string>> saved;
  for (const char* knob : kKnobs) {
    const char* v = std::getenv(knob);
    saved.push_back(v != nullptr ? std::optional<std::string>(v)
                                 : std::nullopt);
  }
  auto parse_with = [&](const char* value) {
    for (const char* knob : kKnobs) setenv(knob, value, /*overwrite=*/1);
    return common::RuntimeConfig::FromEnv();
  };
  for (const char* value : {"-1", "  -5", "-0"}) {
    SCOPED_TRACE(std::string("value \"") + value + "\"");
    const common::RuntimeConfig cfg = parse_with(value);
    EXPECT_FALSE(cfg.sched_workers.has_value());
    EXPECT_FALSE(cfg.morsel_rows.has_value());
    EXPECT_FALSE(cfg.soak_iters.has_value());
    EXPECT_FALSE(cfg.bench_tuples.has_value());
  }
  // The same knobs still parse a positive value.
  const common::RuntimeConfig cfg = parse_with("300");
  EXPECT_EQ(cfg.sched_workers, std::optional<size_t>(300));
  EXPECT_EQ(cfg.morsel_rows, std::optional<size_t>(300));
  EXPECT_EQ(cfg.soak_iters, std::optional<uint64_t>(300));
  EXPECT_EQ(cfg.bench_tuples, std::optional<size_t>(300));
  for (size_t i = 0; i < saved.size(); ++i) {
    if (saved[i]) {
      setenv(kKnobs[i], saved[i]->c_str(), /*overwrite=*/1);
    } else {
      unsetenv(kKnobs[i]);
    }
  }
}

// ---- RNG -------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Xoshiro256 c(43);
  EXPECT_NE(Xoshiro256(42).Next(), c.Next());
}

TEST(RngTest, UniformBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Xoshiro256 rng(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.02);
}

// ---- Strings ---------------------------------------------------------------

TEST(StrUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StrUtilTest, JoinSplitTrim) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrTrim("  x y \n"), "x y");
  EXPECT_TRUE(StartsWith("__tmp_1", "__"));
  EXPECT_FALSE(StartsWith("_tmp", "__"));
}

TEST(StrUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(12.50), "12.5");
  EXPECT_EQ(FormatDouble(3.00), "3");
  EXPECT_EQ(FormatDouble(0.123, 2), "0.12");
}

// ---- TablePrinter ----------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"a", "bbbb"});
  tp.AddRow({"ccc", "d"});
  std::string out = tp.Render();
  EXPECT_NE(out.find("| a   | bbbb |"), std::string::npos) << out;
  EXPECT_NE(out.find("| ccc | d    |"), std::string::npos) << out;
}

// The morsel scheduler (the ThreadPool successor) is covered in
// tests/scheduler_test.cc: ParallelFor coverage, nested groups, lost
// tasks, priority ordering, anti-starvation, and shutdown drain.

}  // namespace
}  // namespace gumbo
