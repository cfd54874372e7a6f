// Shared helpers for the gumbo test suites.
#ifndef GUMBO_TESTS_TEST_UTIL_H_
#define GUMBO_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "sgf/parser.h"

namespace gumbo::testing {

/// Builds a relation of integer tuples.
inline Relation MakeRelation(const std::string& name, uint32_t arity,
                             std::initializer_list<std::vector<int64_t>> rows) {
  Relation rel(name, arity);
  for (const auto& row : rows) {
    Tuple t;
    for (int64_t v : row) t.PushBack(Value::Int(v));
    EXPECT_TRUE(rel.Add(std::move(t)).ok());
  }
  return rel;
}

/// Parses a BSGF query or aborts the test.
inline sgf::BsgfQuery ParseBsgfOrDie(const std::string& text) {
  Result<sgf::BsgfQuery> r = sgf::ParseBsgf(text, &Dictionary::Global());
  EXPECT_TRUE(r.ok()) << r.status() << " while parsing: " << text;
  return std::move(r).value();
}

/// Parses an SGF query or aborts the test.
inline sgf::SgfQuery ParseSgfOrDie(const std::string& text) {
  Result<sgf::SgfQuery> r = sgf::ParseSgf(text, &Dictionary::Global());
  EXPECT_TRUE(r.ok()) << r.status() << " while parsing: " << text;
  return std::move(r).value();
}

/// A 17-atom query over the serve tests' demo database (4-ary guard R,
/// unary conditionals S, T, U, V) whose GREEDY grouping plans for tens of
/// ms — long enough that everything submitted behind it on a one-worker
/// QueryService is reliably still queued.
inline sgf::SgfQuery SlowBlocker() {
  std::string cond;
  for (const char* r : {"S", "T", "U", "V"}) {
    for (const char* v : {"x", "y", "z", "w"}) {
      if (!cond.empty()) cond += " AND ";
      cond += std::string(r) + "(" + v + ")";
    }
  }
  return ParseSgfOrDie(
      "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE " + cond + ";");
}

/// Sorted-tuple view of a relation, for readable assertions.
inline std::vector<std::vector<int64_t>> RowsOf(const Relation& rel) {
  Relation copy = rel;
  copy.SortAndDedupe();
  std::vector<std::vector<int64_t>> out;
  for (RowView t : copy.views()) {
    std::vector<int64_t> row;
    for (uint32_t i = 0; i < t.size(); ++i) row.push_back(t[i].AsInt());
    out.push_back(std::move(row));
  }
  return out;
}

inline ::testing::AssertionResult IsOk(const Status& s) {
  if (s.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << s.ToString();
}
template <typename T>
::testing::AssertionResult IsOk(const Result<T>& r) {
  return IsOk(r.status());
}

#define ASSERT_OK(expr) ASSERT_TRUE(::gumbo::testing::IsOk(expr))
#define EXPECT_OK(expr) EXPECT_TRUE(::gumbo::testing::IsOk(expr))

}  // namespace gumbo::testing

#endif  // GUMBO_TESTS_TEST_UTIL_H_
