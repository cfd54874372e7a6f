// Quickstart: parse the paper's introductory SGF query, plan it with
// Greedy-BSGF, execute it on the simulated MapReduce cluster, and print
// the result together with the plan and its cost metrics.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "common/dictionary.h"
#include "mr/engine.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "sgf/parser.h"

using namespace gumbo;

int main() {
  // The query from the paper's introduction:
  //   SELECT (x, y) FROM R(x, y)
  //   WHERE (S(x, y) OR S(y, x)) AND T(x, z)
  const char* query_text =
      "Z := SELECT (x, y) FROM R(x, y) "
      "WHERE (S(x, y) OR S(y, x)) AND T(x, z);";

  Dictionary* dict = &Dictionary::Global();
  auto query = sgf::ParseSgf(query_text, dict);
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("Query:\n%s\n", query->ToString(dict).c_str());

  // A small database. R holds pairs; S holds endorsements in either
  // direction; T holds any outgoing edge.
  Database db;
  auto add = [&](const char* rel, uint32_t arity,
                 std::initializer_list<std::initializer_list<int64_t>> rows) {
    Relation r(rel, arity);
    for (const auto& row : rows) {
      Tuple t;
      for (int64_t v : row) t.PushBack(Value::Int(v));
      r.AddUnchecked(std::move(t));
    }
    db.Put(std::move(r));
  };
  add("R", 2, {{1, 2}, {2, 3}, {3, 4}, {4, 1}, {5, 6}});
  add("S", 2, {{1, 2}, {3, 2}, {4, 1}});
  add("T", 2, {{1, 7}, {2, 8}, {4, 9}});

  // Plan with the GREEDY strategy (Greedy-BSGF grouping + EVAL).
  cost::ClusterConfig cluster;  // the paper's 10-node testbed parameters
  plan::PlannerOptions options;
  options.strategy = plan::Strategy::kGreedy;
  plan::Planner planner(cluster, options);

  auto plan = planner.Plan(*query, db);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning error: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("Plan (%d round(s), %zu job(s)):\n%s\n",
              plan->program.Rounds(), plan->program.size(),
              plan->description.c_str());

  mr::Engine engine(cluster);
  auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, db, &db);
  if (!result.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const Relation* z = db.Get("Z").value();
  std::printf("Result Z (%zu tuples):\n", z->size());
  for (gumbo::RowView t : z->views()) {
    std::printf("  %s\n", t.ToString(dict).c_str());
  }
  std::printf(
      "\nMetrics: net time %.2fs, total time %.2fs, %d jobs, "
      "%.3f MB read, %.3f MB shuffled\n",
      result->metrics.net_time, result->metrics.total_time,
      result->metrics.jobs, result->metrics.hdfs_read_mb,
      result->metrics.communication_mb);
  return 0;
}
