// Plan explorer: an EXPLAIN-style CLI. Give it an SGF query (and
// optionally relation sizes) and it prints, for every applicable
// strategy, the MR program, round/job counts, and the executed
// cost-model metrics on synthetic data of the requested shape.
//
//   $ ./build/examples/plan_explorer "Z := SELECT x FROM R(x,y) WHERE S(x) AND T(y);"
//   $ ./build/examples/plan_explorer --tuples 50000 "<query...>"
#include <cstdio>
#include <cstring>
#include <string>

#include "data/generator.h"
#include "mr/engine.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "sgf/parser.h"

using namespace gumbo;

int main(int argc, char** argv) {
  size_t tuples = 20000;
  std::string query_text;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tuples") == 0 && i + 1 < argc) {
      tuples = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      if (!query_text.empty()) query_text += " ";
      query_text += argv[i];
    }
  }
  if (query_text.empty()) {
    query_text =
        "Z := SELECT (x, y) FROM R(x, y, z, w) "
        "WHERE S(x) AND (T(y) OR NOT U(x));";
    std::printf("(no query given; using the paper's Example 4)\n");
  }

  Dictionary* dict = &Dictionary::Global();
  auto query = sgf::ParseSgf(query_text, dict);
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("Query:\n%s\n", query->ToString(dict).c_str());

  // Build synthetic relations of the right arities.
  data::GeneratorConfig cfg;
  cfg.tuples = tuples;
  cfg.representation_scale = 1.0;
  data::Generator gen(cfg);
  Database db;
  for (const auto& q : query->subqueries()) {
    auto ensure = [&](const std::string& rel, uint32_t arity, bool guard) {
      if (db.Contains(rel) || query->ProducerOf(rel) >= 0) return;
      db.Put(guard ? gen.Guard(rel, arity) : gen.Conditional(rel, arity));
    };
    ensure(q.guard().relation(), q.guard().arity(), true);
    for (const auto& atom : q.conditional_atoms()) {
      ensure(atom.relation(), atom.arity(), false);
    }
  }

  cost::ClusterConfig cluster;
  mr::Engine engine(cluster);
  for (plan::Strategy s :
       {plan::Strategy::kSeq, plan::Strategy::kPar, plan::Strategy::kGreedy,
        plan::Strategy::kOpt, plan::Strategy::kOneRound,
        plan::Strategy::kSeqUnit, plan::Strategy::kParUnit,
        plan::Strategy::kGreedySgf}) {
    plan::PlannerOptions options;
    options.strategy = s;
    plan::Planner planner(cluster, options);
    auto plan = planner.Plan(*query, db);
    std::printf("\n=== %s ===\n", StrategyName(s));
    if (!plan.ok()) {
      std::printf("not applicable: %s\n", plan.status().ToString().c_str());
      continue;
    }
    std::printf("%s", plan->description.c_str());
    Database outputs;
    auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, db, &outputs);
    if (!result.ok()) {
      std::printf("execution failed: %s\n",
                  result.status().ToString().c_str());
      continue;
    }
    std::printf(
        "rounds %d | jobs %d | net %.2fs | total %.2fs | read %.2f MB | "
        "shuffle %.2f MB\n",
        result->metrics.rounds, result->metrics.jobs,
        result->metrics.net_time, result->metrics.total_time,
        result->metrics.hdfs_read_mb, result->metrics.communication_mb);
    std::printf(
        "scheduler: max %d jobs/round | peak %d concurrent | wall %.1f ms\n",
        result->metrics.max_jobs_per_round,
        result->metrics.peak_concurrent_jobs, result->metrics.wall_ms);
    for (const auto& q : query->subqueries()) {
      std::printf("  %s: %zu tuples\n", q.output().c_str(),
                  outputs.Get(q.output()).value()->size());
    }
  }
  return 0;
}
