// Bookstore: the paper's Example 2 — find upcoming books by authors who
// have NOT received a "bad" rating for the same title at all three
// retailers — run as a nested SGF query under GREEDY-SGF on synthetic
// book data.
//
//   $ ./build/examples/bookstore
#include <cstdio>

#include "common/rng.h"
#include "mr/engine.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "sgf/parser.h"

using namespace gumbo;

int main() {
  Dictionary* dict = &Dictionary::Global();
  const char* query_text =
      "BadEverywhere := SELECT aut FROM Amaz(ttl, aut, \"bad\") "
      "WHERE BN(ttl, aut, \"bad\") AND BD(ttl, aut, \"bad\");\n"
      "Recommended := SELECT (new, aut) FROM Upcoming(new, aut) "
      "WHERE NOT BadEverywhere(aut);";
  auto query = sgf::ParseSgf(query_text, dict);
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("Query:\n%s\n", query->ToString(dict).c_str());

  // Synthetic catalog: 2000 titles by 500 authors, rated at three stores;
  // ~30% of (title, author) pairs are rated "bad" at any given store.
  Xoshiro256 rng(2016);
  Value bad = dict->Intern("bad");
  Value good = dict->Intern("good");
  Database db;
  Relation amaz("Amaz", 3), bn("BN", 3), bd("BD", 3), up("Upcoming", 2);
  for (int t = 0; t < 2000; ++t) {
    Value title = dict->Intern("title" + std::to_string(t));
    Value author = dict->Intern("author" + std::to_string(t % 500));
    amaz.AddUnchecked({title, author, rng.Bernoulli(0.3) ? bad : good});
    bn.AddUnchecked({title, author, rng.Bernoulli(0.3) ? bad : good});
    bd.AddUnchecked({title, author, rng.Bernoulli(0.3) ? bad : good});
  }
  for (int n = 0; n < 40; ++n) {
    up.AddUnchecked({dict->Intern("upcoming" + std::to_string(n)),
                     dict->Intern("author" + std::to_string(n * 12))});
  }
  db.Put(std::move(amaz));
  db.Put(std::move(bn));
  db.Put(std::move(bd));
  db.Put(std::move(up));

  cost::ClusterConfig cluster;
  plan::PlannerOptions options;
  options.strategy = plan::Strategy::kGreedySgf;
  plan::Planner planner(cluster, options);
  mr::Engine engine(cluster);
  auto plan = planner.Plan(*query, db);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning error: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("Plan:\n%s\n", plan->description.c_str());
  auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, db, &db);
  if (!result.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const Relation* bad_everywhere = db.Get("BadEverywhere").value();
  const Relation* recommended = db.Get("Recommended").value();
  std::printf("Authors rated bad at all three stores: %zu\n",
              bad_everywhere->size());
  std::printf("Recommended upcoming books: %zu of 40\n",
              recommended->size());
  int shown = 0;
  for (gumbo::RowView t : recommended->views()) {
    if (shown++ >= 5) break;
    std::printf("  %s\n", t.ToString(dict).c_str());
  }
  std::printf("\nnet %.2fs / total %.2fs across %d jobs (%d rounds)\n",
              result->metrics.net_time, result->metrics.total_time,
              result->metrics.jobs, result->metrics.rounds);
  return 0;
}
