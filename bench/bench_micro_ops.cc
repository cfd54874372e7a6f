// Micro-benchmarks (google-benchmark) of the hot paths: tuple hashing,
// atom conformance, the MSJ map function, engine job throughput, parsing,
// the naive evaluator, and the planners. These measure real wall-clock
// performance of the library (unlike the fig/table benches, which report
// the paper's simulated cost-model metrics).
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "data/workloads.h"
#include "mr/engine.h"
#include "plan/executor.h"
#include "ops/msj.h"
#include "plan/grouping.h"
#include "plan/planner.h"
#include "sgf/naive_eval.h"
#include "sgf/parser.h"

namespace gumbo {
namespace {

data::GeneratorConfig SmallConfig(size_t tuples) {
  data::GeneratorConfig g;
  g.tuples = tuples;
  g.representation_scale = 1.0;
  return g;
}

void BM_TupleHash(benchmark::State& state) {
  std::vector<Tuple> tuples;
  Xoshiro256 rng(1);
  for (int i = 0; i < 1024; ++i) {
    tuples.push_back(Tuple::Ints({static_cast<int64_t>(rng.Next() % 1000),
                                  static_cast<int64_t>(rng.Next() % 1000),
                                  static_cast<int64_t>(rng.Next() % 1000),
                                  static_cast<int64_t>(rng.Next() % 1000)}));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuples[i++ & 1023].Hash());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleHash);

void BM_AtomConforms(benchmark::State& state) {
  sgf::Atom atom("R", {sgf::Term::Var("x"), sgf::Term::ConstInt(2),
                       sgf::Term::Var("x"), sgf::Term::Var("y")});
  Tuple hit = Tuple::Ints({1, 2, 1, 3});
  Tuple miss = Tuple::Ints({1, 2, 7, 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(atom.Conforms(hit));
    benchmark::DoNotOptimize(atom.Conforms(miss));
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_AtomConforms);

void BM_MsjMapFunction(benchmark::State& state) {
  auto w = data::MakeA(static_cast<int>(state.range(0)),
                       SmallConfig(10000));
  if (!w.ok()) {
    state.SkipWithError("workload");
    return;
  }
  const sgf::BsgfQuery& q = w->query.subqueries()[0];
  std::vector<ops::SemiJoinEquation> eqs;
  for (size_t i = 0; i < q.num_conditional_atoms(); ++i) {
    ops::SemiJoinEquation eq;
    eq.output = "__X" + std::to_string(i);
    eq.guard = q.guard();
    eq.guard_dataset = q.guard().relation();
    eq.conditional = q.conditional_atoms()[i];
    eq.conditional_dataset = q.conditional_atoms()[i].relation();
    eqs.push_back(std::move(eq));
  }
  auto job = ops::BuildMsjJob(eqs, ops::OpOptions{}, "bm");
  if (!job.ok()) {
    state.SkipWithError("job");
    return;
  }
  const Relation* guard = w->db.Get("R").value();
  for (auto _ : state) {
    // A fresh flat buffer per pass: the measured figure now includes the
    // real emission path (fingerprint grouping included), matching what
    // the engine pays per map task.
    mr::MapOutputBuffer sink;
    auto mapper = job->mapper_factory();
    for (size_t i = 0; i < guard->size(); ++i) {
      mapper->Map(0, guard->view(i), i, &sink);
    }
    benchmark::DoNotOptimize(sink.num_messages());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(guard->size()));
}
BENCHMARK(BM_MsjMapFunction)->Arg(1)->Arg(2)->Arg(3);

void BM_EngineMsjJob(benchmark::State& state) {
  auto w = data::MakeA(1, SmallConfig(static_cast<size_t>(state.range(0))));
  if (!w.ok()) {
    state.SkipWithError("workload");
    return;
  }
  plan::PlannerOptions popts;
  popts.strategy = plan::Strategy::kGreedy;
  cost::ClusterConfig config;
  config.split_mb = 0.05;
  config.mb_per_reducer = 0.05;
  plan::Planner planner(config, popts);
  mr::Engine engine(config);
  for (auto _ : state) {
    auto plan = planner.Plan(w->query, w->db);
    if (!plan.ok()) {
      state.SkipWithError("plan");
      return;
    }
    Database outputs;
    auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, w->db, &outputs);
    if (!result.ok()) {
      state.SkipWithError("exec");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineMsjJob)->Arg(10000)->Arg(50000);

void BM_ParseSgf(benchmark::State& state) {
  const std::string text =
      "Z1 := SELECT (x, y) FROM R(x, y) "
      "WHERE (S(x, y) OR S(y, x)) AND T(x, z);\n"
      "Z2 := SELECT x FROM Z1(x, y) WHERE NOT U(y);";
  for (auto _ : state) {
    Dictionary dict;
    auto q = sgf::ParseSgf(text, &dict);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParseSgf);

void BM_NaiveEval(benchmark::State& state) {
  auto w = data::MakeA(3, SmallConfig(static_cast<size_t>(state.range(0))));
  if (!w.ok()) {
    state.SkipWithError("workload");
    return;
  }
  for (auto _ : state) {
    auto out = sgf::NaiveEvalSgf(w->query, w->db);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NaiveEval)->Arg(10000)->Arg(100000);

void BM_GreedyGrouping(benchmark::State& state) {
  auto w = data::MakeA3Family(static_cast<int>(state.range(0)),
                              SmallConfig(5000));
  if (!w.ok()) {
    state.SkipWithError("workload");
    return;
  }
  const sgf::BsgfQuery& q = w->query.subqueries()[0];
  std::vector<ops::SemiJoinEquation> eqs;
  for (size_t i = 0; i < q.num_conditional_atoms(); ++i) {
    ops::SemiJoinEquation eq;
    eq.output = "__X" + std::to_string(i);
    eq.guard = q.guard();
    eq.guard_dataset = q.guard().relation();
    eq.conditional = q.conditional_atoms()[i];
    eq.conditional_dataset = q.conditional_atoms()[i].relation();
    eqs.push_back(std::move(eq));
  }
  cost::ClusterConfig config;
  cost::StatsCatalog catalog;
  for (auto _ : state) {
    // A fresh estimator per iteration: it memoizes skew regimes and
    // sampled map output, so one built outside the loop would time only
    // memo hits after the first iteration — not what one Plan call pays.
    cost::CostEstimator est(config, cost::CostModelVariant::kGumbo, &w->db,
                            &catalog, 128);
    auto g = plan::GreedyBsgfGrouping(eqs, ops::OpOptions{}, est);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GreedyGrouping)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace gumbo

BENCHMARK_MAIN();
