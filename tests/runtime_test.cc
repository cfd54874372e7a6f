// Tests for the round runtime: round structure, concurrent execution of
// independent jobs, and determinism across scheduler worker counts and
// morsel sizes (DESIGN.md §9).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "data/workloads.h"
#include "mr/runtime.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "sgf/naive_eval.h"
#include "test_util.h"

namespace gumbo::mr {
namespace {

using ::gumbo::testing::MakeRelation;

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

// ---- Round structure --------------------------------------------------------

JobSpec NamedJob(const std::string& name) {
  JobSpec s;
  s.name = name;
  s.mapper_factory = [] { return nullptr; };
  s.reducer_factory = [] { return nullptr; };
  return s;
}

TEST(RuntimeTest, JobRoundsGroupByDependencyDepth) {
  // Diamond: a; b,c depend on a; d depends on b and c; e independent.
  Program p;
  size_t a = p.AddJob(NamedJob("a"));
  size_t b = p.AddJob(NamedJob("b"), {a});
  size_t c = p.AddJob(NamedJob("c"), {a});
  size_t d = p.AddJob(NamedJob("d"), {b, c});
  size_t e = p.AddJob(NamedJob("e"));
  std::vector<std::vector<size_t>> rounds = Runtime::JobRounds(p);
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[0], (std::vector<size_t>{a, e}));
  EXPECT_EQ(rounds[1], (std::vector<size_t>{b, c}));
  EXPECT_EQ(rounds[2], (std::vector<size_t>{d}));
}

TEST(RuntimeTest, JobRoundsOfEmptyProgram) {
  Program p;
  EXPECT_TRUE(Runtime::JobRounds(p).empty());
}

// ---- Concurrent execution --------------------------------------------------

// A mapper that, on its first fact, announces itself and then waits until
// `expected` map tasks across the program are running. If the runtime
// executed round jobs sequentially this would stall until the fallback
// deadline, and the concurrency assertion below would fail instead of
// hanging the suite.
class GateMapper : public Mapper {
 public:
  GateMapper(std::atomic<int>* started, int expected)
      : started_(started), expected_(expected) {}
  void Map(size_t, RowView fact, uint64_t,
           Emitter* emitter) override {
    if (!announced_) {
      announced_ = true;
      started_->fetch_add(1);
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (started_->load() < expected_ &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    emitter->Emit(Tuple{fact[0]}, /*tag=*/0, /*aux=*/0, /*wire_bytes=*/4.0);
  }

 private:
  std::atomic<int>* started_;
  int expected_;
  bool announced_ = false;
};

class PassKeyReducer : public Reducer {
 public:
  void Reduce(TupleView key, const MessageGroup&,
              ReduceEmitter* emitter) override {
    emitter->Emit(0, Tuple{key[0]});
  }
};

JobSpec GateJob(const std::string& in, const std::string& out,
                std::atomic<int>* started, int expected) {
  JobSpec spec;
  spec.name = "gate-" + out;
  spec.inputs.push_back({in});
  JobOutput o;
  o.dataset = out;
  o.arity = 1;
  spec.outputs.push_back(o);
  spec.mapper_factory = [started, expected] {
    return std::make_unique<GateMapper>(started, expected);
  };
  spec.reducer_factory = [] { return std::make_unique<PassKeyReducer>(); };
  return spec;
}

TEST(RuntimeTest, IndependentJobsOfARoundRunConcurrently) {
  Database db;
  db.Put(MakeRelation("In", 1, {{1}, {2}, {3}}));
  // Two independent jobs whose mappers block until both are running: only
  // a concurrent runtime lets both gates open promptly.
  std::atomic<int> started{0};
  Program program;
  program.AddJob(GateJob("In", "OutA", &started, 2));
  program.AddJob(GateJob("In", "OutB", &started, 2));

  Scheduler scheduler(4);
  Engine engine(cost::ClusterConfig{}, &scheduler);
  Runtime runtime(&engine);
  auto stats = runtime.Execute(program, &db);
  ASSERT_OK(stats);

  ASSERT_EQ(stats->round_stats.size(), 1u);
  EXPECT_EQ(stats->round_stats[0].jobs.size(), 2u);
  EXPECT_EQ(stats->round_stats[0].max_concurrent, 2);
  EXPECT_EQ(stats->MaxConcurrentJobs(), 2);
  EXPECT_EQ(db.Get("OutA").value()->size(), 3u);
  EXPECT_EQ(db.Get("OutB").value()->size(), 3u);
}

TEST(RuntimeTest, FailingJobSurfacesItsStatus) {
  Database db;
  db.Put(MakeRelation("In", 1, {{1}}));
  Program program;
  std::atomic<int> started{0};
  program.AddJob(GateJob("In", "OutA", &started, 1));
  program.AddJob(GateJob("Missing", "OutB", &started, 1));  // bad input
  Engine engine(cost::ClusterConfig{});
  auto stats = Runtime(&engine).Execute(program, &db);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
  // The failing round committed nothing.
  EXPECT_FALSE(db.Contains("OutA"));
}

// ---- PAR plans under the round scheduler ------------------------------------

TEST(RuntimeTest, ParPlanHasMultiJobFirstRound) {
  auto w = data::MakeA(1, SmallData());
  ASSERT_OK(w);
  plan::PlannerOptions opts;
  opts.strategy = plan::Strategy::kPar;
  cost::ClusterConfig config = TestCluster();
  plan::Planner planner(config, opts);
  Engine engine(config);
  Database db = w->db;
  auto result = plan::ExecuteAndVerify(w->query, planner, &engine, &db);
  ASSERT_OK(result);
  // A1 under PAR: 4 independent MSJ jobs in round 1, one EVAL in round 2.
  EXPECT_EQ(result->metrics.rounds, 2);
  EXPECT_EQ(result->metrics.max_jobs_per_round, 4);
  ASSERT_EQ(result->stats.round_stats.size(), 2u);
  EXPECT_EQ(result->stats.round_stats[0].jobs.size(), 4u);
  EXPECT_EQ(result->stats.round_stats[1].jobs.size(), 1u);
  EXPECT_GT(result->metrics.wall_ms, 0.0);
}

// ---- Determinism across pool sizes ------------------------------------------

// Executes workload `w` under `strategy` with a dedicated scheduler of
// `threads` workers; returns the output relations and metrics.
// `morsel_rows` != 0 shrinks the morsel size (1 = every row its own
// morsel — maximal interleaving and steal opportunity).
struct RunOutput {
  std::vector<std::vector<Tuple>> outputs;  // per subquery, tuple order
  plan::Metrics metrics;
};

RunOutput RunWithThreads(const data::Workload& w, plan::Strategy strategy,
                         size_t threads, ops::OpOptions op = ops::OpOptions{},
                         size_t morsel_rows = 0) {
  plan::PlannerOptions opts;
  opts.strategy = strategy;
  opts.sample_size = 64;
  opts.op = op;
  cost::ClusterConfig config = TestCluster();
  plan::Planner planner(config, opts);
  Scheduler scheduler(threads);
  SchedOptions sched_options = SchedOptions::FromEnv();
  if (morsel_rows != 0) sched_options.morsel_rows = morsel_rows;
  Engine engine(config, &scheduler, sched_options);
  auto plan = planner.Plan(w.query, w.db);
  EXPECT_TRUE(plan.ok()) << plan.status();
  Database outputs;
  auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, w.db, &outputs);
  EXPECT_TRUE(result.ok()) << result.status();
  RunOutput out;
  out.metrics = result->metrics;
  for (const auto& q : w.query.subqueries()) {
    out.outputs.push_back(outputs.Get(q.output()).value()->ToTuples());
  }
  return out;
}

TEST(RuntimeTest, ByteIdenticalAcrossPoolSizes) {
  for (plan::Strategy strategy :
       {plan::Strategy::kPar, plan::Strategy::kGreedy}) {
    auto w = data::MakeA(1, SmallData());
    ASSERT_OK(w);
    RunOutput one = RunWithThreads(*w, strategy, 1);
    RunOutput two = RunWithThreads(*w, strategy, 2);
    RunOutput eight = RunWithThreads(*w, strategy, 8);
    // Byte-identical outputs: same tuples in the same order, not just the
    // same set.
    EXPECT_EQ(one.outputs, two.outputs);
    EXPECT_EQ(one.outputs, eight.outputs);
    // Identical modeled metrics, bit for bit.
    EXPECT_EQ(one.metrics.communication_mb, two.metrics.communication_mb);
    EXPECT_EQ(one.metrics.communication_mb, eight.metrics.communication_mb);
    EXPECT_EQ(one.metrics.net_time, eight.metrics.net_time);
    EXPECT_EQ(one.metrics.total_time, eight.metrics.total_time);
    EXPECT_EQ(one.metrics.hdfs_read_mb, eight.metrics.hdfs_read_mb);
  }
}

// The flat shuffle representation (DESIGN.md §3) must stay byte-identical
// across pool sizes under both packing modes — each takes its own path
// through AddTaskOutput (grouped, raw emission order).
TEST(RuntimeTest, ByteIdenticalAcrossPoolSizesForAllShuffleModes) {
  auto w = data::MakeA(1, SmallData());
  ASSERT_OK(w);
  for (bool pack : {true, false}) {
    ops::OpOptions op;
    op.pack_messages = pack;
    RunOutput one = RunWithThreads(*w, plan::Strategy::kGreedy, 1, op);
    RunOutput eight = RunWithThreads(*w, plan::Strategy::kGreedy, 8, op);
    EXPECT_EQ(one.outputs, eight.outputs) << "pack=" << pack;
    EXPECT_EQ(one.metrics.communication_mb, eight.metrics.communication_mb)
        << "pack=" << pack;
    EXPECT_EQ(one.metrics.net_time, eight.metrics.net_time) << "pack=" << pack;
  }
}

// ---- Morsel-path byte-identity (DESIGN.md §9) -------------------------------

// Tiny morsels (every row its own morsel) at 1/2/8 workers: maximal
// chaining, interleaving, and steal opportunity (stealing is on by
// default; with one-row morsels and concurrent jobs every worker's deque
// is a constant steal target). All runs must be byte-identical to the
// default-morsel sequential reference: the scheduler only decides *when*
// morsels run — results commit by task index, and a chain preserves its
// task's emission order.
TEST(RuntimeTest, ByteIdenticalWithTinyMorselsAcrossWorkerCounts) {
  for (plan::Strategy strategy :
       {plan::Strategy::kPar, plan::Strategy::kGreedy}) {
    auto w = data::MakeA(1, SmallData());
    ASSERT_OK(w);
    RunOutput reference = RunWithThreads(*w, strategy, 1);
    for (size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
      RunOutput tiny = RunWithThreads(*w, strategy, workers, ops::OpOptions{},
                                      /*morsel_rows=*/1);
      EXPECT_EQ(reference.outputs, tiny.outputs) << "workers=" << workers;
      EXPECT_EQ(reference.metrics.communication_mb,
                tiny.metrics.communication_mb)
          << "workers=" << workers;
      EXPECT_EQ(reference.metrics.net_time, tiny.metrics.net_time)
          << "workers=" << workers;
      EXPECT_EQ(reference.metrics.total_time, tiny.metrics.total_time)
          << "workers=" << workers;
    }
  }
}

// Both packing modes again, this time on the tiny-morsel path: per-task
// packing happens inside a chain, so the wire bytes must not depend on
// how finely the scan was chopped.
TEST(RuntimeTest, ByteIdenticalWithTinyMorselsForAllShuffleModes) {
  auto w = data::MakeA(1, SmallData());
  ASSERT_OK(w);
  for (bool pack : {true, false}) {
    ops::OpOptions op;
    op.pack_messages = pack;
    RunOutput coarse = RunWithThreads(*w, plan::Strategy::kGreedy, 1, op);
    RunOutput tiny = RunWithThreads(*w, plan::Strategy::kGreedy, 8, op,
                                    /*morsel_rows=*/1);
    EXPECT_EQ(coarse.outputs, tiny.outputs) << "pack=" << pack;
    EXPECT_EQ(coarse.metrics.communication_mb, tiny.metrics.communication_mb)
        << "pack=" << pack;
    EXPECT_EQ(coarse.metrics.net_time, tiny.metrics.net_time)
        << "pack=" << pack;
  }
}

// ---- Shuffle accounting: one source of truth --------------------------------

// JobStats::shuffle_mb (measured once, map-side) is the single source of
// truth for shuffle volume; the query metrics sum the same per-job
// figures. The views must agree exactly — nothing re-measures shuffle
// bytes (the engine/runtime double-counting hazard).
TEST(RuntimeTest, ShuffleBytesHaveOneSourceOfTruth) {
  auto w = data::MakeA(1, SmallData());
  ASSERT_OK(w);
  plan::PlannerOptions opts;
  opts.strategy = plan::Strategy::kGreedy;
  opts.sample_size = 64;
  cost::ClusterConfig config = TestCluster();
  plan::Planner planner(config, opts);
  Engine engine(config);
  auto plan = planner.Plan(w->query, w->db);
  ASSERT_OK(plan);
  Database outputs;
  auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, w->db, &outputs);
  ASSERT_OK(result);
  const ProgramStats& stats = result->stats;
  ASSERT_FALSE(stats.round_stats.empty());
  double via_jobs = 0.0;
  double broadcast = 0.0;
  uint64_t messages = 0;
  for (const JobStats& j : stats.jobs) {
    via_jobs += j.shuffle_mb;
    broadcast += j.filter_broadcast_mb;
    messages += j.shuffle_messages;
  }
  // Every job is in exactly one round.
  size_t jobs_in_rounds = 0;
  for (const RoundStats& r : stats.round_stats) jobs_in_rounds += r.jobs.size();
  EXPECT_EQ(jobs_in_rounds, stats.jobs.size());
  // The executor's metrics are derived from the same per-job figures.
  EXPECT_DOUBLE_EQ(result->metrics.shuffle_mb, via_jobs);
  EXPECT_DOUBLE_EQ(result->metrics.communication_mb, via_jobs + broadcast);
  EXPECT_EQ(result->metrics.shuffle_messages, messages);
  EXPECT_GT(messages, 0u);
}

// A multi-round nested query: the jobs of each round run concurrently on
// 2 and 8 workers, and every answer and modeled metric must equal the run
// on one worker, where the jobs of a round execute one after another.
TEST(RuntimeTest, ConcurrentMatchesSequentialRuntime) {
  auto w = data::MakeC(1, SmallData());  // nested query: several rounds
  ASSERT_OK(w);
  RunOutput sequential = RunWithThreads(*w, plan::Strategy::kGreedySgf, 1);
  EXPECT_GT(sequential.metrics.rounds, 1);
  for (size_t workers : {size_t{2}, size_t{8}}) {
    RunOutput concurrent =
        RunWithThreads(*w, plan::Strategy::kGreedySgf, workers);
    EXPECT_EQ(concurrent.outputs, sequential.outputs) << "workers=" << workers;
    EXPECT_EQ(concurrent.metrics.communication_mb,
              sequential.metrics.communication_mb)
        << "workers=" << workers;
    EXPECT_EQ(concurrent.metrics.net_time, sequential.metrics.net_time)
        << "workers=" << workers;
    EXPECT_EQ(concurrent.metrics.total_time, sequential.metrics.total_time)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace gumbo::mr
