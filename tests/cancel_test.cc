// Tests for the fault-tolerance layer (DESIGN.md §11): cancellation
// tokens (deadline + explicit cancel + latch semantics), the seeded
// deterministic FaultInjector, task retry (fault-injected executions
// stay byte-identical to fault-free runs at every worker count; retry
// exhaustion surfaces as a typed retryable error), and the
// QueryService's deadline/cancel/shed behavior: EDF dequeueing, priority
// order, load shedding under saturation, prompt dropping of cancelled
// queued work, cache hygiene around cancelled queries, and single-flight
// planning error propagation (the leader's planner error reaches every
// coalesced follower — no hang, including through service destruction).
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/scheduler.h"
#include "data/generator.h"
#include "mr/engine.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "serve/service.h"
#include "test_util.h"

namespace gumbo {
namespace {

using ::gumbo::testing::MakeRelation;
using ::gumbo::testing::ParseSgfOrDie;
using ::gumbo::testing::SlowBlocker;

// Same shape as tests/serve_test.cc: 4-ary guard R, unary conditionals
// S, T, U, V.
Database MakeTestDb(size_t tuples = 600) {
  data::GeneratorConfig cfg;
  cfg.tuples = tuples;
  cfg.representation_scale = 1.0;
  data::Generator gen(cfg);
  Database db;
  db.Put(gen.Guard("R", 4));
  for (const char* c : {"S", "T", "U", "V"}) {
    db.Put(gen.Conditional(c, 1));
  }
  return db;
}

const char* kQueryA1 =
    "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) "
    "WHERE S(x) AND T(y) AND U(z) AND V(w);";
const char* kQuerySmall = "Z := SELECT x FROM R(x, y, z, w) WHERE S(x);";

// A tiny simulated cluster so a generated relation splits into many map
// tasks / reduce partitions — many distinct fault units per execution.
cost::ClusterConfig ManyTaskCluster() {
  cost::ClusterConfig config;
  config.split_mb = 0.002;
  config.mb_per_reducer = 0.002;
  return config;
}

// ---- CancelToken ------------------------------------------------------------

TEST(CancelTokenTest, StartsClearAndNullTokenIsUncancellable) {
  CancelToken token;
  EXPECT_OK(token.Check());
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.fired_at(), CancelToken::Clock::time_point::min());
  EXPECT_OK(CheckCancel(nullptr));
  EXPECT_OK(CheckCancel(&token));
}

TEST(CancelTokenTest, ExplicitCancelLatchesFirstReason) {
  CancelToken token;
  token.Cancel("client went away");
  EXPECT_TRUE(token.cancelled());
  const Status first = token.Check();
  EXPECT_EQ(first.code(), StatusCode::kCancelled);
  EXPECT_NE(first.message().find("client went away"), std::string::npos);
  EXPECT_NE(token.fired_at(), CancelToken::Clock::time_point::min());
  // Later cancellations are no-ops: the first reason is sticky.
  token.Cancel("second reason");
  EXPECT_EQ(token.Check().message(), first.message());
}

TEST(CancelTokenTest, PastDeadlineFailsBeforeAnyWork) {
  CancelToken token(0.0);  // deadline already in the past
  const Status s = token.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(token.cancelled());
  // Latched: every later check returns the same terminal status.
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, EarliestDeadlineWins) {
  // Tightening: a far deadline then a past one -> fails now.
  CancelToken tightened;
  tightened.SetDeadlineAfterMs(1e9);
  EXPECT_OK(tightened.Check());
  tightened.SetDeadlineAfterMs(0.0);
  EXPECT_EQ(tightened.Check().code(), StatusCode::kDeadlineExceeded);
  // Loosening is ignored: a past deadline then a far one -> still fails.
  CancelToken loosened(0.0);
  loosened.SetDeadlineAfterMs(1e9);
  EXPECT_EQ(loosened.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, ExplicitCancelStickyOverLaterDeadline) {
  CancelToken token;
  token.Cancel("stop");
  token.SetDeadlineAfterMs(0.0);  // deadline also fires...
  // ...but the already-latched kCancelled is the terminal status.
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, CancelWithStatusCarriesEscalatedFault) {
  CancelToken token;
  token.CancelWithStatus(Status::Unavailable("injected fault escalated"));
  EXPECT_EQ(token.Check().code(), StatusCode::kUnavailable);
}

// ---- FaultInjector ----------------------------------------------------------

TEST(FaultInjectorTest, DecisionsAreAPureFunctionOfTheSeed) {
  const FaultInjector a(1234, 0.3);
  const FaultInjector b(1234, 0.3);
  const FaultInjector c(99, 0.3);  // different seed
  size_t fired = 0;
  size_t diverged_from_c = 0;
  for (int site = 0; site < static_cast<int>(kNumFaultSites); ++site) {
    for (uint64_t unit = 0; unit < 40; ++unit) {
      for (uint32_t attempt = 0; attempt < 3; ++attempt) {
        const bool fa =
            a.ShouldFail(static_cast<FaultSite>(site), unit, attempt);
        EXPECT_EQ(fa,
                  b.ShouldFail(static_cast<FaultSite>(site), unit, attempt));
        if (fa) ++fired;
        if (fa != c.ShouldFail(static_cast<FaultSite>(site), unit, attempt)) {
          ++diverged_from_c;
        }
      }
    }
  }
  // ~30% of 600 decisions fire, and a different seed picks a visibly
  // different fault set.
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 600u);
  EXPECT_GT(diverged_from_c, 0u);
}

TEST(FaultInjectorTest, RateEndpointsAndCounters) {
  const FaultInjector never(7, 0.0);
  const FaultInjector always(7, 1.0);
  for (uint64_t unit = 0; unit < 50; ++unit) {
    EXPECT_FALSE(never.ShouldFail(FaultSite::kMapScan, unit, 0));
    EXPECT_TRUE(always.ShouldFail(FaultSite::kMapScan, unit, 0));
  }
  EXPECT_FALSE(never.active());
  EXPECT_TRUE(always.active());
  EXPECT_EQ(never.injected(), 0u);
  EXPECT_EQ(always.injected(), 50u);
  EXPECT_EQ(always.injected_at(FaultSite::kMapScan), 50u);
  EXPECT_EQ(always.injected_at(FaultSite::kReduceEmit), 0u);
}

TEST(FaultInjectorTest, SiteFilterRestrictsInjection) {
  const FaultInjector only_sort(7, 1.0,
                                1u << static_cast<int>(FaultSite::kShuffleSort));
  EXPECT_TRUE(only_sort.site_enabled(FaultSite::kShuffleSort));
  EXPECT_FALSE(only_sort.site_enabled(FaultSite::kMapScan));
  EXPECT_TRUE(only_sort.ShouldFail(FaultSite::kShuffleSort, 3, 0));
  EXPECT_FALSE(only_sort.ShouldFail(FaultSite::kMapScan, 3, 0));
  EXPECT_FALSE(only_sort.ShouldFail(FaultSite::kPlanner, 3, 0));
  EXPECT_EQ(only_sort.injected_at(FaultSite::kMapScan), 0u);
}

TEST(FaultInjectorTest, RetriesRerollSoModerateRatesTerminate) {
  // Every unit must find a passing attempt within the hash's reroll
  // space — the property that makes any rate < 1 terminate under retry.
  const FaultInjector faults(11, 0.5);
  for (uint64_t unit = 0; unit < 100; ++unit) {
    bool passed = false;
    for (uint32_t attempt = 0; attempt < 64 && !passed; ++attempt) {
      passed = !faults.ShouldFail(FaultSite::kMapScan, unit, attempt);
    }
    EXPECT_TRUE(passed) << "unit " << unit << " failed 64 straight attempts";
  }
}

TEST(FaultInjectorTest, InjectedFaultIsTypedRetryable) {
  const Status s = FaultInjector::InjectedFault(FaultSite::kMapScan, 7, 2);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(s.code()));
  EXPECT_NE(s.message().find("map-scan"), std::string::npos);
}

// ---- Cancellation through the execution stack -------------------------------

// Plans and executes `query` on a dedicated scheduler with the given
// context pieces; returns the executor result.
Result<plan::ExecutionResult> RunOnSnapshot(
    const sgf::SgfQuery& query, const Database& db, Database* outputs,
    Scheduler* scheduler, const CancelToken* cancel = nullptr,
    const FaultInjector* faults = nullptr,
    cost::ClusterConfig cluster = cost::ClusterConfig{},
    uint32_t max_retries = 0) {
  plan::Planner planner(cluster, plan::PlannerOptions{});
  GUMBO_ASSIGN_OR_RETURN(plan::QueryPlan plan, planner.Plan(query, db));
  SchedOptions sched_options = SchedOptions::FromEnv();
  if (max_retries != 0) sched_options.max_task_retries = max_retries;
  mr::Engine engine(cluster, scheduler, sched_options);
  SchedContext ctx;
  ctx.scheduler = scheduler;
  ctx.cancel = cancel;
  ctx.faults = faults;
  return plan::ExecutePlanOnSnapshot(plan, &engine, db, outputs, {ctx});
}

TEST(ExecutionCancelTest, PastDeadlineRunsZeroMorsels) {
  const Database db = MakeTestDb(400);
  const sgf::SgfQuery query = ParseSgfOrDie(kQueryA1);
  Scheduler scheduler(2);
  CancelToken expired(0.0);
  const uint64_t morsels_before = scheduler.stats().morsels;
  Database outputs;
  auto result = RunOnSnapshot(query, db, &outputs, &scheduler, &expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The round-start check fired before any task was scheduled: no
  // execution morsels ran and nothing was committed anywhere.
  EXPECT_EQ(scheduler.stats().morsels, morsels_before);
  EXPECT_EQ(outputs.size(), 0u);
}

TEST(ExecutionCancelTest, CancelledRunCommitsNothingToTheDatabase) {
  // Committing into the database the plan reads (outputs == &base): a
  // cancelled execution must leave the database exactly as it was — no
  // outputs, no intermediates.
  Database db = MakeTestDb(400);
  const size_t base_relations = db.size();
  const sgf::SgfQuery query = ParseSgfOrDie(kQueryA1);
  cost::ClusterConfig cluster;
  plan::Planner planner(cluster, plan::PlannerOptions{});
  auto plan = planner.Plan(query, db);
  ASSERT_OK(plan);
  Scheduler scheduler(2);
  mr::Engine engine(cluster, &scheduler);
  CancelToken cancelled;
  cancelled.Cancel("caller gave up");
  SchedContext ctx;
  ctx.scheduler = &scheduler;
  ctx.cancel = &cancelled;
  auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, db, &db, {ctx});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(db.size(), base_relations);
  EXPECT_FALSE(db.Contains("Z"));
}

// Copies every fact of its unary inputs into one unary output.
class CopyMapper : public mr::Mapper {
 public:
  void Map(size_t, RowView fact, uint64_t, mr::Emitter* emitter) override {
    emitter->Emit(Tuple{fact[0]}, /*tag=*/0, /*aux=*/0, /*wire_bytes=*/4.0);
  }
};

class CopyReducer : public mr::Reducer {
 public:
  void Reduce(TupleView key, const mr::MessageGroup&,
              mr::ReduceEmitter* emitter) override {
    emitter->Emit(0, Tuple{key[0]});
  }
};

mr::JobSpec CopyJob(const std::vector<std::string>& inputs,
                    const std::string& output) {
  mr::JobSpec spec;
  spec.name = "copy-" + output;
  for (const std::string& in : inputs) spec.inputs.push_back({in});
  mr::JobOutput out;
  out.dataset = output;
  out.arity = 1;
  spec.outputs.push_back(out);
  spec.mapper_factory = [] { return std::make_unique<CopyMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<CopyReducer>(); };
  return spec;
}

TEST(ExecutionCancelTest, LaterRoundFailureCommitsNothingToTheDatabase) {
  // Round 1 succeeds and produces Mid; round 2 reads a relation that does
  // not exist. Committing into the database the plan reads, the failed
  // run must not leave round 1's output behind, nor bump an epoch.
  Database db;
  db.Put(MakeRelation("In", 1, {{1}, {2}, {3}}));
  const uint64_t epoch = db.stats_epoch();
  plan::QueryPlan plan;
  const size_t first = plan.program.AddJob(CopyJob({"In"}, "Mid"));
  plan.program.AddJob(CopyJob({"Mid", "Missing"}, "Out"), {first});
  plan.outputs = {"Mid", "Out"};
  ASSERT_EQ(plan.program.Rounds(), 2);
  mr::Engine engine(cost::ClusterConfig{});
  auto result = plan::ExecutePlanOnSnapshot(plan, &engine, db, &db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_TRUE(db.Contains("In"));
  EXPECT_FALSE(db.Contains("Mid"));
  EXPECT_EQ(db.stats_epoch(), epoch);
}

TEST(ExecutionCancelTest, MidFlightCancelNeverCorruptsResults) {
  // Race a cancel against a real execution: whichever way the race
  // lands, the outcome is clean — either kCancelled with nothing
  // committed, or a complete result identical to an undisturbed run.
  const Database db = MakeTestDb(600);
  const sgf::SgfQuery query = ParseSgfOrDie(kQueryA1);
  Scheduler scheduler(4);
  Database reference;
  ASSERT_OK(RunOnSnapshot(query, db, &reference, &scheduler));
  const Relation* ref_z = reference.Get("Z").value();

  for (int delay_us : {0, 50, 200, 1000}) {
    CancelToken token;
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      token.Cancel("race");
    });
    Database outputs;
    auto result = RunOnSnapshot(query, db, &outputs, &scheduler, &token);
    canceller.join();
    if (result.ok()) {
      const Relation* got = outputs.Get("Z").value();
      EXPECT_TRUE(got->words() == ref_z->words());
      EXPECT_TRUE(got->fingerprints() == ref_z->fingerprints());
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
      EXPECT_EQ(outputs.size(), 0u);
    }
  }
}

// ---- Task retry: byte identity and exhaustion -------------------------------

TEST(RetryTest, FaultInjectedRunsStayByteIdenticalAcrossWorkerCounts) {
  const Database db = MakeTestDb(600);
  const sgf::SgfQuery query = ParseSgfOrDie(kQueryA1);
  const cost::ClusterConfig cluster = ManyTaskCluster();

  Scheduler ref_scheduler(2);
  Database reference;
  ASSERT_OK(RunOnSnapshot(query, db, &reference, &ref_scheduler, nullptr,
                          nullptr, cluster));
  const Relation* ref_z = reference.Get("Z").value();

  const uint32_t exec_sites =
      (1u << static_cast<int>(FaultSite::kMapScan)) |
      (1u << static_cast<int>(FaultSite::kShuffleSort)) |
      (1u << static_cast<int>(FaultSite::kReduceEmit));
  for (size_t workers : {1u, 2u, 8u}) {
    const FaultInjector faults(0xfa11ULL + workers, 0.25, exec_sites);
    Scheduler scheduler(workers);
    Database outputs;
    // A generous retry budget: at rate 0.25 a unit's exhaustion chance
    // is 0.25^11 ~ 2e-7, so the fixed seeds can never strand the test
    // (exhaustion itself is pinned by ExhaustedRetriesEscalate below).
    auto result = RunOnSnapshot(query, db, &outputs, &scheduler, nullptr,
                                &faults, cluster, /*max_retries=*/10);
    ASSERT_OK(result) << "workers=" << workers;
    // Faults really fired and were really retried...
    EXPECT_GT(faults.injected(), 0u) << "workers=" << workers;
    EXPECT_GT(result->metrics.task_retries, 0u) << "workers=" << workers;
    EXPECT_EQ(result->metrics.faults_injected, faults.injected());
    // ...and left no trace in the output bytes.
    const Relation* got = outputs.Get("Z").value();
    EXPECT_TRUE(got->words() == ref_z->words()) << "workers=" << workers;
    EXPECT_TRUE(got->fingerprints() == ref_z->fingerprints())
        << "workers=" << workers;
  }
}

TEST(RetryTest, ExhaustedRetriesEscalateToDeterministicTypedError) {
  const Database db = MakeTestDb(300);
  const sgf::SgfQuery query = ParseSgfOrDie(kQuerySmall);
  for (FaultSite site : {FaultSite::kMapScan, FaultSite::kShuffleSort,
                         FaultSite::kReduceEmit}) {
    // rate 1.0: every attempt of every unit at this site fails, so the
    // retry budget must exhaust and escalate.
    const FaultInjector faults(3, 1.0, 1u << static_cast<int>(site));
    Status first = Status::Ok();
    for (int run = 0; run < 2; ++run) {
      Scheduler scheduler(2);
      Database outputs;
      auto result =
          RunOnSnapshot(query, db, &outputs, &scheduler, nullptr, &faults);
      ASSERT_FALSE(result.ok()) << FaultSiteName(site);
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
          << FaultSiteName(site);
      EXPECT_EQ(outputs.size(), 0u);
      if (run == 0) {
        first = result.status();
      } else {
        // Deterministic: the second run fails with the same code.
        EXPECT_EQ(result.status().code(), first.code());
      }
    }
    EXPECT_GT(faults.injected_at(site), 0u);
  }
}

// ---- QueryService: deadlines, shedding, EDF, cancellation -------------------

TEST(ServiceDeadlineTest, ExpiredTokenFailsFastAndDoesNotPoisonTheCache) {
  Database db = MakeTestDb(300);
  const sgf::SgfQuery query = ParseSgfOrDie(kQueryA1);
  serve::ServiceOptions opts;
  opts.max_inflight = 2;
  serve::QueryService service(&db, opts);

  // Prime the cache with a clean run.
  serve::Response warm = service.Run(query);
  ASSERT_OK(warm.status);
  EXPECT_FALSE(warm.metrics.plan_cache_hit);

  // An already-expired deadline: the query is answered without planning
  // or executing anything.
  CancelToken expired(0.0);
  serve::QueryOptions qo;
  qo.cancel = &expired;
  serve::Response dead = service.Run(query, qo);
  EXPECT_EQ(dead.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(dead.outputs.size(), 0u);

  // An explicitly pre-cancelled query likewise.
  CancelToken cancelled;
  cancelled.Cancel("never mind");
  serve::QueryOptions qc;
  qc.cancel = &cancelled;
  serve::Response gone = service.Run(query, qc);
  EXPECT_EQ(gone.status.code(), StatusCode::kCancelled);

  // The cached plan AND cached result survived both: the next clean run
  // is a pure result-cache hit (DESIGN.md §12 — it short-circuits ahead
  // of the plan path) with bytes identical to the first.
  serve::Response again = service.Run(query);
  ASSERT_OK(again.status);
  EXPECT_TRUE(again.metrics.result_cache_hit);
  const Relation* a = warm.outputs.Get("Z").value();
  const Relation* b = again.outputs.Get("Z").value();
  EXPECT_TRUE(a->words() == b->words());
  EXPECT_TRUE(a->fingerprints() == b->fingerprints());

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 2u);
}

TEST(ServiceDeadlineTest, DefaultDeadlineComposesToTheStricter) {
  Database db = MakeTestDb(300);
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  opts.default_deadline_ms = 0.0001;  // effectively already expired
  serve::QueryService service(&db, opts);
  // A generous per-query deadline cannot loosen the service default.
  serve::QueryOptions qo;
  qo.deadline_ms = 1e9;
  serve::Response resp = service.Run(ParseSgfOrDie(kQuerySmall), qo);
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.Stats().deadline_exceeded, 1u);
}

TEST(ServiceShedTest, SaturationShedsLowPriorityNotTheBacklog) {
  Database db = MakeTestDb(300);
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  opts.shed_watermark = 1;       // saturated as soon as anything is in
  serve::QueryService service(&db, opts);

  // Three slow queries: the worker planning the first holds the other
  // two in the backlog for tens of ms.
  const sgf::SgfQuery blocker = SlowBlocker();
  std::vector<std::future<serve::Response>> normals;
  for (int i = 0; i < 3; ++i) normals.push_back(service.Submit(blocker));

  // A kLow submission under saturation is shed synchronously...
  serve::QueryOptions low;
  low.priority = SchedPriority::kLow;
  serve::Response shed = service.Run(ParseSgfOrDie(kQuerySmall), low);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);

  // ...while the queued kNormal work all completes.
  for (auto& f : normals) EXPECT_OK(f.get().status);
  EXPECT_EQ(service.Stats().shed, 1u);

  // Off saturation the same kLow query is admitted and runs.
  serve::Response idle = service.Run(ParseSgfOrDie(kQuerySmall), low);
  EXPECT_OK(idle.status);
  EXPECT_EQ(service.Stats().shed, 1u);
}

TEST(ServiceEdfTest, EarlierDeadlineJumpsTheQueue) {
  Database db = MakeTestDb(300);
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);

  // Occupy the single worker, then queue A (loose deadline) before B
  // (tight deadline). EDF must dequeue B first, which shows up as B
  // spending less time in the admission queue than the earlier-queued A.
  // A and B are queued only once the worker has taken the blocker: a
  // still-queued blocker has no deadline, sorts last under EDF, and would
  // rightly let A run first.
  auto blocker = service.Submit(SlowBlocker());
  while (service.Stats().peak_inflight < 1) std::this_thread::yield();
  serve::QueryOptions loose;
  loose.deadline_ms = 2e6;
  auto a = service.Submit(ParseSgfOrDie(kQuerySmall), loose);
  serve::QueryOptions tight;
  tight.deadline_ms = 1e6;
  auto b = service.Submit(ParseSgfOrDie(kQuerySmall), tight);

  ASSERT_OK(blocker.get().status);
  serve::Response ra = a.get();
  serve::Response rb = b.get();
  ASSERT_OK(ra.status);
  ASSERT_OK(rb.status);
  EXPECT_LT(rb.metrics.queue_ms, ra.metrics.queue_ms);
}

// A small query is raised to kHigh only when the caller left it at
// kNormal: a 2-atom kLow query queued behind an earlier 5-atom kNormal
// one leaves the backlog after it, so it spends longer queued.
TEST(ServicePriorityTest, SmallLowPriorityQueryStaysBehindNormalWork) {
  Database db = MakeTestDb(300);
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);

  auto blocker = service.Submit(SlowBlocker());
  while (service.Stats().peak_inflight < 1) std::this_thread::yield();
  auto normal = service.Submit(ParseSgfOrDie(kQueryA1));
  serve::QueryOptions low;
  low.priority = SchedPriority::kLow;
  auto small = service.Submit(ParseSgfOrDie(kQuerySmall), low);

  ASSERT_OK(blocker.get().status);
  const serve::Response rn = normal.get();
  const serve::Response rs = small.get();
  ASSERT_OK(rn.status);
  ASSERT_OK(rs.status);
  EXPECT_GT(rs.metrics.queue_ms, rn.metrics.queue_ms);
}

TEST(ServiceCancelTest, CancelledQueuedQueryDropsPromptly) {
  Database db = MakeTestDb(300);
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);

  auto blocker = service.Submit(SlowBlocker());
  CancelToken token;
  serve::QueryOptions qo;
  qo.cancel = &token;
  auto queued = service.Submit(ParseSgfOrDie(kQueryA1), qo);
  token.Cancel("changed my mind");

  // The cancelled query is answered without executing (it was still
  // queued behind the blocker when the token latched).
  serve::Response resp = queued.get();
  EXPECT_EQ(resp.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(resp.outputs.size(), 0u);
  ASSERT_OK(blocker.get().status);

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_GE(stats.mean_cancel_ms, 0.0);
}

// ---- Single-flight planning under leader errors -----------------------------

TEST(ServiceSingleFlightTest, LeaderPlannerErrorReachesEveryFollower) {
  Database db = MakeTestDb(100);
  // Parses fine, fails at planning: the guard relation does not exist.
  const sgf::SgfQuery bad = ParseSgfOrDie(
      "Z := SELECT (x, y, z, w) FROM Rmissing(x, y, z, w) WHERE S(x);");
  serve::ServiceOptions opts;
  opts.max_inflight = 4;
  opts.plan_cache = false;  // coalescing still applies with the cache off
  serve::QueryService service(&db, opts);

  constexpr int kN = 8;
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < kN; ++i) futures.push_back(service.Submit(bad));
  // Every coalesced follower observes the leader's planner error — the
  // futures all resolve (no hang) with the same error status.
  for (auto& f : futures) {
    const serve::Response resp = f.get();
    ASSERT_FALSE(resp.ok());
    EXPECT_NE(resp.status.code(), StatusCode::kInternal);
  }
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, static_cast<uint64_t>(kN));
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ServiceSingleFlightTest, DestructionDrainsPendingPlannerErrors) {
  // The destructor-ordering regression: a backlog of queries whose
  // planning fails must all be answered through service teardown — the
  // single-flight registry's promises resolve before the workers join.
  Database db = MakeTestDb(100);
  const sgf::SgfQuery bad = ParseSgfOrDie(
      "Z := SELECT (x, y, z, w) FROM Rmissing(x, y, z, w) WHERE S(x);");
  std::vector<std::future<serve::Response>> futures;
  {
    serve::ServiceOptions opts;
    opts.max_inflight = 2;
    opts.plan_cache = false;
    serve::QueryService service(&db, opts);
    for (int i = 0; i < 6; ++i) futures.push_back(service.Submit(bad));
    // Destroyed with the backlog still full.
  }
  for (auto& f : futures) {
    EXPECT_FALSE(f.get().ok());  // answered, not abandoned
  }
}

// ---- Chaos through the service ----------------------------------------------

TEST(ServiceChaosTest, InjectedFaultsAreRetriedInvisiblyOrFailTyped) {
  Database db = MakeTestDb(400);
  const sgf::SgfQuery query = ParseSgfOrDie(kQueryA1);

  // Fault-free reference.
  serve::ServiceOptions clean_opts;
  clean_opts.max_inflight = 2;
  serve::QueryService clean(&db, clean_opts);
  serve::Response ref = clean.Run(query);
  ASSERT_OK(ref.status);
  const Relation* ref_z = ref.outputs.Get("Z").value();

  // All five sites armed, including planner + cache. The seed is chosen
  // so faults fire but no (site, unit) exhausts the default retry
  // budget of 3 — re-running the same query replays the same decision
  // triples, so one exhausting unit would fail all ten runs.
  const FaultInjector faults(1, 0.2);
  serve::ServiceOptions opts;
  opts.max_inflight = 2;
  opts.faults = &faults;
  serve::QueryService service(&db, opts);
  size_t ok = 0;
  for (int i = 0; i < 10; ++i) {
    serve::Response resp = service.Run(query);
    if (resp.ok()) {
      ++ok;
      const Relation* got = resp.outputs.Get("Z").value();
      EXPECT_TRUE(got->words() == ref_z->words());
      EXPECT_TRUE(got->fingerprints() == ref_z->fingerprints());
    } else {
      // Only the typed clean statuses are acceptable under chaos.
      EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable)
          << resp.status.ToString();
    }
  }
  EXPECT_GT(ok, 0u);
  const serve::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_GT(stats.task_retries, 0u);
}

}  // namespace
}  // namespace gumbo
