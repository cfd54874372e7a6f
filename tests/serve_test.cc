// Tests for the serving layer (DESIGN.md §8): canonical signatures,
// database stats epochs, snapshot execution, the query cache's plan
// entries (hit / miss / alpha-renaming / invalidation / eviction) and
// result entries (pure hits, delta passes), and the QueryService's
// admission queue — including the central determinism claim: N-thread
// concurrent submission produces results byte-identical to sequential
// solo execution.
#include <cstdlib>
#include <functional>
#include <future>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "data/generator.h"
#include "mr/engine.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "serve/delta.h"
#include "serve/service.h"
#include "serve/signature.h"
#include "sgf/naive_eval.h"
#include "test_util.h"

namespace gumbo {
namespace {

using ::gumbo::testing::MakeRelation;
using ::gumbo::testing::ParseSgfOrDie;
using ::gumbo::testing::SlowBlocker;

// A small generated database serving every query in this file: 4-ary
// guard R, unary conditionals S, T, U, V.
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
const char* kQueryA3 =
    "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) "
    "WHERE S(x) AND T(x) AND U(x) AND V(x);";
// kQueryA1 with every variable consistently renamed.
const char* kQueryA1Renamed =
    "Z := SELECT (a, b, c, d) FROM R(a, b, c, d) "
    "WHERE S(a) AND T(b) AND U(c) AND V(d);";
const char* kQuerySmall = "Z := SELECT x FROM R(x, y, z, w) WHERE S(x);";
const char* kQueryNested =
    "Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x) AND T(y);\n"
    "Z2 := SELECT x FROM R(x, y, z, w) WHERE Z1(x) OR NOT U(y);";

// ---- Signatures -------------------------------------------------------------

TEST(SignatureTest, AlphaRenamedQueriesShareSignature) {
  EXPECT_EQ(serve::CanonicalQuerySignature(ParseSgfOrDie(kQueryA1)),
            serve::CanonicalQuerySignature(ParseSgfOrDie(kQueryA1Renamed)));
}

TEST(SignatureTest, StructureIsSignificant) {
  const std::string a1 = serve::CanonicalQuerySignature(ParseSgfOrDie(kQueryA1));
  // Same relations, different join structure (all atoms keyed on x).
  EXPECT_NE(a1, serve::CanonicalQuerySignature(ParseSgfOrDie(kQueryA3)));
  // Different output name.
  EXPECT_NE(a1, serve::CanonicalQuerySignature(ParseSgfOrDie(
                    "W := SELECT (x, y, z, w) FROM R(x, y, z, w) "
                    "WHERE S(x) AND T(y) AND U(z) AND V(w);")));
  // Different condition over the same atoms.
  EXPECT_NE(a1, serve::CanonicalQuerySignature(ParseSgfOrDie(
                    "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) "
                    "WHERE S(x) AND T(y) AND U(z) OR V(w);")));
}

TEST(SignatureTest, PlannerOptionsChangeTheCacheKey) {
  const sgf::SgfQuery q = ParseSgfOrDie(kQueryA1);
  plan::PlannerOptions greedy;
  greedy.strategy = plan::Strategy::kGreedy;
  plan::PlannerOptions par;
  par.strategy = plan::Strategy::kPar;
  EXPECT_NE(serve::PlanCacheKey(q, greedy), serve::PlanCacheKey(q, par));
  EXPECT_EQ(serve::PlanCacheKey(q, greedy),
            serve::PlanCacheKey(ParseSgfOrDie(kQueryA1Renamed), greedy));
}

// ---- Stats epochs -----------------------------------------------------------

TEST(DatabaseEpochTest, MutationsBumpReadsDoNot) {
  Database db = MakeTestDb(50);
  const uint64_t e0 = db.stats_epoch();
  const uint64_t r0 = db.StatsEpochOf("R");

  ASSERT_OK(db.Get("R"));
  EXPECT_TRUE(db.Contains("S"));
  EXPECT_EQ(db.stats_epoch(), e0);
  EXPECT_EQ(db.StatsEpochOf("R"), r0);

  Tuple t;
  for (int i = 0; i < 4; ++i) t.PushBack(Value::Int(i));
  ASSERT_OK(db.AddFact("R", t));
  EXPECT_GT(db.stats_epoch(), e0);
  EXPECT_GT(db.StatsEpochOf("R"), r0);

  const uint64_t e1 = db.stats_epoch();
  EXPECT_TRUE(db.Erase("V"));
  EXPECT_GT(db.StatsEpochOf("V"), e1);

  ASSERT_OK(db.Create("W", 2));
  EXPECT_GT(db.StatsEpochOf("W"), 0u);
}

// Regression (DESIGN.md §12): GetMutable used to bump the epoch
// unconditionally — taking the handle counted as a write even if the
// caller never touched the relation, so every cached plan and result
// whose query read that relation was invalidated for nothing. The loan
// protocol bumps on *observed* mutation only: GetMutable snapshots the
// relation's version counters and the next settlement point (any
// mutating Database entry point, or an explicit SettleLoans) classifies
// what actually happened.
TEST(DatabaseEpochTest, MutableHandleBumpsOnlyOnActualWrite) {
  Database db = MakeTestDb(50);

  // Taking the handle and walking away is a read: no bump, ever.
  const uint64_t s0 = db.StatsEpochOf("S");
  ASSERT_OK(db.GetMutable("S"));
  db.SettleLoans();
  EXPECT_EQ(db.StatsEpochOf("S"), s0);

  // Appending through the handle is an insert-only write: the epoch
  // bumps and the watermark classifies the move as delta-eligible.
  Relation* s = db.GetMutable("S").value();
  const size_t rows_before = s->size();
  Tuple t;
  t.PushBack(Value::Int(999));
  ASSERT_OK(s->Add(t));
  db.SettleLoans();
  EXPECT_GT(db.StatsEpochOf("S"), s0);
  EXPECT_TRUE(db.InsertOnlySince("S", s0));
  ASSERT_TRUE(db.RowsAtEpoch("S", s0).has_value());
  EXPECT_EQ(*db.RowsAtEpoch("S", s0), rows_before);

  // Reordering in place is a destructive write: the epoch bumps and the
  // insert-only classification is revoked for older epochs.
  const uint64_t t0 = db.StatsEpochOf("T");
  Relation* tr = db.GetMutable("T").value();
  tr->SortAndDedupe();
  db.SettleLoans();
  EXPECT_GT(db.StatsEpochOf("T"), t0);
  EXPECT_FALSE(db.InsertOnlySince("T", t0));

  // AddFact (the delta write API) is insert-only by construction.
  const uint64_t u0 = db.StatsEpochOf("U");
  const size_t u_rows = db.Get("U").value()->size();
  Tuple f;
  f.PushBack(Value::Int(1000));
  ASSERT_OK(db.AddFact("U", f));
  EXPECT_GT(db.StatsEpochOf("U"), u0);
  EXPECT_TRUE(db.InsertOnlySince("U", u0));
  EXPECT_EQ(*db.RowsAtEpoch("U", u0), u_rows);

  // Put and Erase are destructive moves.
  const uint64_t v0 = db.StatsEpochOf("V");
  db.Put(Relation("V", 1));
  EXPECT_FALSE(db.InsertOnlySince("V", v0));
  EXPECT_GT(db.StatsEpochOf("V"), v0);
}

// ---- Overlays + snapshot execution ------------------------------------------

TEST(OverlayTest, OverlayReadsBaseWritesLocally) {
  Database base = MakeTestDb(50);
  const uint64_t base_epoch = base.stats_epoch();

  Database overlay(&base);
  ASSERT_OK(overlay.Get("R"));
  EXPECT_TRUE(overlay.Contains("S"));
  EXPECT_EQ(overlay.size(), 0u);  // enumeration is local-only

  // Writes shadow, never touch the base.
  Relation mine("R", 2);
  overlay.Put(std::move(mine));
  EXPECT_EQ(overlay.Get("R").value()->arity(), 2u);
  EXPECT_EQ(base.Get("R").value()->arity(), 4u);
  EXPECT_EQ(base.stats_epoch(), base_epoch);

  // Create refuses to shadow an existing base relation.
  EXPECT_FALSE(overlay.Create("S", 3).ok());
  // GetMutable never reaches into the base.
  EXPECT_FALSE(overlay.GetMutable("S").ok());
  // Epochs of untouched base relations are visible through the overlay.
  EXPECT_EQ(overlay.StatsEpochOf("S"), base.StatsEpochOf("S"));

  // Chains (the delta pass runs a plan's overlay over a delta view over
  // the snapshot): the top level resolves Get, Contains and StatsEpochOf
  // through both levels, and a middle relation shadows the base's.
  Database middle(&base);
  middle.Put(MakeRelation("M", 1, {{1}}));
  middle.Put(MakeRelation("T", 2, {{1, 2}}));
  Database top(&middle);
  EXPECT_TRUE(top.Contains("M"));
  EXPECT_TRUE(top.Contains("R"));
  EXPECT_FALSE(top.Contains("Nope"));
  EXPECT_EQ(top.Get("M").value(), middle.Get("M").value());
  EXPECT_EQ(top.Get("T").value(), middle.Get("T").value());
  EXPECT_EQ(top.Get("T").value()->arity(), 2u);
  EXPECT_EQ(top.Get("R").value(), base.Get("R").value());
  EXPECT_FALSE(top.Get("Nope").ok());
  EXPECT_EQ(top.StatsEpochOf("M"), middle.StatsEpochOf("M"));
  EXPECT_EQ(top.StatsEpochOf("T"), middle.StatsEpochOf("T"));
  EXPECT_NE(top.StatsEpochOf("T"), base.StatsEpochOf("T"));
  EXPECT_EQ(top.StatsEpochOf("R"), base.StatsEpochOf("R"));
  EXPECT_EQ(top.StatsEpochOf("Nope"), 0u);
  EXPECT_EQ(top.size(), 0u);
  EXPECT_EQ(base.stats_epoch(), base_epoch);
}

// Every Metrics field but the two wall-clock observations (wall_ms and
// peak_concurrent_jobs), which no two runs share.
void ExpectSameMetrics(const plan::Metrics& a, const plan::Metrics& b) {
  mr::JobCounters::ForEachField([&](auto field) {
    EXPECT_EQ(a.*field, b.*field);
  });
  EXPECT_EQ(a.net_time, b.net_time);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.communication_mb, b.communication_mb);
  EXPECT_EQ(a.filter_broadcast_mb, b.filter_broadcast_mb);
  EXPECT_EQ(a.dist_wire_mb, b.dist_wire_mb);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.max_jobs_per_round, b.max_jobs_per_round);
  EXPECT_EQ(a.plan_cache_hit, b.plan_cache_hit);
  EXPECT_EQ(a.queue_ms, b.queue_ms);
  EXPECT_EQ(a.plan_ms, b.plan_ms);
  EXPECT_EQ(a.result_cache_hit, b.result_cache_hit);
  EXPECT_EQ(a.delta_applied, b.delta_applied);
  EXPECT_EQ(a.delta_rows, b.delta_rows);
  EXPECT_EQ(a.sched_wait_ms, b.sched_wait_ms);
  EXPECT_EQ(a.sched_morsels, b.sched_morsels);
}

TEST(OverlayTest, SnapshotExecutionLeavesBaseUntouched) {
  Database base = MakeTestDb();
  const uint64_t base_epoch = base.stats_epoch();
  const size_t base_size = base.size();

  cost::ClusterConfig cluster;
  plan::Planner planner(cluster, plan::PlannerOptions{});
  const sgf::SgfQuery query = ParseSgfOrDie(kQueryA1);
  auto plan = planner.Plan(query, base);
  ASSERT_OK(plan);

  mr::Engine engine(cluster);
  Database outputs;
  auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, base, &outputs);
  ASSERT_OK(result);
  EXPECT_EQ(base.size(), base_size);
  EXPECT_EQ(base.stats_epoch(), base_epoch);
  ASSERT_OK(outputs.Get("Z"));

  // Committing into the database the plan reads (outputs == &base) adds
  // exactly the output, with the same bytes and the same metrics.
  Database committed = base;
  auto direct =
      plan::ExecutePlanOnSnapshot(*plan, &engine, committed, &committed);
  ASSERT_OK(direct);
  EXPECT_EQ(committed.size(), base_size + 1);
  const Relation* separate = outputs.Get("Z").value();
  const Relation* in_place = committed.Get("Z").value();
  EXPECT_EQ(separate->words(), in_place->words());
  EXPECT_EQ(separate->fingerprints(), in_place->fingerprints());
  ExpectSameMetrics(result->metrics, direct->metrics);
}

// ---- Plan cache -------------------------------------------------------------

TEST(PlanCacheTest, HitOnIdenticalAndAlphaRenamedQueries) {
  Database db = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  // These tests pin *plan*-cache behavior: the result cache sits in front
  // of it and would short-circuit repeat submissions before they reach
  // the plan path, so it is switched off here (and in the other
  // PlanCacheTest cases). ResultCacheTest below covers the front layer.
  opts.result_cache = false;
  serve::QueryService service(&db, opts);

  serve::Response first = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(first.status);
  EXPECT_FALSE(first.metrics.plan_cache_hit);
  EXPECT_GT(first.metrics.plan_ms, 0.0);

  serve::Response second = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(second.status);
  EXPECT_TRUE(second.metrics.plan_cache_hit);
  EXPECT_EQ(second.metrics.plan_ms, 0.0);

  serve::Response renamed = service.Run(ParseSgfOrDie(kQueryA1Renamed));
  ASSERT_OK(renamed.status);
  EXPECT_TRUE(renamed.metrics.plan_cache_hit);

  serve::Response other = service.Run(ParseSgfOrDie(kQueryA3));
  ASSERT_OK(other.status);
  EXPECT_FALSE(other.metrics.plan_cache_hit);

  const serve::QueryCache::Counters c = service.Stats().cache;
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.invalidations, 0u);
  EXPECT_EQ(c.entries, 2u);

  // Cached plans return the same results as freshly planned ones.
  EXPECT_TRUE(first.outputs.Get("Z").value()->words() ==
              second.outputs.Get("Z").value()->words());
  EXPECT_TRUE(first.outputs.Get("Z").value()->words() ==
              renamed.outputs.Get("Z").value()->words());
}

TEST(PlanCacheTest, InvalidationOnStatsEpochBump) {
  Database db = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  opts.result_cache = false;
  serve::QueryService service(&db, opts);

  ASSERT_OK(service.Run(ParseSgfOrDie(kQueryA1)).status);
  ASSERT_TRUE(service.Run(ParseSgfOrDie(kQueryA1)).metrics.plan_cache_hit);

  // Mutating a relation the query reads bumps its stats epoch; the next
  // submission must re-plan (no in-flight queries while we mutate).
  Tuple t;
  for (int i = 0; i < 4; ++i) t.PushBack(Value::Int(1));
  ASSERT_OK(db.AddFact("R", t));

  serve::Response after = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(after.status);
  EXPECT_FALSE(after.metrics.plan_cache_hit);
  EXPECT_EQ(service.Stats().cache.invalidations, 1u);

  // The re-planned entry serves hits again.
  EXPECT_TRUE(service.Run(ParseSgfOrDie(kQueryA1)).metrics.plan_cache_hit);
}

TEST(PlanCacheTest, MutatingUnrelatedRelationDoesNotInvalidate) {
  Database db = MakeTestDb();
  ASSERT_OK(db.Create("Unrelated", 1));
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  opts.result_cache = false;
  serve::QueryService service(&db, opts);

  ASSERT_OK(service.Run(ParseSgfOrDie(kQueryA1)).status);
  Tuple t;
  t.PushBack(Value::Int(7));
  ASSERT_OK(db.AddFact("Unrelated", t));
  EXPECT_TRUE(service.Run(ParseSgfOrDie(kQueryA1)).metrics.plan_cache_hit);
  EXPECT_EQ(service.Stats().cache.invalidations, 0u);
}

TEST(PlanCacheTest, LruEvictionAtCapacity) {
  Database db = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  opts.cache_capacity = 2;
  opts.result_cache = false;
  serve::QueryService service(&db, opts);

  ASSERT_OK(service.Run(ParseSgfOrDie(kQueryA1)).status);    // {A1}
  ASSERT_OK(service.Run(ParseSgfOrDie(kQueryA3)).status);    // {A1, A3}
  ASSERT_OK(service.Run(ParseSgfOrDie(kQuerySmall)).status); // evicts A1
  EXPECT_EQ(service.Stats().cache.evictions, 1u);
  EXPECT_FALSE(service.Run(ParseSgfOrDie(kQueryA1)).metrics.plan_cache_hit);
}

TEST(PlanCacheTest, DisabledCacheNeverHits) {
  Database db = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  opts.plan_cache = false;
  opts.result_cache = false;
  serve::QueryService service(&db, opts);
  ASSERT_OK(service.Run(ParseSgfOrDie(kQueryA1)).status);
  EXPECT_FALSE(service.Run(ParseSgfOrDie(kQueryA1)).metrics.plan_cache_hit);
  EXPECT_EQ(service.Stats().cache.hits, 0u);
}

// Regression (plan::Metrics carry-over): every response derives its
// metrics from scratch. A cached-plan rerun of the same query must report
// exactly the cold run's deterministic counters — nothing (serve fields,
// max_jobs_per_round, shuffle counters) may accumulate across reuses of
// one cached plan (executor.cc FillMetrics resets the whole struct).
TEST(PlanCacheTest, CachedPlanRerunsDoNotAccumulateMetrics) {
  Database db = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  opts.result_cache = false;
  serve::QueryService service(&db, opts);
  const serve::Response cold = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(cold.status);
  EXPECT_FALSE(cold.metrics.plan_cache_hit);
  for (int i = 0; i < 3; ++i) {
    const serve::Response hit = service.Run(ParseSgfOrDie(kQueryA1));
    ASSERT_OK(hit.status);
    EXPECT_TRUE(hit.metrics.plan_cache_hit);
    EXPECT_EQ(hit.metrics.plan_ms, 0.0);  // no planning on a hit
    EXPECT_EQ(hit.metrics.jobs, cold.metrics.jobs);
    EXPECT_EQ(hit.metrics.rounds, cold.metrics.rounds);
    EXPECT_EQ(hit.metrics.max_jobs_per_round, cold.metrics.max_jobs_per_round);
    EXPECT_EQ(hit.metrics.shuffle_records, cold.metrics.shuffle_records);
    EXPECT_EQ(hit.metrics.shuffle_messages, cold.metrics.shuffle_messages);
    EXPECT_EQ(hit.metrics.combined_messages, cold.metrics.combined_messages);
    EXPECT_EQ(hit.metrics.filtered_messages, cold.metrics.filtered_messages);
    EXPECT_DOUBLE_EQ(hit.metrics.net_time, cold.metrics.net_time);
    EXPECT_DOUBLE_EQ(hit.metrics.total_time, cold.metrics.total_time);
    EXPECT_DOUBLE_EQ(hit.metrics.hdfs_read_mb, cold.metrics.hdfs_read_mb);
    EXPECT_DOUBLE_EQ(hit.metrics.shuffle_mb, cold.metrics.shuffle_mb);
    EXPECT_DOUBLE_EQ(hit.metrics.hdfs_write_mb, cold.metrics.hdfs_write_mb);
    EXPECT_DOUBLE_EQ(hit.metrics.filter_broadcast_mb,
                     cold.metrics.filter_broadcast_mb);
  }
}

// ---- Result cache + incremental delta evaluation (DESIGN.md §12) ------------

// Compares a response against a from-scratch naive evaluation of the
// database's *current* state: canonical words AND fingerprints.
void ExpectMatchesNaive(const sgf::SgfQuery& query, const Database& db,
                        const serve::Response& resp) {
  auto expected = sgf::NaiveEvalSgf(query, db);
  ASSERT_OK(expected);
  for (const auto& sub : query.subqueries()) {
    const auto want = expected->Get(sub.output());
    ASSERT_OK(want);
    const auto got = resp.outputs.Get(sub.output());
    ASSERT_OK(got);
    Relation canon = **got;
    canon.SortAndDedupe();
    EXPECT_EQ(canon.words(), want.value()->words()) << sub.output();
    EXPECT_EQ(canon.fingerprints(), want.value()->fingerprints())
        << sub.output();
  }
}

Tuple GuardFact(int64_t v) {
  Tuple t;
  for (int i = 0; i < 4; ++i) t.PushBack(Value::Int(v + i));
  return t;
}

TEST(ResultCacheTest, RepeatIsAPureHitByteIdentical) {
  Database db = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);

  const serve::Response cold = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(cold.status);
  EXPECT_FALSE(cold.metrics.result_cache_hit);

  const serve::Response hit = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(hit.status);
  EXPECT_TRUE(hit.metrics.result_cache_hit);
  EXPECT_FALSE(hit.metrics.plan_cache_hit);  // never reached the plan path
  EXPECT_FALSE(hit.metrics.delta_applied);
  EXPECT_EQ(hit.outputs.Get("Z").value()->words(),
            cold.outputs.Get("Z").value()->words());
  EXPECT_EQ(hit.outputs.Get("Z").value()->fingerprints(),
            cold.outputs.Get("Z").value()->fingerprints());

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.cache.hits, 0u);  // cache.* counts only the plan path
  EXPECT_EQ(stats.delta_hits, 0u);
}

TEST(ResultCacheTest, GuardInsertIsDeltaMaintained) {
  Database db = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);  // mutable-base overload

  ASSERT_OK(service.Run(ParseSgfOrDie(kQueryA1)).status);

  // A guard-position insert moves R's epoch insert-only: the next lookup
  // must delta-maintain the cached result instead of re-executing, and
  // stay byte-identical to a from-scratch evaluation.
  ASSERT_OK(service.AddFact("R", GuardFact(3)));
  const serve::Response delta = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(delta.status);
  EXPECT_TRUE(delta.metrics.delta_applied);
  EXPECT_FALSE(delta.metrics.result_cache_hit);
  EXPECT_EQ(delta.metrics.delta_rows, 1u);
  ExpectMatchesNaive(ParseSgfOrDie(kQueryA1), db, delta);

  // The maintenance pass refreshed the cache at the new epochs: an
  // unchanged repeat is a pure hit again.
  const serve::Response hit = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(hit.status);
  EXPECT_TRUE(hit.metrics.result_cache_hit);
  EXPECT_EQ(hit.outputs.Get("Z").value()->words(),
            delta.outputs.Get("Z").value()->words());

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.delta_hits, 1u);
  EXPECT_EQ(stats.delta_rows, 1u);
  EXPECT_EQ(stats.result_hits, 1u);
}

// The values of a unary relation, as raw words.
std::set<uint64_t> ValuesOf(const Database& db, const std::string& name) {
  std::set<uint64_t> out;
  for (RowView row : db.Get(name).value()->views()) out.insert(row.words()[0]);
  return out;
}

using ValueSets = std::vector<std::set<uint64_t>>;

// The first row of `guard` for which `pick` holds, given the values of
// the unary relations `conds`; nullopt when none does.
std::optional<Tuple> FindGuardRow(
    const Database& db, const std::string& guard,
    const std::vector<std::string>& conds,
    const std::function<bool(const uint64_t*, const ValueSets&)>& pick) {
  ValueSets sets;
  for (const std::string& c : conds) sets.push_back(ValuesOf(db, c));
  for (RowView row : db.Get(guard).value()->views()) {
    if (pick(row.words(), sets)) return row.ToTuple();
  }
  return std::nullopt;
}

// A row that fails the first of its four unary conditionals alone.
bool FailsFirstOnly(const uint64_t* w, const ValueSets& in) {
  return in[0].count(w[0]) == 0 && in[1].count(w[1]) > 0 &&
         in[2].count(w[2]) > 0 && in[3].count(w[3]) > 0;
}

TEST(ResultCacheTest, ConditionalInsertIsDeltaMaintained) {
  Database db = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);

  const serve::Response cold = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(cold.status);

  // A guard row that fails S(x) alone: inserting S(x) newly qualifies it,
  // so the pass must slice R by the new S row and read S whole.
  const std::optional<Tuple> row =
      FindGuardRow(db, "R", {"S", "T", "U", "V"}, FailsFirstOnly);
  ASSERT_TRUE(row.has_value());
  ASSERT_OK(service.AddFact("S", Tuple{(*row)[0]}));
  const serve::Response delta = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(delta.status);
  EXPECT_TRUE(delta.metrics.delta_applied);
  EXPECT_FALSE(delta.metrics.result_cache_hit);
  EXPECT_EQ(delta.metrics.delta_rows, 1u);
  EXPECT_GT(delta.outputs.Get("Z").value()->size(),
            cold.outputs.Get("Z").value()->size());
  ExpectMatchesNaive(ParseSgfOrDie(kQueryA1), db, delta);

  const serve::Response hit = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(hit.status);
  EXPECT_TRUE(hit.metrics.result_cache_hit);
  EXPECT_EQ(hit.outputs.Get("Z").value()->words(),
            delta.outputs.Get("Z").value()->words());
  EXPECT_EQ(service.Stats().delta_hits, 1u);
}

TEST(ResultCacheTest, NegatedConditionalInsertFallsBackToFullRun) {
  Database db = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);
  const char* kNegated =
      "Z := SELECT (x, y) FROM R(x, y, z, w) WHERE T(y) AND NOT V(x);";

  const serve::Response cold = service.Run(ParseSgfOrDie(kNegated));
  ASSERT_OK(cold.status);

  // An insert into V removes the output rows whose x it names: no slice
  // of R can express that, so the service runs the query again in full.
  const std::optional<Tuple> row = FindGuardRow(
      db, "R", {"T", "V"}, [](const uint64_t* w, const ValueSets& in) {
        return in[0].count(w[1]) > 0 && in[1].count(w[0]) == 0;
      });
  ASSERT_TRUE(row.has_value());
  ASSERT_OK(service.AddFact("V", Tuple{(*row)[0]}));
  const serve::Response full = service.Run(ParseSgfOrDie(kNegated));
  ASSERT_OK(full.status);
  EXPECT_FALSE(full.metrics.delta_applied);
  EXPECT_FALSE(full.metrics.result_cache_hit);
  EXPECT_LT(full.outputs.Get("Z").value()->size(),
            cold.outputs.Get("Z").value()->size());
  ExpectMatchesNaive(ParseSgfOrDie(kNegated), db, full);
  EXPECT_EQ(service.Stats().delta_hits, 0u);
}

// The A4 shape: two subqueries over disjoint relations. A guard insert
// into R and a conditional insert into W land before one read, which
// must be one delta pass slicing both guards.
TEST(ResultCacheTest, GuardAndConditionalInsertsShareOnePass) {
  Database db = MakeTestDb();
  data::GeneratorConfig cfg;
  cfg.tuples = 600;
  cfg.representation_scale = 1.0;
  data::Generator gen(cfg);
  db.Put(gen.Guard("G", 4));
  for (const char* c : {"W", "X", "Y", "Q"}) db.Put(gen.Conditional(c, 1));
  const char* kQueryA4 =
      "Z1 := SELECT (x, y, z, w) FROM R(x, y, z, w) "
      "WHERE S(x) AND T(y) AND U(z) AND V(w);\n"
      "Z2 := SELECT (x, y, z, w) FROM G(x, y, z, w) "
      "WHERE W(x) AND X(y) AND Y(z) AND Q(w);";
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);

  const serve::Response cold = service.Run(ParseSgfOrDie(kQueryA4));
  ASSERT_OK(cold.status);

  // A G row that fails W(x) alone.
  const std::optional<Tuple> row =
      FindGuardRow(db, "G", {"W", "X", "Y", "Q"}, FailsFirstOnly);
  ASSERT_TRUE(row.has_value());
  ASSERT_OK(service.AddFact("R", GuardFact(3)));
  ASSERT_OK(service.AddFact("W", Tuple{(*row)[0]}));

  const serve::Response delta = service.Run(ParseSgfOrDie(kQueryA4));
  ASSERT_OK(delta.status);
  EXPECT_TRUE(delta.metrics.delta_applied);
  EXPECT_EQ(delta.metrics.delta_rows, 2u);
  EXPECT_GT(delta.outputs.Get("Z2").value()->size(),
            cold.outputs.Get("Z2").value()->size());
  ExpectMatchesNaive(ParseSgfOrDie(kQueryA4), db, delta);
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.delta_hits, 1u);
  EXPECT_EQ(stats.plans_built, 1u);  // the cold run's plan, nothing since
}

TEST(ResultCacheTest, DestructiveWriteFallsBackToFullRun) {
  Database db = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);

  ASSERT_OK(service.Run(ParseSgfOrDie(kQueryA1)).status);

  // Put replaces the relation wholesale — a destructive epoch move, so
  // neither a pure hit nor a delta pass is sound.
  data::GeneratorConfig cfg;
  cfg.tuples = 300;
  cfg.seed = 99;
  cfg.representation_scale = 1.0;
  db.Put(data::Generator(cfg).Guard("R", 4));

  const serve::Response full = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(full.status);
  EXPECT_FALSE(full.metrics.delta_applied);
  EXPECT_FALSE(full.metrics.result_cache_hit);
  ExpectMatchesNaive(ParseSgfOrDie(kQueryA1), db, full);
}

TEST(ResultCacheTest, MultiSubqueryDeltaReusesCleanOutputs) {
  // Two subqueries with disjoint guards: an insert into R moves nothing
  // Z2 reads, so G is shadowed by an empty slice, the pass reads no row
  // of it, and Z2 comes back as its cached value. Under every strategy
  // the empty guard runs through that strategy's operators.
  const char* kTwoGuards =
      "Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x) AND T(y);\n"
      "Z2 := SELECT x FROM G(x, y, z, w) WHERE U(x) AND NOT V(x);";
  for (const plan::Strategy strategy :
       {plan::Strategy::kSeq, plan::Strategy::kPar, plan::Strategy::kGreedy,
        plan::Strategy::kGreedySgf}) {
    SCOPED_TRACE(plan::StrategyName(strategy));
    Database db = MakeTestDb();
    data::GeneratorConfig cfg;
    cfg.tuples = 600;
    cfg.representation_scale = 1.0;
    db.Put(data::Generator(cfg).Guard("G", 4));
    serve::ServiceOptions opts;
    opts.max_inflight = 1;
    opts.planner.strategy = strategy;
    serve::QueryService service(&db, opts);

    const serve::Response cold = service.Run(ParseSgfOrDie(kTwoGuards));
    ASSERT_OK(cold.status);
    ASSERT_OK(service.AddFact("R", GuardFact(7)));
    const serve::Response delta = service.Run(ParseSgfOrDie(kTwoGuards));
    ASSERT_OK(delta.status);
    EXPECT_TRUE(delta.metrics.delta_applied);
    ExpectMatchesNaive(ParseSgfOrDie(kTwoGuards), db, delta);
    EXPECT_EQ(delta.outputs.Get("Z2").value()->words(),
              cold.outputs.Get("Z2").value()->words());

    bool read_g = false;
    for (const mr::JobStats& job : delta.stats.jobs) {
      for (const mr::InputStats& in : job.inputs) {
        if (in.dataset != "G") continue;
        read_g = true;
        EXPECT_EQ(in.input_mb, 0.0) << job.job_name;
      }
    }
    EXPECT_TRUE(read_g) << "the pass never scheduled G's jobs";
  }
}

TEST(ResultCacheTest, DisableDeltaEnvKnobTurnsTheLayerOff) {
  common::RuntimeConfig cfg;
  cfg.disable_delta = true;
  common::RuntimeConfig::ScopedOverride ov{std::move(cfg)};
  Database db = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);

  ASSERT_OK(service.Run(ParseSgfOrDie(kQueryA1)).status);
  const serve::Response second = service.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(second.status);
  EXPECT_FALSE(second.metrics.result_cache_hit);
  EXPECT_TRUE(second.metrics.plan_cache_hit);  // plan cache still works
  EXPECT_EQ(service.Stats().result_hits, 0u);
}

TEST(ResultCacheTest, WriteApiRequiresMutableBase) {
  Database db = MakeTestDb(50);
  const Database& const_db = db;
  serve::QueryService service(&const_db, serve::ServiceOptions{});
  Tuple t;
  t.PushBack(Value::Int(1));
  EXPECT_EQ(service.AddFact("S", t).code(), StatusCode::kFailedPrecondition);
}

// TSan coverage: AddFact holds the writer lock while queries hold reader
// locks for their whole capture -> execute -> cache-refresh span, so a
// concurrent write/read mix must be race-free and every response must
// match a from-scratch evaluation of *some* consistent database state —
// verified here only for the final quiesced state.
TEST(ResultCacheTest, ConcurrentAddFactAndRunAreRaceFree) {
  Database db = MakeTestDb(300);
  Scheduler scheduler(4);
  serve::ServiceOptions opts;
  opts.max_inflight = 3;
  serve::QueryService service(&db, opts, &scheduler);
  const sgf::SgfQuery query = ParseSgfOrDie(kQueryA1);

  std::vector<std::thread> threads;
  std::vector<Status> status(3, Status::Ok());
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < 6; ++i) {
        serve::Response resp = service.Run(query);
        if (!resp.ok()) {
          status[c] = resp.status;
          return;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 10; ++i) {
      const Status st = service.AddFact("R", GuardFact(1000 + 7 * i));
      if (!st.ok()) {
        status[2] = st;
        return;
      }
    }
  });
  for (auto& t : threads) t.join();
  for (const Status& s : status) EXPECT_OK(s);

  const serve::Response final_resp = service.Run(query);
  ASSERT_OK(final_resp.status);
  ExpectMatchesNaive(query, db, final_resp);
}

// ---- serve::PlanDelta, rule by rule (DESIGN.md §12) -------------------------

// Plans the delta pass for `text` across the writes `mutate` makes to
// `db`, the way the result cache does for an entry cached before them.
serve::DeltaPlan DeltaAcross(const std::string& text, Database* db,
                             const std::function<void(Database*)>& mutate) {
  const sgf::SgfQuery query = ParseSgfOrDie(text);
  const std::vector<std::string> names = serve::EpochNamesOf(query);
  const std::vector<uint64_t> before = serve::EpochsOf(names, *db);
  mutate(db);
  return serve::PlanDelta(query, *db, names, before,
                          serve::EpochsOf(names, *db));
}

std::function<void(Database*)> Inserts(
    std::vector<std::pair<std::string, std::vector<int64_t>>> facts) {
  return [facts](Database* db) {
    for (const auto& [name, values] : facts) {
      Tuple t;
      for (const int64_t v : values) t.PushBack(Value::Int(v));
      ASSERT_OK(db->AddFact(name, t));
    }
  };
}

void ExpectFallback(const serve::DeltaPlan& dp, serve::DeltaFallback want) {
  EXPECT_FALSE(dp.eligible);
  EXPECT_EQ(dp.fallback, want);
  EXPECT_TRUE(dp.dirty.empty());
}

const std::vector<int64_t> kNewGuardRow = {100000, 100001, 100002, 100003};

TEST(PlanDeltaTest, GuardAndPositiveConditionalInsertsSliceTheGuard) {
  Database db = MakeTestDb();
  const Relation r_old = *db.Get("R").value();
  const int64_t x = r_old.view(0)[0].AsInt();
  const serve::DeltaPlan dp = DeltaAcross(
      kQueryA1, &db, Inserts({{"R", kNewGuardRow}, {"S", {x}}}));
  ASSERT_TRUE(dp.eligible);
  EXPECT_EQ(dp.fallback, serve::DeltaFallback::kNone);
  EXPECT_EQ(dp.delta_rows, 2u);
  EXPECT_EQ(dp.dirty, (std::set<std::string>{"R", "Z"}));
  // S_R = the new R row plus every R row with that x; S stays whole.
  size_t with_x = 0;
  for (RowView row : r_old.views()) with_x += row[0].AsInt() == x ? 1 : 0;
  EXPECT_EQ(dp.view.Get("R").value()->size(), 1 + with_x);
  EXPECT_EQ(dp.view.Get("S").value(), db.Get("S").value());
}

TEST(PlanDeltaTest, UnmovedGuardGetsAnEmptySlice) {
  Database db = MakeTestDb();
  data::GeneratorConfig cfg;
  cfg.tuples = 600;
  cfg.representation_scale = 1.0;
  db.Put(data::Generator(cfg).Guard("G", 4));
  const serve::DeltaPlan dp = DeltaAcross(
      "Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x);\n"
      "Z2 := SELECT x FROM G(x, y, z, w) WHERE U(x) AND NOT V(x);",
      &db, Inserts({{"R", kNewGuardRow}}));
  ASSERT_TRUE(dp.eligible);
  EXPECT_EQ(dp.dirty, (std::set<std::string>{"G", "R", "Z1", "Z2"}));
  EXPECT_EQ(dp.view.Get("R").value()->size(), 1u);
  EXPECT_EQ(dp.view.Get("G").value()->size(), 0u);
}

TEST(PlanDeltaTest, DestructiveWriteFallsBack) {
  Database db = MakeTestDb();
  ExpectFallback(DeltaAcross(kQueryA1, &db,
                             [](Database* d) {
                               d->Put(MakeRelation("S", 1, {{1}, {2}}));
                             }),
                 serve::DeltaFallback::kDestructive);
}

TEST(PlanDeltaTest, AgedOutWatermarkFallsBack) {
  Database db = MakeTestDb();
  // Cache at an insert watermark, then push it out of the bounded ring.
  ASSERT_OK(db.AddFact("S", Tuple::Ints({100000})));
  ExpectFallback(DeltaAcross(kQueryA1, &db,
                             [](Database* d) {
                               for (int64_t i = 1; i <= 100; ++i) {
                                 ASSERT_OK(d->AddFact(
                                     "S", Tuple::Ints({100000 + i})));
                               }
                             }),
                 serve::DeltaFallback::kNoWatermark);
}

TEST(PlanDeltaTest, MismatchedEpochVectorsFallBack) {
  const Database db = MakeTestDb(50);
  const sgf::SgfQuery query = ParseSgfOrDie(kQueryA1);
  const std::vector<std::string> names = serve::EpochNamesOf(query);
  const std::vector<uint64_t> epochs = serve::EpochsOf(names, db);
  ExpectFallback(
      serve::PlanDelta(query, db, names, epochs,
                       std::vector<uint64_t>(epochs.begin(), epochs.end() - 1)),
      serve::DeltaFallback::kMissingRelation);
}

TEST(PlanDeltaTest, InsertUnderAnOddNumberOfNotsFallsBack) {
  // T sits under one NOT, V under two: only T's inserts can remove rows.
  const char* kParity =
      "Z := SELECT x FROM R(x, y, z, w) "
      "WHERE S(x) AND NOT (T(y) AND NOT V(w));";
  Database db = MakeTestDb();
  ExpectFallback(DeltaAcross(kParity, &db, Inserts({{"T", {100000}}})),
                 serve::DeltaFallback::kNegatedDelta);
  Database db2 = MakeTestDb();
  EXPECT_TRUE(DeltaAcross(kParity, &db2, Inserts({{"V", {100000}}})).eligible);
}

TEST(PlanDeltaTest, NestedProgramsFallBackWhereAWholeRelationNeedsASlice) {
  // Z1 is read in conditional position, so its guard R must stay whole:
  // an insert S feeds into Z1 needs R sliced (and a U insert sits under
  // NOT).
  Database db = MakeTestDb();
  ExpectFallback(DeltaAcross(kQueryNested, &db, Inserts({{"S", {100000}}})),
                 serve::DeltaFallback::kNeedsWholeRelation);
  Database db2 = MakeTestDb();
  ExpectFallback(DeltaAcross(kQueryNested, &db2, Inserts({{"U", {100000}}})),
                 serve::DeltaFallback::kNegatedDelta);

  // S is both Z1's guard and Z2's conditional: a moved S, or a moved T
  // that Z1 reads, needs a slice of S, which must stay whole for Z2.
  const char* kGuardAndConditional =
      "Z1 := SELECT x FROM S(x) WHERE T(x);\n"
      "Z2 := SELECT x FROM R(x, y, z, w) WHERE S(x);";
  for (const char* moved : {"S", "T"}) {
    Database db3 = MakeTestDb();
    ExpectFallback(DeltaAcross(kGuardAndConditional, &db3,
                               Inserts({{moved, {100000}}})),
                   serve::DeltaFallback::kNeedsWholeRelation);
  }

  // Z grows with S, and Q reads it whole: no slice of R can be cut by
  // the rows Z gains, though R itself is neither moved nor whole.
  const char* kChangedConditionalOutput =
      "Y := SELECT x FROM G(x, y, z, w) WHERE T(x);\n"
      "Z := SELECT x FROM Y(x) WHERE S(x);\n"
      "Q := SELECT (x, y) FROM R(x, y, z, w) WHERE Z(x);";
  data::GeneratorConfig cfg;
  cfg.tuples = 600;
  cfg.representation_scale = 1.0;
  Database db4 = MakeTestDb();
  db4.Put(data::Generator(cfg).Guard("G", 4));
  ExpectFallback(DeltaAcross(kChangedConditionalOutput, &db4,
                             Inserts({{"S", {100000}}})),
                 serve::DeltaFallback::kNeedsWholeRelation);
}

TEST(PlanDeltaTest, DirtyOutputGuardTakesGuardInsertsOnly) {
  // Z2's guard is Z1, which holds only its new rows in the pass: an R
  // insert is a pass, but an S insert would newly qualify old Z1 rows.
  const char* kChain =
      "Z1 := SELECT (x, y) FROM R(x, y, z, w) WHERE T(y);\n"
      "Z2 := SELECT x FROM Z1(x, y) WHERE S(x);";
  Database db = MakeTestDb();
  ExpectFallback(DeltaAcross(kChain, &db,
                             Inserts({{"R", kNewGuardRow}, {"S", {100000}}})),
                 serve::DeltaFallback::kNeedsWholeRelation);

  Database db2 = MakeTestDb();
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db2, opts);
  ASSERT_OK(service.Run(ParseSgfOrDie(kChain)).status);
  const Tuple first = db2.Get("R").value()->TupleAt(0);
  ASSERT_OK(service.AddFact("R", Tuple{first[0], first[1], Value::Int(1),
                                       Value::Int(2)}));
  const serve::Response delta = service.Run(ParseSgfOrDie(kChain));
  ASSERT_OK(delta.status);
  EXPECT_TRUE(delta.metrics.delta_applied);
  ExpectMatchesNaive(ParseSgfOrDie(kChain), db2, delta);
}

// Slices for conditional atoms of every shape: each must hold exactly
// the guard rows the inserted facts can newly qualify, and the service's
// pass over it must match the naive evaluator.
TEST(PlanDeltaTest, SlicesFollowTheConditionalAtomsShape) {
  const Relation r = *MakeTestDb().Get("R").value();
  const int64_t a = r.view(0)[0].AsInt();
  int64_t b = a;
  for (RowView row : r.views()) {
    if (row[0].AsInt() != a) {
      b = row[0].AsInt();
      break;
    }
  }
  ASSERT_NE(a, b);
  size_t with_a = 0;
  for (RowView row : r.views()) with_a += row[0].AsInt() == a ? 1 : 0;

  struct Case {
    const char* name;
    std::string query;
    std::vector<std::vector<int64_t>> facts;  // inserted into P
    size_t slice_rows;
  };
  const std::vector<Case> cases = {
      // Only P(a, 99999) conforms to the constant.
      {"constant", "Z := SELECT (x, y) FROM R(x, y, z, w) WHERE P(x, 99999);",
       {{a, 99999}, {b, 5}}, with_a},
      // Only P(a, a) conforms to the repeated variable.
      {"repeated", "Z := SELECT (x, y) FROM R(x, y, z, w) WHERE P(x, x);",
       {{a, a}, {b, b + 1}}, with_a},
      // v is existential: the key is x alone.
      {"existential", "Z := SELECT (x, y) FROM R(x, y, z, w) WHERE P(x, v);",
       {{a, 424242}}, with_a},
      // No shared variable: one conforming fact qualifies every row.
      {"unshared",
       "Z := SELECT (x, y) FROM R(x, y, z, w) WHERE S(x) AND P(99999, v);",
       {{99999, 1}}, r.size()},
      {"unshared, none conforming",
       "Z := SELECT (x, y) FROM R(x, y, z, w) WHERE S(x) AND P(99999, v);",
       {{5, 1}}, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto make_db = [] {
      Database db = MakeTestDb();
      db.Put(MakeRelation("P", 2, {{1, 2}}));
      return db;
    };
    std::vector<std::pair<std::string, std::vector<int64_t>>> facts;
    for (const auto& f : c.facts) facts.emplace_back("P", f);

    Database db = make_db();
    const serve::DeltaPlan dp = DeltaAcross(c.query, &db, Inserts(facts));
    ASSERT_TRUE(dp.eligible);
    EXPECT_EQ(dp.view.Get("R").value()->size(), c.slice_rows);

    Database served = make_db();
    serve::ServiceOptions opts;
    opts.max_inflight = 1;
    serve::QueryService service(&served, opts);
    const sgf::SgfQuery query = ParseSgfOrDie(c.query);
    ASSERT_OK(service.Run(query).status);
    for (const auto& f : c.facts) {
      ASSERT_OK(service.AddFact("P", Tuple::Ints({f[0], f[1]})));
    }
    const serve::Response delta = service.Run(query);
    ASSERT_OK(delta.status);
    EXPECT_TRUE(delta.metrics.delta_applied);
    ExpectMatchesNaive(query, served, delta);
  }
}

// The calibration loop (DESIGN.md §10) observes every successful
// execution without changing a single result byte.
TEST(ServiceTest, CalibrationFeedbackObservesWithoutChangingResults) {
  Database db = MakeTestDb();
  serve::QueryService plain(&db, serve::ServiceOptions{});
  const serve::Response a = plain.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(a.status);

  cost::CalibrationStore store;
  serve::ServiceOptions opts;
  opts.calibration = &store;
  opts.result_cache = false;  // repeats must re-execute to feed the store
  serve::QueryService calibrated(&db, opts);
  const serve::Response b1 = calibrated.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(b1.status);
  EXPECT_GT(store.TotalObservations(), 0u);
  // A second run plans through the now-nonempty store (same cache key, so
  // it reuses the plan; the cache-off path replans below).
  const serve::Response b2 = calibrated.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(b2.status);

  serve::ServiceOptions nocache = opts;
  nocache.plan_cache = false;
  serve::QueryService replanning(&db, nocache);
  ASSERT_OK(replanning.Run(ParseSgfOrDie(kQueryA1)).status);  // feeds store
  const serve::Response b3 = replanning.Run(ParseSgfOrDie(kQueryA1));
  ASSERT_OK(b3.status);

  const Relation* want = a.outputs.Get("Z").value();
  for (const serve::Response* r : {&b1, &b2, &b3}) {
    const Relation* got = r->outputs.Get("Z").value();
    EXPECT_EQ(got->words(), want->words());
    EXPECT_EQ(got->fingerprints(), want->fingerprints());
  }
}

// ---- QueryService: admission scheduling + determinism -----------------------

TEST(ServiceTest, FailedQueryReportsErrorAndCountsIt) {
  Database db = MakeTestDb(50);
  serve::ServiceOptions opts;
  opts.max_inflight = 2;
  serve::QueryService service(&db, opts);
  serve::Response resp = service.Run(
      ParseSgfOrDie("Z := SELECT x FROM Nope(x, y) WHERE S(x);"));
  EXPECT_FALSE(resp.ok());
  serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ServiceTest, SubmitAfterShutdownIsRejected) {
  Database db = MakeTestDb(50);
  serve::QueryService service(&db, serve::ServiceOptions{});
  service.Shutdown();
  serve::Response resp = service.Run(ParseSgfOrDie(kQuerySmall));
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(service.Stats().rejected, 1u);
}

TEST(ServiceTest, FastLaneRoutesSmallQueries) {
  // A 2-atom query left at kNormal is admitted at kHigh: queued behind an
  // earlier 5-atom query, it still leaves the backlog first.
  Database db = MakeTestDb(200);
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);
  auto blocker = service.Submit(SlowBlocker());
  while (service.Stats().peak_inflight < 1) std::this_thread::yield();
  auto big = service.Submit(ParseSgfOrDie(kQueryA1));        // 5 atoms
  auto small = service.Submit(ParseSgfOrDie(kQuerySmall));   // 2 atoms
  ASSERT_OK(blocker.get().status);
  const serve::Response rb = big.get();
  const serve::Response rs = small.get();
  ASSERT_OK(rb.status);
  ASSERT_OK(rs.status);
  EXPECT_LT(rs.metrics.queue_ms, rb.metrics.queue_ms);
  EXPECT_EQ(service.Stats().submitted, 3u);
}

TEST(ServiceTest, ConcurrentSubmissionByteIdenticalToSequential) {
  Database db = MakeTestDb(800);
  // Parse up front, on this thread only: Dictionary::Global() interning
  // is single-threaded by contract; the service takes parsed queries.
  std::vector<sgf::SgfQuery> queries;
  for (const char* text : {kQueryA1, kQueryA3, kQuerySmall, kQueryNested}) {
    queries.push_back(ParseSgfOrDie(text));
  }

  // Sequential solo references: plan + execute, one query at a time.
  cost::ClusterConfig cluster;
  plan::Planner planner(cluster, plan::PlannerOptions{});
  mr::Engine ref_engine(cluster);
  std::vector<Database> refs;
  for (const sgf::SgfQuery& q : queries) {
    auto plan = planner.Plan(q, db);
    ASSERT_OK(plan);
    Database outputs;
    ASSERT_OK(plan::ExecutePlanOnSnapshot(*plan, &ref_engine, db, &outputs));
    refs.push_back(std::move(outputs));
  }

  // Concurrent submission: 4 client threads x 3 rounds x all queries,
  // through a 3-wide admission scheduler on an explicit 4-worker morsel
  // scheduler (Global() may have 1 worker on 1-core CI).
  Scheduler scheduler(4);
  serve::ServiceOptions opts;
  opts.max_inflight = 3;
  serve::QueryService service(&db, opts, &scheduler);

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> clients;
  std::vector<Status> client_status(kClients, Status::Ok());
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          // Stagger the mix per client so distinct queries overlap.
          const size_t pick = (qi + static_cast<size_t>(c)) % queries.size();
          serve::Response resp = service.Run(queries[pick]);
          if (!resp.ok()) {
            client_status[c] = resp.status;
            return;
          }
          if (resp.outputs.size() != refs[pick].size()) {
            client_status[c] = Status::Internal(
                "concurrent response holds extra/missing relations");
            return;
          }
          for (const auto& [name, ref] : refs[pick].relations()) {
            const auto got = resp.outputs.Get(name);
            if (!got.ok() || !(got.value()->words() == ref.words()) ||
                !(got.value()->fingerprints() == ref.fingerprints())) {
              client_status[c] = Status::Internal(
                  "concurrent result for " + name +
                  " diverged from sequential reference");
              return;
            }
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const Status& s : client_status) EXPECT_OK(s);

  serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed,
            static_cast<uint64_t>(kClients * kRounds) * queries.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_LE(stats.peak_inflight, 3);
  // Repeats are served from a cache: a plan-cache hit while the first
  // execution is still in flight, or a result-cache hit once it finished
  // (which of the two depends on scheduling).
  EXPECT_GE(stats.cache.hits + stats.result_hits, 1u);
}

TEST(ServiceTest, FastLaneCannotStarveTheFifo) {
  // One worker; a slow-planning FIFO query, 8 fast-lane queries, and a
  // second FIFO query all enqueued back to back. Workers take a FIFO
  // task after every 3 consecutive fast-lane dispatches, so the second
  // FIFO query is dispatched ahead of the fast-lane tail: at least one
  // (in practice 2-5, depending on which task the worker grabs first)
  // small query completes after it. Without the anti-starvation rule the
  // worker drains the entire lane first and exactly zero small queries
  // finish after the FIFO one — completion order is read off wall_ms
  // (near-identical submit instants, single worker).
  Database db = MakeTestDb(200);
  serve::ServiceOptions opts;
  opts.max_inflight = 1;
  serve::QueryService service(&db, opts);

  // 17 atoms -> FIFO; its GREEDY grouping plans for tens of ms, so the
  // whole batch below is enqueued long before the worker drains it.
  std::string big_cond;
  for (const char* r : {"S", "T", "U", "V"}) {
    for (const char* v : {"x", "y", "z", "w"}) {
      if (!big_cond.empty()) big_cond += " AND ";
      big_cond += std::string(r) + "(" + v + ")";
    }
  }
  const sgf::SgfQuery blocker = ParseSgfOrDie(
      "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE " + big_cond + ";");
  const sgf::SgfQuery small = ParseSgfOrDie(kQuerySmall);  // 2 atoms -> lane

  auto blocker_future = service.Submit(blocker);
  std::vector<std::future<serve::Response>> lane;
  for (int i = 0; i < 8; ++i) lane.push_back(service.Submit(small));
  auto fifo_future = service.Submit(blocker);  // queued FIFO task

  ASSERT_OK(blocker_future.get().status);
  const serve::Response fifo_resp = fifo_future.get();
  ASSERT_OK(fifo_resp.status);
  size_t finished_after_fifo = 0;
  for (auto& f : lane) {
    serve::Response resp = f.get();
    ASSERT_OK(resp.status);
    if (resp.wall_ms > fifo_resp.wall_ms) ++finished_after_fifo;
  }
  EXPECT_GE(finished_after_fifo, 1u);
}

TEST(ServiceTest, ColdCacheStampedeAccounting) {
  // Many concurrent submissions of the same never-seen query: exactly one
  // of {cache hit, coalesced wait, plan built} happens per query, and at
  // least one plan is built. Single-flight makes plans_built < N the
  // common case, but the invariant below is scheduling-independent.
  Database db = MakeTestDb(200);
  const sgf::SgfQuery query = ParseSgfOrDie(kQueryA1);
  Scheduler scheduler(4);
  serve::ServiceOptions opts;
  opts.max_inflight = 6;
  serve::QueryService service(&db, opts, &scheduler);

  constexpr uint64_t kN = 12;
  std::vector<std::future<serve::Response>> futures;
  for (uint64_t i = 0; i < kN; ++i) futures.push_back(service.Submit(query));
  for (auto& f : futures) ASSERT_OK(f.get().status);

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, kN);
  EXPECT_GE(stats.plans_built, 1u);
  // Every query is exactly one of: result-cache hit (an early finisher
  // populated the result cache before a queued sibling was admitted),
  // plan-cache hit, coalesced wait, or plan built.
  EXPECT_EQ(stats.result_hits + stats.cache.hits + stats.plan_coalesced +
                stats.plans_built,
            kN);
}

TEST(ServiceTest, DrainsBacklogOnDestruction) {
  Database db = MakeTestDb(50);
  std::vector<std::future<serve::Response>> futures;
  {
    serve::ServiceOptions opts;
    opts.max_inflight = 1;
    serve::QueryService service(&db, opts);
    for (int i = 0; i < 8; ++i) {
      futures.push_back(service.Submit(ParseSgfOrDie(kQuerySmall)));
    }
    // Destructor drains: every accepted query gets an answer.
  }
  for (auto& f : futures) {
    EXPECT_OK(f.get().status);
  }
}

}  // namespace
}  // namespace gumbo
