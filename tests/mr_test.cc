// Tests for the simulated MapReduce engine and the program scheduler,
// plus the shuffle-volume optimization primitives (DESIGN.md §5): Bloom
// filters, the dedup combiner, and their engine accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "common/rng.h"
#include "mr/combiner.h"
#include "mr/engine.h"
#include "mr/filter.h"
#include "mr/program.h"
#include "test_util.h"

namespace gumbo::mr {
namespace {

using ::gumbo::testing::MakeRelation;
using ::gumbo::testing::RowsOf;

// A toy job: groups input tuples by first attribute and counts them.
class CountMapper : public Mapper {
 public:
  void Map(size_t, RowView fact, uint64_t, Emitter* emitter) override {
    emitter->Emit(Tuple{fact[0]}, /*tag=*/1, /*aux=*/0, /*wire_bytes=*/4.0);
  }
};

class CountReducer : public Reducer {
 public:
  void Reduce(TupleView key, const MessageGroup& values,
              ReduceEmitter* emitter) override {
    Tuple out;
    out.PushBack(key[0]);
    out.PushBack(Value::Int(static_cast<int64_t>(values.size())));
    emitter->Emit(0, out);
  }
};

JobSpec CountJob(const std::string& in, const std::string& out) {
  JobSpec spec;
  spec.name = "count";
  spec.inputs.push_back({in});
  JobOutput o;
  o.dataset = out;
  o.arity = 2;
  spec.outputs.push_back(o);
  spec.mapper_factory = [] { return std::make_unique<CountMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  return spec;
}

cost::ClusterConfig SmallCluster() {
  cost::ClusterConfig c;
  c.nodes = 2;
  c.map_slots_per_node = 2;
  c.reduce_slots_per_node = 2;
  c.split_mb = 0.001;  // force several map tasks on tiny data
  c.mb_per_reducer = 0.001;
  return c;
}

TEST(EngineTest, GroupCountCorrectAcrossTasksAndReducers) {
  Database db;
  Relation r("In", 2);
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_OK(r.Add(Tuple::Ints({i % 10, i})));
  }
  db.Put(std::move(r));

  Engine engine(SmallCluster());
  auto stats = engine.Run(CountJob("In", "Out"), &db);
  ASSERT_OK(stats);
  EXPECT_GT(stats->map_task_costs.size(), 1u);  // multiple map tasks
  EXPECT_GT(stats->num_reducers, 1);            // multiple reducers

  const Relation* out = db.Get("Out").value();
  ASSERT_EQ(out->size(), 10u);
  for (RowView t : out->views()) {
    EXPECT_EQ(t[1], Value::Int(100));  // each group has 100 members
  }
}

TEST(EngineTest, DeterministicAcrossRuns) {
  Database db;
  Relation r("In", 2);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_OK(r.Add(Tuple::Ints({i % 7, i})));
  }
  db.Put(std::move(r));
  Engine engine(SmallCluster());
  ASSERT_OK(engine.Run(CountJob("In", "Out1"), &db).status());
  ASSERT_OK(engine.Run(CountJob("In", "Out2"), &db).status());
  const Relation* a = db.Get("Out1").value();
  const Relation* b = db.Get("Out2").value();
  EXPECT_EQ(a->ToTuples(), b->ToTuples());  // identical order, not just set
}

TEST(EngineTest, CountsBytesAndScale) {
  Database db;
  Relation r("In", 2);
  for (int64_t i = 0; i < 100; ++i) ASSERT_OK(r.Add(Tuple::Ints({i, i})));
  r.set_representation_scale(1000.0);  // 100 tuples stand for 100k
  db.Put(std::move(r));

  cost::ClusterConfig c;
  Engine engine(c);
  auto stats = engine.Run(CountJob("In", "Out"), &db);
  ASSERT_OK(stats);
  // Input: 100k represented tuples * 20 B = 2,000,000 B.
  EXPECT_NEAR(stats->hdfs_read_mb, 2e6 / (1024.0 * 1024.0), 1e-9);
  // Shuffle: packed by key; all keys distinct => 100k records * (10 key +
  // 4 payload) B.
  EXPECT_NEAR(stats->shuffle_mb, 100000.0 * 14.0 / (1024.0 * 1024.0), 1e-9);
  // Output inherits the scale.
  EXPECT_DOUBLE_EQ(db.Get("Out").value()->representation_scale(), 1000.0);
}

TEST(EngineTest, PackingReducesShuffleBytes) {
  Database db;
  Relation r("In", 2);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_OK(r.Add(Tuple::Ints({i % 5, i})));  // 5 hot keys
  }
  db.Put(std::move(r));
  Engine engine(cost::ClusterConfig{});

  JobSpec packed = CountJob("In", "OutP");
  packed.pack_messages = true;
  JobSpec unpacked = CountJob("In", "OutU");
  unpacked.pack_messages = false;

  auto sp = engine.Run(packed, &db);
  auto su = engine.Run(unpacked, &db);
  ASSERT_OK(sp);
  ASSERT_OK(su);
  EXPECT_LT(sp->shuffle_mb, su->shuffle_mb);
  // Same results either way.
  EXPECT_TRUE(db.Get("OutP").value()->SetEquals(*db.Get("OutU").value()));
}

TEST(EngineTest, ReducerAllocationByMapInputSize) {
  Database db;
  Relation r("In", 2);
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_OK(r.Add(Tuple::Ints({i % 10, i})));
  }
  db.Put(std::move(r));
  const double input_mb = db.Get("In").value()->SizeMb();
  cost::ClusterConfig c = SmallCluster();
  Engine engine(c);
  JobSpec spec = CountJob("In", "Out");
  spec.reducer_allocation = ReducerAllocation::kByMapInputSize;
  auto stats = engine.Run(spec, &db);
  ASSERT_OK(stats);
  // Pig's policy: one reducer per 4 * mb_per_reducer of *map input* data,
  // independent of the intermediate size.
  const int expected = std::max(
      1, static_cast<int>(std::ceil(input_mb / (4.0 * c.mb_per_reducer))));
  EXPECT_EQ(stats->num_reducers, expected);
  EXPECT_GT(stats->num_reducers, 1);  // the tiny quota forces several
  // Allocation policy must not change results.
  EXPECT_EQ(db.Get("Out").value()->size(), 10u);
}

TEST(EngineTest, ReducerAllocationFixed) {
  Database db;
  Relation r("In", 2);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_OK(r.Add(Tuple::Ints({i % 10, i})));
  }
  db.Put(std::move(r));
  Engine engine(SmallCluster());
  JobSpec spec = CountJob("In", "OutF");
  spec.reducer_allocation = ReducerAllocation::kFixed;
  spec.fixed_num_reducers = 3;
  auto stats = engine.Run(spec, &db);
  ASSERT_OK(stats);
  EXPECT_EQ(stats->num_reducers, 3);
  EXPECT_EQ(stats->reduce_task_costs.size(), 3u);
  EXPECT_EQ(db.Get("OutF").value()->size(), 10u);
  // Non-positive fixed counts clamp to one reducer.
  spec = CountJob("In", "OutZ");
  spec.reducer_allocation = ReducerAllocation::kFixed;
  spec.fixed_num_reducers = 0;
  stats = engine.Run(spec, &db);
  ASSERT_OK(stats);
  EXPECT_EQ(stats->num_reducers, 1);
  // The fixed and derived allocations agree on the result set.
  EXPECT_TRUE(db.Get("OutF").value()->SetEquals(*db.Get("OutZ").value()));
}

TEST(EngineTest, MissingInputFails) {
  Database db;
  Engine engine(cost::ClusterConfig{});
  EXPECT_FALSE(engine.Run(CountJob("Nope", "Out"), &db).ok());
}

TEST(EngineTest, MismatchedScalesFail) {
  Database db;
  Relation a = MakeRelation("A", 1, {{1}});
  Relation b = MakeRelation("B", 1, {{1}});
  b.set_representation_scale(10.0);
  db.Put(a);
  db.Put(b);
  JobSpec spec = CountJob("A", "Out");
  spec.inputs.push_back({"B"});
  Engine engine(cost::ClusterConfig{});
  auto r = engine.Run(spec, &db);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// ---- Scheduler -------------------------------------------------------------

JobStats FakeJob(const std::string& name, std::vector<double> maps,
                 std::vector<double> reds, double overhead = 0.0) {
  JobStats js;
  js.job_name = name;
  js.map_task_costs = std::move(maps);
  js.reduce_task_costs = std::move(reds);
  js.job_overhead = overhead;
  return js;
}

TEST(SchedulerTest, SingleJobIsMapPlusReduce) {
  cost::ClusterConfig c;
  c.nodes = 1;
  c.map_slots_per_node = 2;
  c.reduce_slots_per_node = 2;
  c.costs.job_overhead = 1.0;
  // 4 map tasks of 10 on 2 slots -> 2 waves = 20; then 1 reduce of 5.
  std::vector<JobStats> jobs = {FakeJob("j", {10, 10, 10, 10}, {5})};
  double net = SimulateNetTime(jobs, {{}}, c);
  EXPECT_DOUBLE_EQ(net, 1.0 + 20.0 + 5.0);
}

TEST(SchedulerTest, IndependentJobsShareSlots) {
  cost::ClusterConfig c;
  c.nodes = 1;
  c.map_slots_per_node = 2;
  c.reduce_slots_per_node = 2;
  c.costs.job_overhead = 0.0;
  // Two independent jobs, each 2 maps of 10: with 2 slots total the maps
  // serialize across jobs -> makespan 20 + reduce 5.
  std::vector<JobStats> jobs = {FakeJob("a", {10, 10}, {5}),
                                FakeJob("b", {10, 10}, {5})};
  double net = SimulateNetTime(jobs, {{}, {}}, c);
  EXPECT_DOUBLE_EQ(net, 25.0);
  // With 4 slots they overlap fully.
  c.map_slots_per_node = 4;
  EXPECT_DOUBLE_EQ(SimulateNetTime(jobs, {{}, {}}, c), 15.0);
}

TEST(SchedulerTest, DependencyChainsSerialize) {
  cost::ClusterConfig c;
  c.nodes = 10;
  c.map_slots_per_node = 10;
  c.costs.job_overhead = 2.0;
  std::vector<JobStats> jobs = {FakeJob("a", {10}, {5}),
                                FakeJob("b", {10}, {5})};
  // b depends on a: net = (2+10+5) + (2+10+5).
  double net = SimulateNetTime(jobs, {{}, {0}}, c);
  EXPECT_DOUBLE_EQ(net, 34.0);
}

TEST(SchedulerTest, ReduceWaitsForAllMaps) {
  cost::ClusterConfig c;
  c.nodes = 1;
  c.map_slots_per_node = 4;
  c.reduce_slots_per_node = 4;
  c.costs.job_overhead = 0.0;
  // Straggler map of 100 gates the reduce phase (slowstart = 1).
  std::vector<JobStats> jobs = {FakeJob("j", {1, 1, 1, 100}, {1})};
  EXPECT_DOUBLE_EQ(SimulateNetTime(jobs, {{}}, c), 101.0);
}

// ---- Bloom filters (DESIGN.md §5.2) -----------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  Xoshiro256 rng(7);
  BloomFilter f(1000, 0.01);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(rng.Next());
  for (uint64_t k : keys) f.Insert(k);
  for (uint64_t k : keys) EXPECT_TRUE(f.MightContain(k));
}

TEST(BloomFilterTest, EmptyAndDefaultFiltersContainNothing) {
  BloomFilter def;  // default-constructed: zero bytes
  EXPECT_FALSE(def.MightContain(42));
  EXPECT_DOUBLE_EQ(def.SizeBytes(), 0.0);
  BloomFilter sized(100, 0.01);  // sized but nothing inserted
  EXPECT_FALSE(sized.MightContain(42));
  EXPECT_GT(sized.SizeBytes(), 0.0);
}

TEST(BloomFilterTest, FalsePositiveRateNearTarget) {
  Xoshiro256 rng(11);
  const size_t n = 5000;
  BloomFilter f(n, 0.01);
  std::set<uint64_t> inserted;
  while (inserted.size() < n) inserted.insert(rng.Next());
  for (uint64_t k : inserted) f.Insert(k);
  size_t fp = 0;
  const size_t probes = 20000;
  for (size_t i = 0; i < probes; ++i) {
    uint64_t k = rng.Next();
    if (inserted.count(k) == 0 && f.MightContain(k)) ++fp;
  }
  // 1% target; allow generous slack for hash imperfections.
  EXPECT_LT(static_cast<double>(fp) / static_cast<double>(probes), 0.03);
}

TEST(BloomFilterTest, SizeScalesWithKeysAndFpp) {
  BloomFilter small(1000, 0.01);
  BloomFilter big(10000, 0.01);
  BloomFilter sloppy(10000, 0.1);
  EXPECT_GT(big.SizeBytes(), small.SizeBytes());
  EXPECT_LT(sloppy.SizeBytes(), big.SizeBytes());
}

// ---- Dedup combiner (DESIGN.md §5.1) ----------------------------------------

// Builds a flat message; payloads beyond the inline capacity spill into
// `arena`, mirroring what MapOutputBuffer does.
Message Msg(uint32_t tag, uint32_t aux, const Tuple& payload,
            std::vector<uint64_t>* arena, double wire = 3.0) {
  Message m;
  m.tag = tag;
  m.aux = aux;
  m.wire_bytes = wire;
  m.payload_size = payload.size();
  if (payload.size() <= Message::kInlinePayloadValues) {
    uint32_t i = 0;
    for (const Value& v : payload) m.inline_payload[i++] = v.raw();
  } else {
    m.payload_pos = static_cast<uint32_t>(payload.EncodeTo(arena));
  }
  return m;
}

TEST(DedupCombinerTest, RemovesDuplicatesKeepsFirstOccurrenceOrder) {
  DedupCombiner combiner;
  std::vector<uint64_t> arena;
  std::vector<Message> values;
  values.push_back(Msg(2, 0, Tuple{}, &arena));
  values.push_back(Msg(1, 0, Tuple::Ints({7}), &arena));
  values.push_back(Msg(2, 0, Tuple{}, &arena));  // duplicate of [0]
  values.push_back(Msg(2, 1, Tuple{}, &arena));  // distinct aux
  values.push_back(Msg(1, 0, Tuple::Ints({8}), &arena));  // distinct payload
  values.push_back(Msg(1, 0, Tuple::Ints({7}), &arena));  // duplicate of [1]
  std::vector<uint64_t> key_words;
  Tuple::Ints({1}).EncodeTo(&key_words);
  const size_t kept =
      combiner.Combine(key_words.data(), 1, values.data(), values.size(),
                       arena.data());
  ASSERT_EQ(kept, 4u);
  EXPECT_EQ(values[0].tag, 2u);
  EXPECT_EQ(MessageRef(&values[1], arena.data()).PayloadTuple(),
            Tuple::Ints({7}));
  EXPECT_EQ(values[2].aux, 1u);
  EXPECT_EQ(MessageRef(&values[3], arena.data()).PayloadTuple(),
            Tuple::Ints({8}));
}

TEST(DedupCombinerTest, SpilledPayloadsCompareByWords) {
  DedupCombiner combiner;
  std::vector<uint64_t> arena;
  std::vector<Message> values;
  // Arity 5 > kInlinePayloadValues: payloads live in the arena.
  Tuple big1 = Tuple::Ints({1, 2, 3, 4, 5});
  Tuple big2 = Tuple::Ints({1, 2, 3, 4, 6});
  values.push_back(Msg(1, 0, big1, &arena));
  values.push_back(Msg(1, 0, big2, &arena));  // distinct
  values.push_back(Msg(1, 0, big1, &arena));  // duplicate of [0]
  std::vector<uint64_t> key_words;
  Tuple::Ints({9}).EncodeTo(&key_words);
  const size_t kept = combiner.Combine(key_words.data(), 1, values.data(),
                                       values.size(), arena.data());
  ASSERT_EQ(kept, 2u);
  EXPECT_EQ(MessageRef(&values[0], arena.data()).PayloadTuple(), big1);
  EXPECT_EQ(MessageRef(&values[1], arena.data()).PayloadTuple(), big2);
}

// ---- Engine accounting of combiners and filters -----------------------------

// A mapper that emits `copies` identical messages per fact, keyed by the
// first attribute.
class DupMapper : public Mapper {
 public:
  explicit DupMapper(int copies) : copies_(copies) {}
  void Map(size_t, RowView fact, uint64_t, Emitter* emitter) override {
    for (int i = 0; i < copies_; ++i) {
      emitter->Emit(Tuple{fact[0]}, /*tag=*/1, /*aux=*/0, /*wire_bytes=*/4.0);
    }
  }

 private:
  int copies_;
};

class KeyCountReducer : public Reducer {
 public:
  void Reduce(TupleView key, const MessageGroup& values,
              ReduceEmitter* emitter) override {
    Tuple out;
    out.PushBack(key[0]);
    out.PushBack(Value::Int(values.empty() ? 0 : 1));  // set semantics
    emitter->Emit(0, out);
  }
};

JobSpec DupJob(const std::string& in, const std::string& out, bool combine) {
  JobSpec spec;
  spec.name = "dup";
  spec.inputs.push_back({in});
  JobOutput o;
  o.dataset = out;
  o.arity = 2;
  spec.outputs.push_back(o);
  spec.mapper_factory = [] { return std::make_unique<DupMapper>(3); };
  spec.reducer_factory = [] { return std::make_unique<KeyCountReducer>(); };
  if (combine) {
    spec.combiner_factory = [] { return std::make_unique<DedupCombiner>(); };
  }
  return spec;
}

TEST(EngineTest, CombinerShrinksShuffleAndIsAccounted) {
  Database db;
  Relation r("In", 1);
  for (int64_t i = 0; i < 200; ++i) ASSERT_OK(r.Add(Tuple::Ints({i % 20})));
  db.Put(std::move(r));
  Engine engine(SmallCluster());
  auto with = engine.Run(DupJob("In", "OutC", true), &db);
  auto without = engine.Run(DupJob("In", "OutN", false), &db);
  ASSERT_OK(with);
  ASSERT_OK(without);
  // Identical result *sets* (the combiner can change the reducer count,
  // which permutes raw output order; canonical query outputs are sorted
  // downstream), smaller shuffle, exact message conservation.
  EXPECT_TRUE(db.Get("OutC").value()->SetEquals(*db.Get("OutN").value()));
  EXPECT_LT(with->shuffle_mb, without->shuffle_mb);
  EXPECT_GT(with->combined_messages, 0u);
  EXPECT_GT(with->combined_mb, 0.0);
  EXPECT_EQ(with->shuffle_messages + with->combined_messages,
            without->shuffle_messages);
  EXPECT_EQ(without->combined_messages, 0u);
  // The dedup never crosses reduce keys: every key still arrives.
  EXPECT_EQ(db.Get("OutC").value()->size(), 20u);
}

TEST(EngineTest, CombinerWithoutPackingStillDedupes) {
  Database db;
  Relation r("In", 1);
  for (int64_t i = 0; i < 60; ++i) ASSERT_OK(r.Add(Tuple::Ints({i % 6})));
  db.Put(std::move(r));
  Engine engine(SmallCluster());
  JobSpec spec = DupJob("In", "Out", true);
  spec.pack_messages = false;
  auto stats = engine.Run(spec, &db);
  ASSERT_OK(stats);
  EXPECT_GT(stats->combined_messages, 0u);
  EXPECT_EQ(db.Get("Out").value()->size(), 6u);
}

// A mapper that consults filter 0 before emitting (like the ops mappers).
class FilteringMapper : public Mapper {
 public:
  void AttachFilters(const FilterSet* filters) override { filters_ = filters; }
  uint64_t SuppressedEmissions() const override { return suppressed_; }
  void Map(size_t, RowView fact, uint64_t, Emitter* emitter) override {
    Tuple key{fact[0]};
    const uint64_t h = key.Hash();
    if (filters_ != nullptr && !filters_->filter(0).MightContain(h)) {
      ++suppressed_;
      return;
    }
    emitter->EmitPrehashed(key, h, /*tag=*/1, /*aux=*/0, /*wire_bytes=*/4.0);
  }

 private:
  const FilterSet* filters_ = nullptr;
  uint64_t suppressed_ = 0;
};

TEST(EngineTest, FilterBuilderAttachesAndAccounts) {
  Database db;
  Relation r("In", 1);
  for (int64_t i = 0; i < 100; ++i) ASSERT_OK(r.Add(Tuple::Ints({i})));
  db.Put(std::move(r));

  JobSpec spec;
  spec.name = "filtered";
  spec.inputs.push_back({"In"});
  JobOutput o;
  o.dataset = "Out";
  o.arity = 2;
  spec.outputs.push_back(o);
  spec.mapper_factory = [] { return std::make_unique<FilteringMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<KeyCountReducer>(); };
  // Filter admits only even keys.
  spec.filter_builder =
      [](const std::vector<const Relation*>& rels) -> Result<FilterPlan> {
    FilterPlan plan;
    plan.filters.Add(BloomFilter(rels[0]->size(), 0.01));
    plan.passes.push_back({0, 0, [](RowView t, uint64_t* h) {
                             if (t[0].AsInt() % 2 != 0) return false;
                             *h = Tuple{t[0]}.Hash();
                             return true;
                           }});
    return plan;
  };

  Engine engine(SmallCluster());
  auto stats = engine.Run(spec, &db);
  ASSERT_OK(stats);
  // ~50 odd keys suppressed (no false negatives: all evens pass).
  EXPECT_GE(stats->filtered_messages, 45u);
  EXPECT_GT(stats->filter_mb, 0.0);
  EXPECT_GT(stats->filter_broadcast_mb, 0.0);
  EXPECT_GT(stats->filter_build_cost, 0.0);
  EXPECT_GE(db.Get("Out").value()->size(), 50u);  // evens always survive
}

TEST(ProgramTest, RoundsIsLongestChain) {
  Program p;
  JobSpec s;
  s.name = "x";
  s.mapper_factory = [] { return nullptr; };
  s.reducer_factory = [] { return nullptr; };
  size_t a = p.AddJob(s);
  size_t b = p.AddJob(s);
  size_t cjob = p.AddJob(s, {a, b});
  p.AddJob(s, {cjob});
  EXPECT_EQ(p.Rounds(), 3);
}

}  // namespace
}  // namespace gumbo::mr
