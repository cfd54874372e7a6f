// Tests for the sharded execution stack (DESIGN.md §13): wire frames,
// transports, shuffle export/import, and the oracle of the whole design —
// sharded runs (in-process threads and real worker processes) are
// byte-identical (words + fingerprints) to the single-process runtime at
// any shard count.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cancel.h"
#include "common/dictionary.h"
#include "data/workloads.h"
#include "dist/cluster.h"
#include "dist/sharded.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "mr/engine.h"
#include "mr/map_output.h"
#include "mr/shuffle.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "serve/service.h"
#include "test_util.h"

#ifndef GUMBO_WORKER_BIN
#define GUMBO_WORKER_BIN ""
#endif

namespace gumbo::dist {
namespace {

using ::gumbo::testing::MakeRelation;

// ---- Wire frames ------------------------------------------------------------

TEST(WireTest, FrameRoundTripsTypedFields) {
  FrameWriter w;
  w.U32(7);
  w.U64(0xDEADBEEFCAFEF00DULL);
  w.F64(-1234.5);
  w.Str("hello wire");
  const std::vector<uint64_t> words = {1, 2, 3};
  w.Words(words.data(), words.size());
  const std::vector<uint8_t> frame =
      w.Finish(FrameType::kJobStats, /*src_shard=*/3, /*aux=*/9);
  EXPECT_EQ(w.body_bytes(), 0u);  // writer reusable after Finish

  auto rd = FrameReader::Parse(frame);
  ASSERT_OK(rd);
  EXPECT_EQ(rd->type(), FrameType::kJobStats);
  EXPECT_EQ(rd->src_shard(), 3u);
  EXPECT_EQ(rd->aux(), 9u);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0.0;
  std::string s;
  std::vector<uint64_t> back;
  ASSERT_OK(rd->ReadU32(&u32));
  ASSERT_OK(rd->ReadU64(&u64));
  ASSERT_OK(rd->ReadF64(&f64));
  ASSERT_OK(rd->ReadStr(&s));
  ASSERT_OK(rd->ReadWords(words.size(), &back));
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(f64, -1234.5);
  EXPECT_EQ(s, "hello wire");
  EXPECT_EQ(back, words);
  EXPECT_EQ(rd->remaining(), 0u);
  // Over-reads are bounds-checked, not UB.
  EXPECT_FALSE(rd->ReadU32(&u32).ok());
}

// The nasty-value gauntlet: negatives, interned string ids (high-bit
// words at kStringBase), wide rows (heap Tuples), and 0-arity rows must
// all survive a relation round-trip with words AND stored fingerprints
// bit-for-bit intact.
TEST(WireTest, RelationRoundTripsNastyValues) {
  Relation rel("nasty", 4);
  Dictionary* dict = &Dictionary::Global();
  {
    Tuple t;
    t.PushBack(Value::Int(-1));
    t.PushBack(Value::Int(std::numeric_limits<int32_t>::min()));
    t.PushBack(dict->Intern("wire-string-a"));
    t.PushBack(Value::Int(0));
    ASSERT_OK(rel.Add(t));
  }
  {
    Tuple t;
    t.PushBack(dict->Intern("wire-string-b"));
    t.PushBack(dict->Intern(""));
    t.PushBack(Value::Int(-987654321));
    t.PushBack(dict->Intern("wire-string-a"));
    ASSERT_OK(rel.Add(t));
  }
  rel.set_bytes_per_tuple(40.0);
  rel.set_representation_scale(250000.0);

  const std::vector<uint8_t> frame = EncodeRelationFrame(rel, /*src=*/1);
  auto rd = FrameReader::Parse(frame);
  ASSERT_OK(rd);
  EXPECT_EQ(rd->type(), FrameType::kRelation);
  auto back = DecodeRelationBody(&*rd);
  ASSERT_OK(back);
  EXPECT_EQ(back->name(), "nasty");
  EXPECT_EQ(back->arity(), 4u);
  EXPECT_EQ(back->words(), rel.words());
  EXPECT_EQ(back->fingerprints(), rel.fingerprints());
  EXPECT_EQ(back->bytes_per_tuple(), 40.0);
  EXPECT_EQ(back->representation_scale(), 250000.0);
  // The decoded string ids still resolve.
  EXPECT_EQ(back->view(0)[2].string_id(), dict->Intern("wire-string-a").string_id());
}

TEST(WireTest, RelationRoundTripsZeroArityRows) {
  Relation rel("unit", 0);
  ASSERT_OK(rel.Add(Tuple{}));
  ASSERT_OK(rel.Add(Tuple{}));
  const std::vector<uint8_t> frame = EncodeRelationFrame(rel, /*src=*/0);
  auto rd = FrameReader::Parse(frame);
  ASSERT_OK(rd);
  auto back = DecodeRelationBody(&*rd);
  ASSERT_OK(back);
  EXPECT_EQ(back->arity(), 0u);
  EXPECT_EQ(back->size(), 2u);
  EXPECT_EQ(back->fingerprints(), rel.fingerprints());
}

TEST(WireTest, RejectsTruncatedForeignSkewedAndCorruptFrames) {
  const std::vector<uint8_t> frame =
      EncodeRelationFrame(MakeRelation("r", 2, {{1, 2}, {3, -4}}), 0);
  ASSERT_GT(frame.size(), kFrameHeaderBytes);

  {  // truncated: shorter than the header
    std::vector<uint8_t> t(frame.begin(), frame.begin() + 10);
    EXPECT_FALSE(FrameReader::Parse(t).ok());
  }
  {  // truncated: header promises more body than present
    std::vector<uint8_t> t(frame.begin(), frame.end() - 1);
    EXPECT_FALSE(FrameReader::Parse(t).ok());
  }
  {  // foreign magic (offset 0)
    std::vector<uint8_t> t = frame;
    t[0] ^= 0xFF;
    EXPECT_FALSE(FrameReader::Parse(t).ok());
  }
  {  // version skew (offset 4)
    std::vector<uint8_t> t = frame;
    t[4] += 1;
    EXPECT_FALSE(FrameReader::Parse(t).ok());
  }
  {  // version 2 (FNV-1a checksums, same layout)
    std::vector<uint8_t> t = frame;
    const uint16_t v2 = 2;
    std::memcpy(t.data() + 4, &v2, sizeof(v2));
    auto r = FrameReader::Parse(t);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  {  // corrupt body -> checksum mismatch
    std::vector<uint8_t> t = frame;
    t[kFrameHeaderBytes] ^= 0x01;
    auto r = FrameReader::Parse(t);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  // The untouched frame still parses (the mutations above were the
  // problem, not the fixture).
  EXPECT_OK(FrameReader::Parse(frame));

  // Every single-bit flip of a 0-100 byte body fails the checksum. The
  // lengths cross the 32-byte lane stripe and the 8-, 4- and 1-byte
  // tails of the checksum.
  for (size_t len = 0; len <= 100; ++len) {
    FrameWriter w;
    uint8_t* body = w.Extend(len);
    for (size_t i = 0; i < len; ++i) {
      body[i] = static_cast<uint8_t>(i * 131 + len);
    }
    const std::vector<uint8_t> sealed = w.Finish(FrameType::kRelation, 0);
    ASSERT_OK(FrameReader::Parse(sealed));
    for (size_t bit = 0; bit < len * 8; ++bit) {
      std::vector<uint8_t> t = sealed;
      t[kFrameHeaderBytes + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      auto r = FrameReader::Parse(t);
      ASSERT_FALSE(r.ok()) << len << "-byte body, bit " << bit;
      ASSERT_EQ(r.status().code(), StatusCode::kParseError);
    }
  }
}

// The frame checksum is XXH64 with seed 0: the published reference
// values, from the empty input (no stripe, no tail) to 39 bytes (one
// 32-byte stripe, then 4- and 1-byte tails).
TEST(WireTest, ChecksumMatchesXxh64ReferenceValues) {
  auto checksum = [](const std::string& s) {
    return WireChecksum(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  };
  EXPECT_EQ(checksum(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(checksum("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(checksum("abc"), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(checksum("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ull);
}

// A checksum-valid relation frame whose row count its body cannot hold
// fails with ParseError before anything is allocated for it: 2^40 rows
// of arity 8 (8 TiB of words), and 2^61 rows, whose word count
// 2^61 × 8 wraps to 0.
TEST(WireTest, RejectsRowCountsTheBodyCannotHold) {
  for (const uint64_t rows : {uint64_t{1} << 40, uint64_t{1} << 61}) {
    SCOPED_TRACE(rows);
    FrameWriter w;
    w.Str("forged");
    w.U32(8);
    w.F64(0.0);
    w.F64(1.0);
    w.U64(rows);
    w.U64(42);  // one word, where the claim needs rows × 9
    const std::vector<uint8_t> frame = w.Finish(FrameType::kRelation, 0);
    auto rd = FrameReader::Parse(frame);
    ASSERT_OK(rd);
    auto rel = DecodeRelationBody(&*rd);
    ASSERT_FALSE(rel.ok());
    EXPECT_EQ(rel.status().code(), StatusCode::kParseError);
  }
}

TEST(WireTest, ErrorFrameCarriesStatus) {
  const Status s = Status::Unavailable("shard 2 lost its replica");
  const std::vector<uint8_t> frame = EncodeErrorFrame(s, /*src=*/2);
  auto rd = FrameReader::Parse(frame);
  ASSERT_OK(rd);
  ASSERT_EQ(rd->type(), FrameType::kError);
  const Status back = DecodeErrorBody(&*rd);
  EXPECT_EQ(back.code(), StatusCode::kUnavailable);
  EXPECT_NE(back.ToString().find("shard 2 lost its replica"),
            std::string::npos);
}

// The kJobStats counter block: every mr::JobCounters field survives the
// codec and is summed by +=. A field left out of ForEachField would
// stay zero below and fail the word scan.
TEST(WireTest, JobCountersRoundTripEveryField) {
  static_assert(std::is_trivially_copyable_v<mr::JobCounters>);
  mr::JobCounters c;
  uint64_t next = 1;
  mr::JobCounters::ForEachField([&](auto field) {
    using T = std::remove_reference_t<decltype(c.*field)>;
    if constexpr (std::is_floating_point_v<T>) {
      c.*field = static_cast<T>(next) + 0.5;
    } else {
      c.*field = next;
    }
    ++next;
  });
  for (size_t off = 0; off < sizeof(c); off += sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, reinterpret_cast<const uint8_t*>(&c) + off,
                sizeof(word));
    EXPECT_NE(word, 0u) << "the field at byte " << off
                        << " is missing from ForEachField";
  }

  FrameWriter w;
  EncodeJobCounters(c, &w);
  const std::vector<uint8_t> frame = w.Finish(FrameType::kJobStats, 1);
  auto rd = FrameReader::Parse(frame);
  ASSERT_OK(rd);
  mr::JobCounters back;
  ASSERT_OK(DecodeJobCounters(&*rd, &back));
  EXPECT_EQ(rd->remaining(), 0u);
  mr::JobCounters twice = c;
  twice += c;
  mr::JobCounters::ForEachField([&](auto field) {
    EXPECT_EQ(back.*field, c.*field);
    EXPECT_EQ(twice.*field, c.*field * 2);
  });

  // A body too short for the block fails with a typed error.
  FrameWriter empty;
  const std::vector<uint8_t> short_frame =
      empty.Finish(FrameType::kJobStats, 1);
  auto short_rd = FrameReader::Parse(short_frame);
  ASSERT_OK(short_rd);
  EXPECT_EQ(DecodeJobCounters(&*short_rd, &back).code(),
            StatusCode::kParseError);
}

// ---- Shuffle export / import ------------------------------------------------

// One exported record, flattened for comparison.
struct FlatRecord {
  uint32_t key_arity = 0;
  uint64_t fingerprint = 0;
  double wire_bytes = 0.0;
  std::vector<uint64_t> key;
  // Per message: tag, aux, payload words, wire bytes.
  std::vector<std::tuple<uint32_t, uint32_t, std::vector<uint64_t>, double>>
      msgs;
  bool operator==(const FlatRecord& o) const {
    return key_arity == o.key_arity && fingerprint == o.fingerprint &&
           wire_bytes == o.wire_bytes && key == o.key && msgs == o.msgs;
  }
};

std::vector<FlatRecord> FlattenTask(const mr::Shuffle& sh, size_t ti) {
  std::vector<FlatRecord> out;
  sh.ForEachTaskRecord(
      ti, [&](const mr::Shuffle::KeyEntry& e, const uint64_t* key_words,
              const mr::Message* msgs, const uint64_t* payload_arena) {
        FlatRecord r;
        r.key_arity = e.key_arity;
        r.fingerprint = e.fingerprint;
        r.wire_bytes = e.wire_bytes;
        r.key.assign(key_words, key_words + e.key_arity);
        for (uint32_t i = 0; i < e.msg_count; ++i) {
          const mr::Message& m = msgs[i];
          const uint64_t* p = m.payload_words(payload_arena);
          r.msgs.emplace_back(m.tag, m.aux,
                              std::vector<uint64_t>(p, p + m.payload_size),
                              m.wire_bytes);
        }
        out.push_back(std::move(r));
      });
  return out;
}

// Seals `body` as a kShuffleChunk frame and decodes it into `into`.
Status ImportChunk(const std::vector<uint8_t>& body, mr::Shuffle* into) {
  FrameWriter w;
  if (!body.empty()) {
    std::memcpy(w.Extend(body.size()), body.data(), body.size());
  }
  const std::vector<uint8_t> frame = w.Finish(FrameType::kShuffleChunk, 0);
  GUMBO_ASSIGN_OR_RETURN(FrameReader rd, FrameReader::Parse(frame));
  return DecodeShuffleChunk(&rd, into);
}

// Exporting every record of one shuffle through the kShuffleChunk codec
// and importing it into a fresh one (the sharded runtime's exchange
// path, minus the transport) must reproduce keys — a zero-arity one
// included — fingerprints, payloads — heap-spilled ones included — and
// wire accounting verbatim. A chunk cut anywhere but between records,
// or a record claiming more messages than its bytes hold, fails with
// ParseError before anything is allocated for the claim.
TEST(ShuffleWireTest, ExportImportRoundTripsRecords) {
  for (const bool pack : {true, false}) {
    SCOPED_TRACE(pack ? "packed" : "unpacked");
    mr::Shuffle src(/*num_map_tasks=*/2, pack);
    {
      mr::MapOutputBuffer buf;
      Tuple spilled;  // 3 values > Message::kInlinePayloadValues -> arena
      spilled.PushBack(Value::Int(-7));
      spilled.PushBack(Value::Int(1ull << 40));
      spilled.PushBack(Dictionary::Global().Intern("spill"));
      buf.Emit(Tuple{Value::Int(5)}, /*tag=*/1, /*aux=*/0, spilled, 34.0);
      buf.Emit(Tuple{Value::Int(5)}, /*tag=*/0, /*aux=*/3, 14.0);  // packed pair
      buf.Emit(Tuple{Value::Int(-5)}, /*tag=*/2, /*aux=*/1,
               Tuple{Value::Int(9)}, 24.0);  // inline payload
      buf.Emit(Tuple{}, /*tag=*/3, /*aux=*/2, Tuple{Value::Int(4)},
               16.0);  // zero-arity key
      ASSERT_OK(src.AddTaskOutput(0, std::move(buf)));
    }
    {
      mr::MapOutputBuffer buf;
      buf.Emit(Tuple{Value::Int(5)}, /*tag=*/0, /*aux=*/7, 14.0);
      ASSERT_OK(src.AddTaskOutput(1, std::move(buf)));
    }

    FrameWriter w;
    std::vector<size_t> record_ends;
    for (size_t ti = 0; ti < 2; ++ti) {
      src.ForEachTaskRecord(
          ti, [&](const mr::Shuffle::KeyEntry& e, const uint64_t* key_words,
                  const mr::Message* msgs, const uint64_t* payload_arena) {
            EncodeShuffleRecord(static_cast<uint32_t>(ti), e, key_words, msgs,
                                payload_arena, &w);
            record_ends.push_back(w.body_bytes());
          });
    }
    const std::vector<uint8_t> frame = w.Finish(FrameType::kShuffleChunk, 0);
    const std::vector<uint8_t> body(frame.begin() + kFrameHeaderBytes,
                                    frame.end());

    mr::Shuffle dst(/*num_map_tasks=*/2, pack);
    ASSERT_OK(ImportChunk(body, &dst));
    for (size_t ti = 0; ti < 2; ++ti) {
      EXPECT_EQ(FlattenTask(src, ti), FlattenTask(dst, ti))
          << "task " << ti;
    }

    for (size_t cut = 0; cut < body.size(); ++cut) {
      mr::Shuffle partial(/*num_map_tasks=*/2, pack);
      const Status s = ImportChunk(
          std::vector<uint8_t>(body.begin(), body.begin() + cut), &partial);
      const bool between_records =
          cut == 0 || std::find(record_ends.begin(), record_ends.end(),
                                cut) != record_ends.end();
      if (between_records) {
        EXPECT_OK(s) << "cut at " << cut;
      } else {
        EXPECT_EQ(s.code(), StatusCode::kParseError) << "cut at " << cut;
      }
    }
  }

  // One record of task 0, key (5), claiming 2^32 - 1 messages with one
  // message header's worth of bytes behind its key.
  FrameWriter forged;
  forged.U32(0);
  forged.U32(1);
  forged.U64(Tuple{Value::Int(5)}.Hash());
  forged.F64(8.0);
  forged.U32(0xFFFFFFFFu);
  forged.U64(Value::Int(5).raw());
  forged.U32(0);
  forged.U32(0);
  forged.U32(0);
  forged.F64(0.0);
  const std::vector<uint8_t> frame = forged.Finish(FrameType::kShuffleChunk, 0);
  mr::Shuffle dst(/*num_map_tasks=*/2, /*pack_messages=*/true);
  const Status s = ImportChunk(
      std::vector<uint8_t>(frame.begin() + kFrameHeaderBytes, frame.end()),
      &dst);
  EXPECT_EQ(s.code(), StatusCode::kParseError) << s.ToString();
}

// ---- Transports -------------------------------------------------------------

TEST(TransportTest, InProcDeliversPerChannelInOrder) {
  InProcTransport tp(3);
  EXPECT_EQ(tp.endpoints(), 3);
  ASSERT_OK(tp.Send(0, 2, {1}));
  ASSERT_OK(tp.Send(1, 2, {2}));
  ASSERT_OK(tp.Send(0, 2, {3}));
  // Channels are independent; within (0 -> 2), send order holds.
  auto a = tp.Recv(2, 0, /*timeout_ms=*/1000);
  auto b = tp.Recv(2, 1, /*timeout_ms=*/1000);
  auto c = tp.Recv(2, 0, /*timeout_ms=*/1000);
  ASSERT_OK(a);
  ASSERT_OK(b);
  ASSERT_OK(c);
  EXPECT_EQ((*a)[0], 1);
  EXPECT_EQ((*b)[0], 2);
  EXPECT_EQ((*c)[0], 3);
}

TEST(TransportTest, InProcRecvTimesOut) {
  InProcTransport tp(2);
  auto r = tp.Recv(1, 0, /*timeout_ms=*/10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(TransportTest, MmapRoundTripsFramesThroughADirectory) {
  char dir_template[] = "/tmp/gumbo_dist_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  {
    // Two transport instances over one mailbox, as two processes would.
    MmapTransport sender(dir, 2);
    MmapTransport receiver(dir, 2);
    const std::vector<uint8_t> f1 = {0xAA, 0xBB, 0xCC};
    const std::vector<uint8_t> f2(4096, 0x5E);  // multi-page payload
    ASSERT_OK(sender.Send(0, 1, f1));
    ASSERT_OK(sender.Send(0, 1, f2));
    auto r1 = receiver.Recv(1, 0, /*timeout_ms=*/5000);
    auto r2 = receiver.Recv(1, 0, /*timeout_ms=*/5000);
    ASSERT_OK(r1);
    ASSERT_OK(r2);
    EXPECT_EQ(*r1, f1);
    EXPECT_EQ(*r2, f2);
    auto empty = receiver.Recv(1, 0, /*timeout_ms=*/10);
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), StatusCode::kDeadlineExceeded);
  }
  std::filesystem::remove_all(dir);
}

// ---- Sharded execution: the byte-identity oracle ----------------------------

cost::ClusterConfig TestCluster() {
  cost::ClusterConfig c;
  c.split_mb = 0.0005;       // many map tasks even on tiny samples
  c.mb_per_reducer = 0.0005; // several reduce partitions
  return c;
}

Result<data::Workload> SmallWorkload(const std::string& name) {
  data::GeneratorConfig g;
  g.tuples = 400;
  g.representation_scale = 1.0;
  g.seed = 7;
  if (name == "A1") return data::MakeA(1, g);
  if (name == "A3") return data::MakeA(3, g);
  if (name == "B1") return data::MakeB(1, g);
  return Status::InvalidArgument("unknown workload " + name);
}

// name -> (words, fingerprints) of every query output.
using OutputBytes =
    std::map<std::string,
             std::pair<std::vector<uint64_t>, std::vector<uint64_t>>>;

OutputBytes RunWorkload(const std::string& wl, int local_shards,
                        double* dist_wire_mb = nullptr) {
  OutputBytes out;
  auto w = SmallWorkload(wl);
  EXPECT_OK(w);
  if (!w.ok()) return out;
  const cost::ClusterConfig config = TestCluster();
  plan::Planner planner(config, plan::PlannerOptions{});
  auto plan = planner.Plan(w->query, w->db);
  EXPECT_OK(plan);
  if (!plan.ok()) return out;
  mr::Engine engine(config);
  plan::ExecutionContext ectx;
  ectx.local_shards = local_shards;
  auto result =
      plan::ExecutePlanOnSnapshot(*plan, &engine, w->db, &w->db, ectx);
  EXPECT_OK(result);
  if (!result.ok()) return out;
  if (dist_wire_mb != nullptr) *dist_wire_mb = result->metrics.dist_wire_mb;
  for (const auto& q : w->query.subqueries()) {
    auto rel = w->db.Get(q.output());
    EXPECT_OK(rel);
    if (!rel.ok()) continue;
    out[q.output()] = {(*rel)->words(), (*rel)->fingerprints()};
  }
  return out;
}

TEST(ShardedTest, ByteIdenticalToSingleProcessAtAnyShardCount) {
  for (const std::string wl : {"A1", "A3", "B1"}) {
    const OutputBytes reference = RunWorkload(wl, /*local_shards=*/1);
    ASSERT_FALSE(reference.empty()) << wl;
    for (const int shards : {2, 3, 4}) {
      SCOPED_TRACE(wl + " at " + std::to_string(shards) + " shards");
      double wire_mb = 0.0;
      const OutputBytes sharded = RunWorkload(wl, shards, &wire_mb);
      EXPECT_EQ(sharded, reference);
      // Real frames crossed the (in-process) wire and were charged.
      EXPECT_GT(wire_mb, 0.0);
    }
  }
}

TEST(ShardedTest, SingleShardChargesNoWireBytes) {
  double wire_mb = -1.0;
  RunWorkload("A1", /*local_shards=*/1, &wire_mb);
  EXPECT_EQ(wire_mb, 0.0);
}

// The coordinator's merged job stats equal the single-process run's,
// field by field: the summed counters, the per-task costs, the per-input
// N_i and M_i, the reducer count, and the Bloom figures every shard
// computes alike. The wire charge is the one addition.
TEST(ShardedTest, ShardStatsMatchSingleProcess) {
  for (const std::string wl : {"A1", "A3", "B1"}) {
    auto w = SmallWorkload(wl);
    ASSERT_OK(w);
    const cost::ClusterConfig config = TestCluster();
    plan::Planner planner(config, plan::PlannerOptions{});
    auto plan = planner.Plan(w->query, w->db);
    ASSERT_OK(plan);
    mr::Engine engine(config);
    auto run = [&](int shards) {
      plan::ExecutionContext ectx;
      ectx.local_shards = shards;
      Database outputs;
      return plan::ExecutePlanOnSnapshot(*plan, &engine, w->db, &outputs,
                                         ectx);
    };
    const auto single = run(1);
    ASSERT_OK(single);
    const std::vector<mr::JobStats>& want = single->stats.jobs;
    for (const int shards : {2, 3, 4}) {
      SCOPED_TRACE(wl + " at " + std::to_string(shards) + " shards");
      const auto sharded = run(shards);
      ASSERT_OK(sharded);
      const std::vector<mr::JobStats>& got = sharded->stats.jobs;
      ASSERT_EQ(got.size(), want.size());
      double dist_cost = 0.0;
      for (size_t j = 0; j < want.size(); ++j) {
        SCOPED_TRACE("job " + std::to_string(j));
        const mr::JobStats& a = got[j];
        const mr::JobStats& b = want[j];
        mr::JobCounters::ForEachField([&](auto field) {
          if constexpr (std::is_floating_point_v<
                            std::remove_reference_t<decltype(a.*field)>>) {
            EXPECT_DOUBLE_EQ(a.*field, b.*field);
          } else {
            EXPECT_EQ(a.*field, b.*field);
          }
        });
        ASSERT_EQ(a.map_task_costs.size(), b.map_task_costs.size());
        for (size_t i = 0; i < b.map_task_costs.size(); ++i) {
          EXPECT_DOUBLE_EQ(a.map_task_costs[i], b.map_task_costs[i]);
        }
        ASSERT_EQ(a.reduce_task_costs.size(), b.reduce_task_costs.size());
        for (size_t i = 0; i < b.reduce_task_costs.size(); ++i) {
          EXPECT_DOUBLE_EQ(a.reduce_task_costs[i], b.reduce_task_costs[i]);
        }
        ASSERT_EQ(a.inputs.size(), b.inputs.size());
        for (size_t i = 0; i < b.inputs.size(); ++i) {
          EXPECT_EQ(a.inputs[i].dataset, b.inputs[i].dataset);
          EXPECT_DOUBLE_EQ(a.inputs[i].input_mb, b.inputs[i].input_mb);
          EXPECT_DOUBLE_EQ(a.inputs[i].output_mb, b.inputs[i].output_mb);
          EXPECT_DOUBLE_EQ(a.inputs[i].metadata_mb, b.inputs[i].metadata_mb);
          EXPECT_EQ(a.inputs[i].num_map_tasks, b.inputs[i].num_map_tasks);
        }
        EXPECT_EQ(a.num_reducers, b.num_reducers);
        EXPECT_DOUBLE_EQ(a.filter_mb, b.filter_mb);
        EXPECT_DOUBLE_EQ(a.filter_broadcast_mb, b.filter_broadcast_mb);
        EXPECT_DOUBLE_EQ(a.filter_build_cost, b.filter_build_cost);
        dist_cost += a.dist_cost;
      }
      EXPECT_GT(dist_cost, 0.0);
      EXPECT_DOUBLE_EQ(sharded->stats.net_time, single->stats.net_time);
      EXPECT_DOUBLE_EQ(sharded->stats.total_time - dist_cost,
                       single->stats.total_time);
    }
  }
}

// ExecutionContext's cluster branch (a borrowed Cluster handle, the path
// the worker binary takes) must behave exactly like local_shards.
TEST(ShardedTest, ExplicitClusterMatchesLocalHarness) {
  const OutputBytes reference = RunWorkload("A3", /*local_shards=*/1);
  ASSERT_FALSE(reference.empty());

  const int shards = 3;
  InProcTransport tp(shards);
  std::vector<std::optional<OutputBytes>> results(shards);
  std::vector<std::thread> threads;
  for (int s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      auto w = SmallWorkload("A3");
      ASSERT_OK(w);
      const cost::ClusterConfig config = TestCluster();
      plan::Planner planner(config, plan::PlannerOptions{});
      auto plan = planner.Plan(w->query, w->db);
      ASSERT_OK(plan);
      mr::Engine engine(config);
      Cluster cluster{&tp, s, shards};
      plan::ExecutionContext ectx;
      ectx.cluster = &cluster;
      auto result =
          plan::ExecutePlanOnSnapshot(*plan, &engine, w->db, &w->db, ectx);
      ASSERT_OK(result);
      OutputBytes out;
      for (const auto& q : w->query.subqueries()) {
        auto rel = w->db.Get(q.output());
        ASSERT_OK(rel);
        out[q.output()] = {(*rel)->words(), (*rel)->fingerprints()};
      }
      results[s] = std::move(out);
    });
  }
  for (std::thread& t : threads) t.join();
  // Every replica — coordinator and workers — committed the same bytes.
  for (int s = 0; s < shards; ++s) {
    ASSERT_TRUE(results[s].has_value()) << "shard " << s;
    EXPECT_EQ(*results[s], reference) << "shard " << s;
  }
}

// An in-process transport whose shard 1 fails its first Send, with every
// Recv capped at 20 s: a shard left waiting on the failed peer shows up
// as a late DeadlineExceeded instead of the injected status.
class FailFirstSendTransport : public Transport {
 public:
  explicit FailFirstSendTransport(int endpoints) : inner_(endpoints) {}

  Status Send(int from, int to, std::vector<uint8_t> frame) override {
    if (from == 1 && !failed_.exchange(true)) {
      return Status::Unavailable("injected send failure");
    }
    return inner_.Send(from, to, std::move(frame));
  }
  Result<std::vector<uint8_t>> Recv(int to, int from,
                                    int timeout_ms) override {
    return inner_.Recv(to, from, std::min(timeout_ms, 20000));
  }
  int endpoints() const override { return inner_.endpoints(); }
  const char* name() const override { return "fail-first-send"; }

 private:
  InProcTransport inner_;
  std::atomic<bool> failed_{false};
};

// One shard's failure reaches every peer as a kError frame: each shard
// returns the injected status itself, well inside the Recv timeout —
// including, at 3 shards, the one that was waiting on the coordinator
// rather than on the failed shard.
TEST(ShardedTest, FailingShardUnwindsEveryPeerPromptly) {
  auto w = SmallWorkload("A1");
  ASSERT_OK(w);
  const cost::ClusterConfig config = TestCluster();
  plan::Planner planner(config, plan::PlannerOptions{});
  auto plan = planner.Plan(w->query, w->db);
  ASSERT_OK(plan);
  mr::Engine engine(config);
  for (const int shards : {2, 3}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    FailFirstSendTransport tp(shards);
    std::vector<Status> status(shards, Status::Ok());
    std::vector<double> elapsed_ms(shards, 0.0);
    std::vector<std::thread> threads;
    for (int s = 0; s < shards; ++s) {
      threads.emplace_back([&, s] {
        Cluster cluster{&tp, s, shards};
        plan::ExecutionContext ectx;
        ectx.cluster = &cluster;
        Database outputs;
        const auto start = std::chrono::steady_clock::now();
        status[s] = plan::ExecutePlanOnSnapshot(*plan, &engine, w->db,
                                                &outputs, ectx)
                        .status();
        elapsed_ms[s] = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      });
    }
    for (std::thread& t : threads) t.join();
    for (int s = 0; s < shards; ++s) {
      EXPECT_EQ(status[s].code(), StatusCode::kUnavailable)
          << "shard " << s << ": " << status[s].ToString();
      EXPECT_EQ(status[s].message(), "injected send failure") << "shard " << s;
      EXPECT_LT(elapsed_ms[s], 5000.0) << "shard " << s;
    }
  }
}

// ---- Multi-process: the worker binary over an mmap mailbox ------------------

std::string WorkerBin() {
  const char* env = std::getenv("GUMBO_WORKER_BIN");
  if (env != nullptr && *env != '\0') return env;
  return GUMBO_WORKER_BIN;
}

TEST(ShardedProcessTest, FourWorkerProcessesMatchSingleProcessBytes) {
  const std::string bin = WorkerBin();
  if (bin.empty() || !std::filesystem::exists(bin)) {
    GTEST_SKIP() << "worker binary unavailable (build examples or set "
                    "GUMBO_WORKER_BIN)";
  }

  // Reference: what the worker computes in one process. Mirrors the
  // worker binary's workload construction (400 tuples, seed 11).
  data::GeneratorConfig g;
  g.tuples = 400;
  g.seed = 11;
  g.representation_scale = 100e6 / 400.0;
  auto w = data::MakeA(3, g);
  ASSERT_OK(w);
  cost::ClusterConfig config;
  plan::Planner planner(config, plan::PlannerOptions{});
  auto plan = planner.Plan(w->query, w->db);
  ASSERT_OK(plan);
  mr::Engine engine(config);
  ASSERT_OK(plan::ExecutePlanOnSnapshot(*plan, &engine, w->db, &w->db));

  char dir_template[] = "/tmp/gumbo_dist_proc_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  const int shards = 4;
  std::vector<pid_t> pids;
  for (int s = 0; s < shards; ++s) {
    const std::string a_shard = "--shard=" + std::to_string(s);
    const std::string a_dir = "--dir=" + dir;
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const char* argv[] = {bin.c_str(),     a_shard.c_str(), "--shards=4",
                            a_dir.c_str(),   "--workload=A3", "--tuples=400",
                            "--seed=11",     nullptr};
      execv(bin.c_str(), const_cast<char* const*>(argv));
      _exit(127);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  for (const auto& q : w->query.subqueries()) {
    SCOPED_TRACE(q.output());
    auto want = w->db.Get(q.output());
    ASSERT_OK(want);
    std::ifstream in(dir + "/out_" + q.output() + ".rel", std::ios::binary);
    ASSERT_TRUE(in.good()) << "worker published no frame";
    std::vector<uint8_t> frame((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    auto rd = FrameReader::Parse(frame);
    ASSERT_OK(rd);
    auto got = DecodeRelationBody(&*rd);
    ASSERT_OK(got);
    EXPECT_EQ(got->words(), (*want)->words());
    EXPECT_EQ(got->fingerprints(), (*want)->fingerprints());
  }
  std::filesystem::remove_all(dir);
}

// ---- Serve API --------------------------------------------------------------

TEST(ServeApiTest, QueryOptionsBuilderAndResponseShim) {
  CancelToken token;
  const serve::QueryOptions q = serve::QueryOptions()
                                    .WithDeadlineMs(123.0)
                                    .WithPriority(SchedPriority::kHigh)
                                    .WithCancel(&token);
  EXPECT_EQ(q.deadline_ms, 123.0);
  EXPECT_EQ(q.priority, SchedPriority::kHigh);
  EXPECT_EQ(q.cancel, &token);
  EXPECT_EQ(serve::QueryOptions{}.deadline_ms, 0.0);
}

}  // namespace
}  // namespace gumbo::dist
