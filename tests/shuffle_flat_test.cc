// Tests for the flat-buffer shuffle hot path (DESIGN.md §3): flat key
// encode/decode round-trips, fingerprint grouping (including forced
// 64-bit collisions), multi-task group merging, and an equivalence check
// against a reference implementation of the previous Tuple-keyed
// representation (unordered_map grouping + per-call sort), which pins
// the old-vs-new byte identity of the shuffle's reduce-side view.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/tuple.h"
#include "mr/map_output.h"
#include "mr/shuffle.h"

namespace gumbo::mr {
namespace {

// ---- Flat key encode/decode -------------------------------------------------

TEST(FlatTupleTest, EncodeDecodeRoundTrips) {
  std::vector<Tuple> cases;
  cases.push_back(Tuple{});                       // empty
  cases.push_back(Tuple::Ints({0}));              // single
  cases.push_back(Tuple::Ints({-1, -42, 7}));     // negative ints
  cases.push_back(Tuple::Ints({1, 2, 3, 4}));     // full inline capacity
  cases.push_back(Tuple::Ints({1, 2, 3, 4, 5, 6, 7, 8}));  // heap-spilled
  Tuple strings;                                  // interned string handles
  strings.PushBack(Value::StringId(0));
  strings.PushBack(Value::StringId(12345));
  strings.PushBack(Value::Int(-3));
  cases.push_back(strings);

  for (const Tuple& t : cases) {
    std::vector<uint64_t> arena;
    arena.push_back(0xdeadbeefULL);  // nonzero offset
    const size_t pos = t.EncodeTo(&arena);
    ASSERT_EQ(pos, 1u);
    ASSERT_EQ(arena.size(), 1u + t.size());
    Tuple back = Tuple::DecodeFrom(arena.data() + pos, t.size());
    EXPECT_EQ(back, t);
    // Values round-trip exactly, kind included.
    for (uint32_t i = 0; i < t.size(); ++i) {
      EXPECT_EQ(back[i].raw(), t[i].raw());
      EXPECT_EQ(back[i].is_string(), t[i].is_string());
      if (t[i].is_int()) {
        EXPECT_EQ(back[i].AsInt(), t[i].AsInt());
      }
    }
    // The flat fingerprint is the Tuple hash, bit for bit.
    EXPECT_EQ(TupleFingerprint(arena.data() + pos, t.size()), t.Hash());
  }
}

// ---- Fingerprint grouping ---------------------------------------------------

// Collects the reduce-side view of a shuffle into a comparable form.
struct CollectedMessage {
  uint32_t tag = 0;
  uint32_t aux = 0;
  Tuple payload;
  double wire_bytes = 0.0;
  bool operator==(const CollectedMessage& o) const {
    return tag == o.tag && aux == o.aux && payload == o.payload &&
           wire_bytes == o.wire_bytes;
  }
};
struct CollectedGroup {
  Tuple key;
  std::vector<CollectedMessage> values;
};

std::vector<std::vector<CollectedGroup>> Collect(const Shuffle& shuffle) {
  std::vector<std::vector<CollectedGroup>> out(
      static_cast<size_t>(shuffle.num_partitions()));
  for (size_t p = 0; p < out.size(); ++p) {
    shuffle.ForEachGroup(p, [&](TupleView key, const MessageGroup& values) {
      CollectedGroup g;
      g.key = key.ToTuple();
      for (const MessageRef m : values) {
        g.values.push_back(
            {m.tag(), m.aux(), m.PayloadTuple(), m.wire_bytes()});
      }
      out[p].push_back(std::move(g));
    });
  }
  return out;
}

uint64_t ConstantFingerprint(const uint64_t*, uint32_t) { return 0x42; }

TEST(MapOutputBufferTest, ForcedCollisionsStillGroupExactly) {
  // Every key gets the same fingerprint: grouping must fall back to the
  // full-key compare and keep distinct keys apart.
  MapOutputBuffer buffer(&ConstantFingerprint);
  const int kKeys = 50;
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      buffer.Emit(Tuple::Ints({k, k + 1}), /*tag=*/1,
                  /*aux=*/static_cast<uint32_t>(round), /*wire_bytes=*/2.0);
    }
  }
  EXPECT_EQ(buffer.num_keys(), static_cast<size_t>(kKeys));
  EXPECT_EQ(buffer.num_messages(), static_cast<size_t>(3 * kKeys));
  // Every probe for key k != first hit the same fingerprint: collisions
  // must have been detected (and resolved).
  EXPECT_GT(buffer.fingerprint_collisions(), 0u);

  Shuffle shuffle(1, /*pack_messages=*/true);
  ShuffleTaskIo io = shuffle.AddTaskOutput(0, std::move(buffer)).value();
  EXPECT_EQ(io.records, static_cast<size_t>(kKeys));
  EXPECT_EQ(io.messages, static_cast<size_t>(3 * kKeys));
  ASSERT_TRUE(shuffle.Partition(4).ok());
  auto parts = Collect(shuffle);
  // All records share the fingerprint, so they all land in one partition —
  // with 50 distinct, sorted, fully-populated groups.
  size_t nonempty = 0;
  for (const auto& groups : parts) {
    if (groups.empty()) continue;
    ++nonempty;
    ASSERT_EQ(groups.size(), static_cast<size_t>(kKeys));
    for (size_t i = 0; i < groups.size(); ++i) {
      EXPECT_EQ(groups[i].values.size(), 3u);
      // aux records emission round order within the key.
      for (uint32_t r = 0; r < 3; ++r) EXPECT_EQ(groups[i].values[r].aux, r);
      if (i > 0) {
        EXPECT_TRUE(groups[i - 1].key < groups[i].key);
      }
    }
  }
  EXPECT_EQ(nonempty, 1u);
}

TEST(MapOutputBufferTest, PrehashedEmissionMatchesPlain) {
  MapOutputBuffer plain;
  MapOutputBuffer prehashed;
  for (int k = 0; k < 20; ++k) {
    Tuple key = Tuple::Ints({k % 5, k});
    plain.Emit(key, 1, 0, 4.0);
    prehashed.EmitPrehashed(key, key.Hash(), 1, 0, 4.0);
  }
  EXPECT_EQ(plain.num_keys(), prehashed.num_keys());
  EXPECT_EQ(plain.num_messages(), prehashed.num_messages());
  double wp = 0.0, wq = 0.0;
  size_t rp = 0, rq = 0;
  plain.AccountWire(true, &wp, &rp);
  prehashed.AccountWire(true, &wq, &rq);
  EXPECT_EQ(wp, wq);
  EXPECT_EQ(rp, rq);
}

TEST(ShuffleFlatTest, MergesEqualKeysAcrossTasksInTaskOrder) {
  Shuffle shuffle(3, /*pack_messages=*/true);
  for (uint32_t task = 0; task < 3; ++task) {
    MapOutputBuffer buffer;
    // Every task emits the same two keys; aux encodes the task so the
    // merged order is observable.
    buffer.Emit(Tuple::Ints({1}), 1, task, 2.0);
    buffer.Emit(Tuple::Ints({2}), 1, task, 2.0);
    buffer.Emit(Tuple::Ints({1}), 2, task, 2.0);
    ASSERT_TRUE(shuffle.AddTaskOutput(task, std::move(buffer)).ok());
  }
  ASSERT_TRUE(shuffle.Partition(1).ok());
  auto parts = Collect(shuffle);
  ASSERT_EQ(parts[0].size(), 2u);
  const CollectedGroup& g1 = parts[0][0];
  EXPECT_EQ(g1.key, Tuple::Ints({1}));
  ASSERT_EQ(g1.values.size(), 6u);  // two per task, three tasks
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(g1.values[i].aux, static_cast<uint32_t>(i / 2));  // task order
    EXPECT_EQ(g1.values[i].tag, i % 2 == 0 ? 1u : 2u);  // emission order
  }
}

// ---- Old-vs-new representation equivalence ----------------------------------

// Reference implementation of the pre-flat shuffle over (Tuple, message)
// pairs: per-task unordered_map grouping in first-seen order (or raw
// singleton records), Tuple::Hash() % r partitioning in (task, emission)
// order, stable per-partition sort by key, equal-key merge.
std::vector<std::vector<CollectedGroup>> ReferenceShuffle(
    const std::vector<std::vector<std::pair<Tuple, CollectedMessage>>>& tasks,
    int r, bool pack) {
  std::vector<std::vector<CollectedGroup>> task_records(tasks.size());
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    if (pack) {
      std::unordered_map<Tuple, size_t> index;
      for (const auto& [key, msg] : tasks[ti]) {
        auto [it, inserted] = index.emplace(key, task_records[ti].size());
        if (inserted) task_records[ti].push_back({key, {}});
        task_records[ti][it->second].values.push_back(msg);
      }
    } else {
      for (const auto& [key, msg] : tasks[ti]) {
        task_records[ti].push_back({key, {msg}});
      }
    }
  }
  std::vector<std::vector<const CollectedGroup*>> parts(
      static_cast<size_t>(r));
  for (const auto& records : task_records) {
    for (const CollectedGroup& rec : records) {
      parts[rec.key.Hash() % static_cast<uint64_t>(r)].push_back(&rec);
    }
  }
  std::vector<std::vector<CollectedGroup>> out(static_cast<size_t>(r));
  for (size_t p = 0; p < parts.size(); ++p) {
    std::stable_sort(parts[p].begin(), parts[p].end(),
                     [](const CollectedGroup* a, const CollectedGroup* b) {
                       return a->key < b->key;
                     });
    for (size_t i = 0; i < parts[p].size();) {
      size_t j = i + 1;
      while (j < parts[p].size() && parts[p][j]->key == parts[p][i]->key) ++j;
      CollectedGroup g;
      g.key = parts[p][i]->key;
      for (size_t k = i; k < j; ++k) {
        g.values.insert(g.values.end(), parts[p][k]->values.begin(),
                        parts[p][k]->values.end());
      }
      out[p].push_back(std::move(g));
      i = j;
    }
  }
  return out;
}

TEST(ShuffleFlatTest, MatchesReferenceRepresentationOnRandomStreams) {
  for (uint64_t seed : {1ull, 7ull, 99ull}) {
    for (bool pack : {true, false}) {
      Xoshiro256 rng(seed);
      const size_t num_tasks = 3;
      const int r = 4;
      std::vector<std::vector<std::pair<Tuple, CollectedMessage>>> emissions(
          num_tasks);
      Shuffle shuffle(num_tasks, pack);
      // Two long keys saturate the refs' arity hint (>= 255 words): one
      // a 256-word prefix of the other, so only the real arities differ.
      // The longer key's last word is picked so both land in the same
      // partition, where the sort and the grouping must tell them apart.
      Tuple long_prefix;
      for (uint32_t i = 0; i < 256; ++i) {
        long_prefix.PushBack(Value::Int(static_cast<int64_t>(rng.Uniform(3))));
      }
      Tuple long_key;
      for (int64_t last = 0;; ++last) {
        long_key = long_prefix;
        while (long_key.size() < 299) long_key.PushBack(Value::Int(1));
        long_key.PushBack(Value::Int(last));
        if (Shuffle::PartitionIndex(long_key.Hash(), r) ==
            Shuffle::PartitionIndex(long_prefix.Hash(), r)) {
          break;
        }
      }
      for (size_t ti = 0; ti < num_tasks; ++ti) {
        MapOutputBuffer buffer;
        const size_t n = 100 + rng.Uniform(100);
        for (size_t e = 0; e < n; ++e) {
          // Small word domain -> plenty of shared keys, and words 0 and 1
          // often tie between distinct keys; arities 0..5 cover keys that
          // end inside and past the refs' two inlined words.
          Tuple key;
          const uint64_t pick = rng.Uniform(64);
          if (pick == 0) {
            key = long_key;
          } else if (pick == 1) {
            key = long_prefix;
          } else {
            const uint32_t key_arity = rng.Uniform(6);
            for (uint32_t i = 0; i < key_arity; ++i) {
              key.PushBack(Value::Int(static_cast<int64_t>(rng.Uniform(3))));
            }
          }
          CollectedMessage msg;
          msg.tag = 1 + static_cast<uint32_t>(rng.Uniform(2));
          msg.aux = static_cast<uint32_t>(rng.Uniform(4));
          const uint32_t payload_arity = rng.Uniform(6);  // 0..5: spills too
          for (uint32_t i = 0; i < payload_arity; ++i) {
            msg.payload.PushBack(
                Value::Int(static_cast<int64_t>(rng.Uniform(100)) - 50));
          }
          msg.wire_bytes = 3.0 + static_cast<double>(msg.tag);
          if (msg.payload.empty()) {
            buffer.Emit(key, msg.tag, msg.aux, msg.wire_bytes);
          } else {
            buffer.Emit(key, msg.tag, msg.aux, msg.payload, msg.wire_bytes);
          }
          emissions[ti].push_back({std::move(key), std::move(msg)});
        }
        ASSERT_TRUE(shuffle.AddTaskOutput(ti, std::move(buffer)).ok());
      }
      ASSERT_TRUE(shuffle.Partition(r).ok());
      auto flat = Collect(shuffle);
      auto reference = ReferenceShuffle(emissions, r, pack);
      ASSERT_EQ(flat.size(), reference.size());
      for (size_t p = 0; p < flat.size(); ++p) {
        ASSERT_EQ(flat[p].size(), reference[p].size())
            << "partition " << p << " seed " << seed << " pack " << pack;
        for (size_t g = 0; g < flat[p].size(); ++g) {
          EXPECT_EQ(flat[p][g].key, reference[p][g].key);
          ASSERT_EQ(flat[p][g].values.size(), reference[p][g].values.size());
          for (size_t v = 0; v < flat[p][g].values.size(); ++v) {
            EXPECT_TRUE(flat[p][g].values[v] == reference[p][g].values[v])
                << "partition " << p << " group " << g << " value " << v;
          }
        }
      }
      // Wire accounting: every record pays its key header once (packed:
      // one per distinct key per task) or once per message (unpacked),
      // recomputed here from the raw emission stream.
      double expected_wire = 0.0;
      if (pack) {
        for (const auto& task : emissions) {
          std::map<std::vector<uint64_t>, double> per_key;
          for (const auto& [key, msg] : task) {
            std::vector<uint64_t> words;
            key.EncodeTo(&words);
            auto [it, inserted] =
                per_key.emplace(std::move(words), 10.0 * key.size());
            it->second += msg.wire_bytes;
          }
          for (const auto& [k, b] : per_key) expected_wire += b;
        }
      } else {
        for (const auto& task : emissions) {
          for (const auto& [key, msg] : task) {
            expected_wire += 10.0 * key.size() + msg.wire_bytes;
          }
        }
      }
      double actual_wire = 0.0;
      for (int p = 0; p < r; ++p) {
        actual_wire += shuffle.PartitionWireBytes(static_cast<size_t>(p));
      }
      EXPECT_NEAR(actual_wire, expected_wire, 1e-6);
    }
  }
}

// ---- Promoted release-mode invariants (DESIGN.md §11) -----------------------
// These used to be debug-only asserts; they now hold in release builds
// as typed Internal errors, so a production misuse fails closed instead
// of corrupting the shuffle.

TEST(ShuffleInvariantTest, TaskIndexOutOfRangeIsInternal) {
  Shuffle shuffle(2, /*pack_messages=*/true);
  auto r = shuffle.AddTaskOutput(2, MapOutputBuffer());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ShuffleInvariantTest, DoubleIngestionIsInternal) {
  Shuffle shuffle(2, /*pack_messages=*/true);
  MapOutputBuffer first;
  first.Emit(Tuple::Ints({1}), 1, 0, 2.0);
  ASSERT_TRUE(shuffle.AddTaskOutput(0, std::move(first)).ok());
  MapOutputBuffer again;
  again.Emit(Tuple::Ints({2}), 1, 0, 2.0);
  auto r = shuffle.AddTaskOutput(0, std::move(again));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ShuffleInvariantTest, NonPositivePartitionCountIsInternal) {
  Shuffle shuffle(1, /*pack_messages=*/true);
  ASSERT_TRUE(shuffle.AddTaskOutput(0, MapOutputBuffer()).ok());
  const Status s = shuffle.Partition(0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(ShuffleInvariantTest, PartitioningTwiceIsInternal) {
  Shuffle shuffle(1, /*pack_messages=*/true);
  MapOutputBuffer buffer;
  buffer.Emit(Tuple::Ints({1}), 1, 0, 2.0);
  ASSERT_TRUE(shuffle.AddTaskOutput(0, std::move(buffer)).ok());
  ASSERT_TRUE(shuffle.Partition(2).ok());
  const Status s = shuffle.Partition(2);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace gumbo::mr
