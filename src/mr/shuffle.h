// Shuffle: the mapper→reducer data movement of the simulated MapReduce
// engine (DESIGN.md §3), extracted from the engine so the map, partition,
// and reduce phases share one flat-buffer representation.
//
// Pipeline:
//   1. AddTaskOutput adopts one map task's MapOutputBuffer — keys already
//      flat-encoded, fingerprinted, and grouped in first-seen order by
//      the emitter's open-addressing table — and lays it out as packed
//      key groups (Gumbo §5.1 optimization (1): one key header per packed
//      list on the wire) or, without packing, as singleton records in raw
//      emission order;
//   2. Partition buckets every record by its cached fingerprint into
//      reduce partitions and sorts each partition ONCE by key (stable, so
//      records keep (map task, emission) order within equal keys); the
//      sorted index arrays and per-partition wire bytes are cached;
//   3. ForEachGroup walks one partition's distinct keys in sorted order,
//      handing the reducer a zero-copy MessageGroup view that stitches
//      the key's per-task message runs together.
//
// The hot path never materializes a Tuple or a per-key vector: keys stay
// flat words end to end (reducers receive zero-copy TupleViews), messages
// stay POD, and the only per-key scratch is a reused segment array.
//
// Determinism: record order within a partition is the (task index,
// emission index) order, the stable sort preserves it within equal keys,
// and distinct keys come out in sorted order — all independent of thread
// count and scheduling. Fingerprints equal Tuple::Hash(), so partition
// assignment (and therefore every byte of output) matches the previous
// Tuple-keyed representation exactly.
#ifndef GUMBO_MR_SHUFFLE_H_
#define GUMBO_MR_SHUFFLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/scheduler.h"
#include "common/tuple.h"
#include "mr/map_output.h"
#include "mr/message.h"
#include "mr/stats.h"

namespace gumbo::mr {

/// Wire-level accounting of one map task's shuffle output: exactly what
/// crosses the wire, so JobStats::shuffle_mb is the single source of
/// truth for shuffle volume.
struct ShuffleTaskIo {
  double wire_bytes = 0.0;  ///< total key + value bytes the task emits
  size_t records = 0;       ///< materialized records (after packing)
  size_t messages = 0;      ///< shuffled values
  uint64_t fingerprint_collisions = 0;  ///< distinct keys, equal fingerprint
};

class Shuffle {
 public:
  /// `pack_messages`: group values by key within each map task.
  Shuffle(size_t num_map_tasks, bool pack_messages);

  size_t num_map_tasks() const { return tasks_.size(); }

  /// One wire record: a packed key group, or a single message when
  /// packing is off. Key words live in the owning task's key arena.
  struct KeyEntry {
    uint32_t key_pos = 0;
    uint32_t key_arity = 0;
    uint64_t fingerprint = 0;
    uint32_t msg_begin = 0;  ///< into TaskData::messages
    uint32_t msg_count = 0;
    double wire_bytes = 0.0;  ///< key header + value bytes of this record
  };

  /// The reduce partition a record with this fingerprint lands in —
  /// THE shard/partition mapping of the whole system (DESIGN.md §13):
  /// Partition() buckets with it, and the sharded runtime routes wire
  /// records with it, so both sides agree by construction.
  static size_t PartitionIndex(uint64_t fingerprint, int num_partitions) {
    return static_cast<size_t>(fingerprint %
                               static_cast<uint64_t>(num_partitions));
  }

  /// Walks task `ti`'s ingested records in their materialized (emission)
  /// order, exposing everything a wire export needs: the entry, the key
  /// words, the record's contiguous messages, and the payload arena that
  /// resolves spilled payloads. Must be called after AddTaskOutput for
  /// `ti` (records are unaffected by Partition, so before or after it).
  void ForEachTaskRecord(
      size_t ti,
      const std::function<void(const KeyEntry&, const uint64_t* key_words,
                               const Message* msgs,
                               const uint64_t* payload_arena)>& fn) const;

  /// One message of a record arriving over the wire: the POD fields plus
  /// the payload words to copy into the receiving task's arena.
  struct ImportMessage {
    uint32_t tag = 0;
    uint32_t aux = 0;
    uint32_t payload_size = 0;
    double wire_bytes = 0.0;
    /// payload_size words as raw bytes, unaligned (in place in a frame).
    const uint8_t* payload = nullptr;
  };

  /// Appends one record to task `task` (the wire import path, inverse of
  /// ForEachTaskRecord): key words are copied into the task's key arena,
  /// spilled payloads into its payload arena, and the fingerprint /
  /// wire-byte accounting is adopted verbatim — never recomputed, so an
  /// imported shuffle is byte-identical to the one it was exported from.
  /// `key_words` (key_arity words) and the message payloads are raw,
  /// possibly unaligned bytes, read with memcpy, so a wire decoder
  /// (dist::DecodeShuffleChunk) can hand over pointers into the frame.
  /// Records of one (task, partition) pair must arrive in their original
  /// order; interleaving different partitions' records of a task is fine
  /// (key ties — the only order-sensitive comparisons — never span
  /// partitions). Must precede Partition.
  Status ImportTaskRecord(size_t task, const uint8_t* key_words,
                          uint32_t key_arity, uint64_t fingerprint,
                          double wire_bytes, const ImportMessage* msgs,
                          size_t msg_count);

  /// Adopts one map task's emission buffer. With packing, each key group
  /// becomes one record; without it, every message is a singleton record
  /// paying its own key header. Safe to call concurrently for distinct
  /// `task` indices. Errors (out-of-range task, double ingestion) surface
  /// as Status::Internal in Release builds too.
  Result<ShuffleTaskIo> AddTaskOutput(size_t task, MapOutputBuffer buffer);

  /// Hash-partitions every ingested record by fingerprint into
  /// `num_partitions` reduce partitions and sorts each partition's index
  /// array once by key. Must be called once, after all AddTaskOutput
  /// calls. `scheduler` parallelizes bucketing and sorting (nullptr =
  /// sequential); `ctx` sets the priority/metrics of those morsels and
  /// carries the cancellation token (polled between phases) and fault
  /// injector. An injected kShuffleSort fault re-sorts the partition (an
  /// idempotent retry, counted in `counters`) up to `max_retries` times
  /// before escalating.
  Status Partition(int num_partitions, Scheduler* scheduler = nullptr,
                   const SchedContext& ctx = {}, uint32_t max_retries = 0,
                   RetryCounters* counters = nullptr);

  int num_partitions() const { return num_partitions_; }

  /// Total key + value wire bytes received by partition `p` (cached at
  /// Partition time).
  double PartitionWireBytes(size_t p) const;

  /// Invokes `fn(key, values)` once per distinct key of partition `p`,
  /// keys in sorted order, values concatenated in (map task, emission)
  /// order. The key is a zero-copy view into the owning task's key arena
  /// — no Tuple is materialized anywhere on the reduce path. Safe to call
  /// concurrently for distinct `p` after Partition.
  void ForEachGroup(
      size_t p,
      const std::function<void(TupleView, const MessageGroup&)>& fn) const;

  /// Resumable position in one partition's group walk, so a reduce task
  /// can process its partition as a chain of bounded morsels (DESIGN.md
  /// §9). Also owns the reused per-key segment scratch, which therefore
  /// persists across the chain instead of re-growing every morsel.
  struct GroupCursor {
    size_t next_record = 0;
    std::vector<MessageGroup::Segment> segments;
  };

  /// Runs `fn` over whole key groups of partition `p` starting at
  /// `cursor`, stopping once at least `max_records` records have been
  /// consumed (a group is never split, so the chunk sequence yields
  /// exactly the groups ForEachGroup would, in the same order). Returns
  /// true while groups remain. Distinct cursors may walk distinct
  /// partitions concurrently.
  bool ForEachGroupChunk(
      size_t p, GroupCursor* cursor, size_t max_records,
      const std::function<void(TupleView, const MessageGroup&)>& fn) const;

 private:
  /// One map task's finalized output: messages contiguous per key entry.
  struct TaskData {
    std::vector<uint64_t> key_arena;
    std::vector<uint64_t> payload_arena;
    std::vector<Message> messages;
    std::vector<KeyEntry> entries;
  };

  /// 24 bytes per record in the sorted partition arrays. The first two
  /// key words and the saturating arity hint are inlined so the sort
  /// decides keys of up to two words — MSJ's single-word join keys and
  /// EVAL's (task id, tuple id), whose word 0 is the same across a whole
  /// job — without touching the key arena or entry array at all
  /// (DESIGN.md §3).
  struct RecordRef {
    static constexpr uint32_t kAritySaturated = 0xff;
    /// First two key words (0 past the key's end) — the first two
    /// lexicographic comparison positions.
    uint64_t word0 = 0;
    uint64_t word1 = 0;
    /// (task << 8) | min(key_arity, kAritySaturated).
    uint32_t task_arity = 0;
    uint32_t entry = 0;

    uint32_t task() const { return task_arity >> 8; }
    uint32_t arity_hint() const { return task_arity & kAritySaturated; }
  };

  const uint64_t* KeyWordsOf(const RecordRef& r) const {
    const TaskData& td = tasks_[r.task()];
    return td.key_arena.data() + td.entries[r.entry].key_pos;
  }
  const KeyEntry& EntryOf(const RecordRef& r) const {
    return tasks_[r.task()].entries[r.entry];
  }
  bool KeyLess(const RecordRef& a, const RecordRef& b) const;
  bool KeyEquals(const RecordRef& a, const RecordRef& b) const;

  bool pack_messages_;
  std::vector<TaskData> tasks_;
  int num_partitions_ = 0;
  /// [partition] -> records sorted by key (ties in (task, emission)
  /// order), cached by Partition.
  std::vector<std::vector<RecordRef>> partitions_;
  std::vector<double> partition_wire_bytes_;
};

}  // namespace gumbo::mr

#endif  // GUMBO_MR_SHUFFLE_H_
