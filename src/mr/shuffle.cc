#include "mr/shuffle.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <string>

#include "common/cancel.h"
#include "common/fault.h"

namespace gumbo::mr {

namespace {

/// Appends `n` words given as raw, possibly unaligned bytes.
void AppendWords(std::vector<uint64_t>* arena, const uint8_t* bytes,
                 size_t n) {
  if (n == 0) return;  // `bytes` may be null then; memcpy forbids that
  const size_t at = arena->size();
  arena->resize(at + n);
  std::memcpy(arena->data() + at, bytes, n * sizeof(uint64_t));
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Shuffle::Shuffle(size_t num_map_tasks, bool pack_messages)
    : pack_messages_(pack_messages), tasks_(num_map_tasks) {
  assert(num_map_tasks < (1u << 24) && "RecordRef packs the task in 24 bits");
}

Result<ShuffleTaskIo> Shuffle::AddTaskOutput(size_t task,
                                             MapOutputBuffer buffer) {
  if (task >= tasks_.size()) {
    return Status::Internal("shuffle: map task index " +
                            std::to_string(task) + " out of range (" +
                            std::to_string(tasks_.size()) + " tasks)");
  }
  TaskData& td = tasks_[task];
  if (!td.entries.empty() || !td.messages.empty()) {
    return Status::Internal("shuffle: map task " + std::to_string(task) +
                            " output ingested twice");
  }
  ShuffleTaskIo io;
  io.fingerprint_collisions = buffer.fingerprint_collisions();
  td.key_arena = std::move(buffer.key_arena_);
  td.payload_arena = std::move(buffer.payload_arena_);

  if (pack_messages_) {
    // One record per key group: lay each group out contiguously
    // (first-seen key order, chain = emission order within the key) —
    // one POD copy per message, no per-group scratch.
    td.messages.reserve(buffer.messages_.size());
    td.entries.reserve(buffer.groups_.size());
    for (const MapOutputBuffer::Group& g : buffer.groups_) {
      KeyEntry e;
      e.key_pos = g.key_pos;
      e.key_arity = g.key_arity;
      e.fingerprint = g.fingerprint;
      e.msg_begin = static_cast<uint32_t>(td.messages.size());
      double group_wire = 0.0;
      for (uint32_t mi = g.head; mi != MapOutputBuffer::kNone;
           mi = buffer.next_[mi]) {
        td.messages.push_back(buffer.messages_[mi]);
        group_wire += buffer.messages_[mi].wire_bytes;
      }
      e.msg_count = static_cast<uint32_t>(td.messages.size() - e.msg_begin);
      e.wire_bytes = KeyWireBytes(g.key_arity) + group_wire;
      td.entries.push_back(e);
    }
  } else {
    // No packing: singleton records in raw emission order; the emitter's
    // message array already is that order.
    td.messages = std::move(buffer.messages_);
    td.entries.reserve(td.messages.size());
    for (uint32_t mi = 0; mi < td.messages.size(); ++mi) {
      const MapOutputBuffer::Group& g = buffer.groups_[buffer.group_of_[mi]];
      KeyEntry e;
      e.key_pos = g.key_pos;
      e.key_arity = g.key_arity;
      e.fingerprint = g.fingerprint;
      e.msg_begin = mi;
      e.msg_count = 1;
      e.wire_bytes = KeyWireBytes(g.key_arity) + td.messages[mi].wire_bytes;
      td.entries.push_back(e);
    }
  }

  io.records = td.entries.size();
  io.messages = td.messages.size();
  for (const KeyEntry& e : td.entries) io.wire_bytes += e.wire_bytes;
  return io;
}

void Shuffle::ForEachTaskRecord(
    size_t ti,
    const std::function<void(const KeyEntry&, const uint64_t* key_words,
                             const Message* msgs,
                             const uint64_t* payload_arena)>& fn) const {
  assert(ti < tasks_.size());
  const TaskData& td = tasks_[ti];
  for (const KeyEntry& e : td.entries) {
    fn(e, td.key_arena.data() + e.key_pos, td.messages.data() + e.msg_begin,
       td.payload_arena.data());
  }
}

Status Shuffle::ImportTaskRecord(size_t task, const uint8_t* key_words,
                                 uint32_t key_arity, uint64_t fingerprint,
                                 double wire_bytes, const ImportMessage* msgs,
                                 size_t msg_count) {
  if (task >= tasks_.size()) {
    return Status::Internal("shuffle: imported record for task " +
                            std::to_string(task) + " out of range (" +
                            std::to_string(tasks_.size()) + " tasks)");
  }
  if (!partitions_.empty() || num_partitions_ != 0) {
    return Status::Internal("shuffle: record imported after Partition");
  }
  TaskData& td = tasks_[task];
  KeyEntry e;
  e.key_pos = static_cast<uint32_t>(td.key_arena.size());
  e.key_arity = key_arity;
  e.fingerprint = fingerprint;
  e.msg_begin = static_cast<uint32_t>(td.messages.size());
  e.msg_count = static_cast<uint32_t>(msg_count);
  e.wire_bytes = wire_bytes;
  AppendWords(&td.key_arena, key_words, key_arity);
  for (size_t i = 0; i < msg_count; ++i) {
    const ImportMessage& im = msgs[i];
    Message m;
    m.tag = im.tag;
    m.aux = im.aux;
    m.payload_size = im.payload_size;
    m.wire_bytes = im.wire_bytes;
    if (im.payload_size <= Message::kInlinePayloadValues) {
      if (im.payload_size > 0) {
        std::memcpy(m.inline_payload, im.payload,
                    im.payload_size * sizeof(uint64_t));
      }
    } else {
      m.payload_pos = static_cast<uint32_t>(td.payload_arena.size());
      AppendWords(&td.payload_arena, im.payload, im.payload_size);
    }
    td.messages.push_back(m);
  }
  td.entries.push_back(e);
  return Status::Ok();
}

bool Shuffle::KeyLess(const RecordRef& a, const RecordRef& b) const {
  // Fast paths on the inlined fields: the first two words are the first
  // two lexicographic positions, and when either key ends within them
  // the arity hint finishes the comparison — no memory indirection.
  if (a.word0 != b.word0) return a.word0 < b.word0;
  const uint32_t ah = a.arity_hint();
  const uint32_t bh = b.arity_hint();
  if (ah >= 2 && bh >= 2 && a.word1 != b.word1) return a.word1 < b.word1;
  if (ah < 3 || bh < 3) {
    // The shared prefix is exhausted within the inlined words: shorter
    // key first...
    if (ah != bh) return ah < bh;
    // ...or the keys are equal: (task, emission) order. Making the
    // tie-break explicit lets Partition use std::sort — same order a
    // stable sort would give, without the allocation and constant
    // factor. Equal arity hints make task_arity order the task order.
    if (a.task_arity != b.task_arity) return a.task_arity < b.task_arity;
    return a.entry < b.entry;
  }
  // Both keys have >= 3 words: lexicographic over the remaining raw
  // words, then arity — identical to Tuple::operator< (Value order is
  // raw-word order).
  const KeyEntry& ea = EntryOf(a);
  const KeyEntry& eb = EntryOf(b);
  const uint64_t* wa = KeyWordsOf(a);
  const uint64_t* wb = KeyWordsOf(b);
  const uint32_t n = std::min(ea.key_arity, eb.key_arity);
  for (uint32_t i = 2; i < n; ++i) {
    if (wa[i] < wb[i]) return true;
    if (wb[i] < wa[i]) return false;
  }
  if (ea.key_arity != eb.key_arity) return ea.key_arity < eb.key_arity;
  if (a.task_arity != b.task_arity) return a.task_arity < b.task_arity;
  return a.entry < b.entry;
}

bool Shuffle::KeyEquals(const RecordRef& a, const RecordRef& b) const {
  if (a.word0 != b.word0 || a.word1 != b.word1 ||
      a.arity_hint() != b.arity_hint()) {
    return false;
  }
  if (a.arity_hint() < 3) return true;  // the inlined fields are the key
  const KeyEntry& ea = EntryOf(a);
  const KeyEntry& eb = EntryOf(b);
  if (ea.fingerprint != eb.fingerprint || ea.key_arity != eb.key_arity) {
    return false;
  }
  return std::memcmp(KeyWordsOf(a) + 2, KeyWordsOf(b) + 2,
                     (ea.key_arity - 2) * sizeof(uint64_t)) == 0;
}

Status Shuffle::Partition(int num_partitions, Scheduler* scheduler,
                          const SchedContext& ctx, uint32_t max_retries,
                          RetryCounters* counters) {
  if (num_partitions <= 0) {
    return Status::Internal("shuffle: non-positive reduce partition count " +
                            std::to_string(num_partitions));
  }
  if (!partitions_.empty() || num_partitions_ != 0) {
    return Status::Internal("shuffle: Partition called twice");
  }
  num_partitions_ = num_partitions;
  const size_t r = static_cast<size_t>(num_partitions);
  const size_t tasks = tasks_.size();

  // Two counting passes instead of intermediate bucket vectors: first
  // count each task's records (and wire bytes) per partition, then write
  // every record directly into its final slot. Tasks write disjoint
  // slices (offsets are per task x partition), so both passes
  // parallelize without locks, and the (task, emission) pre-sort order
  // falls out of the offsets.
  std::vector<std::vector<uint32_t>> counts(tasks);
  std::vector<std::vector<double>> wires(tasks);
  auto count_task = [&](size_t ti) {
    counts[ti].assign(r, 0);
    wires[ti].assign(r, 0.0);
    for (const KeyEntry& e : tasks_[ti].entries) {
      const size_t p = PartitionIndex(e.fingerprint, num_partitions);
      ++counts[ti][p];
      wires[ti][p] += e.wire_bytes;
    }
  };
  partitions_.resize(r);
  partition_wire_bytes_.resize(r, 0.0);
  // Exclusive prefix sums over the counts matrix: base[ti][p] is where
  // task ti's first record of partition p lands. Built once in the
  // sizing pass below, so scatter offset setup is O(r) per task.
  std::vector<std::vector<size_t>> base(tasks);
  auto scatter_task = [&](size_t ti) {
    const TaskData& td = tasks_[ti];
    const std::vector<KeyEntry>& entries = td.entries;
    std::vector<size_t> offset = base[ti];
    const uint32_t task_bits = static_cast<uint32_t>(ti) << 8;
    for (uint32_t ei = 0; ei < entries.size(); ++ei) {
      const KeyEntry& e = entries[ei];
      RecordRef ref;
      ref.word0 = e.key_arity > 0 ? td.key_arena[e.key_pos] : 0;
      ref.word1 = e.key_arity > 1 ? td.key_arena[e.key_pos + 1] : 0;
      ref.task_arity =
          task_bits | std::min(e.key_arity, RecordRef::kAritySaturated);
      ref.entry = ei;
      const size_t p = PartitionIndex(e.fingerprint, num_partitions);
      partitions_[p][offset[p]++] = ref;
    }
  };
  const FaultInjector* faults =
      ctx.faults != nullptr && ctx.faults->active() &&
              ctx.faults->site_enabled(FaultSite::kShuffleSort)
          ? ctx.faults
          : nullptr;
  std::vector<Status> sort_status(r);
  auto sort_partition = [&](size_t p) {
    std::vector<RecordRef>& refs = partitions_[p];
    // The one sort of the shuffle, cached here — ForEachGroup never
    // re-sorts. KeyLess breaks key ties by (task, emission), so plain
    // sort yields exactly the stable order. A sort is idempotent, so an
    // injected fault retries it in place: the re-sorted attempt is
    // byte-identical to a fault-free one.
    for (uint32_t attempt = 0;; ++attempt) {
      const uint64_t start_us = faults != nullptr ? NowUs() : 0;
      std::sort(refs.begin(), refs.end(),
                [this](const RecordRef& a, const RecordRef& b) {
                  return KeyLess(a, b);
                });
      if (faults == nullptr ||
          !faults->ShouldFail(FaultSite::kShuffleSort, p, attempt)) {
        return;
      }
      if (counters != nullptr) {
        counters->faults_injected.fetch_add(1, std::memory_order_relaxed);
        counters->retry_us.fetch_add(NowUs() - start_us,
                                     std::memory_order_relaxed);
      }
      if (attempt >= max_retries) {
        sort_status[p] =
            FaultInjector::InjectedFault(FaultSite::kShuffleSort, p, attempt);
        return;
      }
      if (counters != nullptr) {
        counters->task_retries.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  auto size_partitions = [&] {
    for (size_t ti = 0; ti < tasks; ++ti) base[ti].assign(r, 0);
    for (size_t p = 0; p < r; ++p) {
      size_t total = 0;
      double wire = 0.0;
      for (size_t ti = 0; ti < tasks; ++ti) {
        base[ti][p] = total;
        total += counts[ti][p];
        wire += wires[ti][p];
      }
      partitions_[p].resize(total);
      partition_wire_bytes_[p] = wire;
    }
  };
  // Cancellation polls sit between the phases, not inside the morsels:
  // each phase is bounded (one pass over the records), and skipping a
  // morsel mid-phase would leave the counts/offsets matrices in a state
  // the next phase cannot read.
  GUMBO_RETURN_IF_ERROR(CheckCancel(ctx.cancel));
  if (scheduler != nullptr) {
    // Each task slice / partition sort is one morsel: counts, scatter
    // slots, and sorted arrays are indexed by task/partition, so the
    // result is position-committed and independent of execution order.
    scheduler->ParallelFor(tasks, count_task, ctx);
    size_partitions();
    scheduler->ParallelFor(tasks, scatter_task, ctx);
    GUMBO_RETURN_IF_ERROR(CheckCancel(ctx.cancel));
    scheduler->ParallelFor(r, sort_partition, ctx);
  } else {
    for (size_t ti = 0; ti < tasks; ++ti) count_task(ti);
    size_partitions();
    for (size_t ti = 0; ti < tasks; ++ti) scatter_task(ti);
    GUMBO_RETURN_IF_ERROR(CheckCancel(ctx.cancel));
    for (size_t p = 0; p < r; ++p) sort_partition(p);
  }
  // Lowest failed partition wins: deterministic for a fixed fault seed,
  // independent of which sort morsel ran first.
  for (size_t p = 0; p < r; ++p) {
    GUMBO_RETURN_IF_ERROR(sort_status[p]);
  }
  return Status::Ok();
}

double Shuffle::PartitionWireBytes(size_t p) const {
  assert(p < partition_wire_bytes_.size());
  return partition_wire_bytes_[p];
}

void Shuffle::ForEachGroup(
    size_t p,
    const std::function<void(TupleView, const MessageGroup&)>& fn) const {
  GroupCursor cursor;
  ForEachGroupChunk(p, &cursor, static_cast<size_t>(-1), fn);
}

bool Shuffle::ForEachGroupChunk(
    size_t p, GroupCursor* cursor, size_t max_records,
    const std::function<void(TupleView, const MessageGroup&)>& fn) const {
  assert(p < partitions_.size());
  const std::vector<RecordRef>& refs = partitions_[p];
  // Reused scratch (lives in the cursor so it survives across the chunks
  // of a reduce morsel chain): the only per-key allocation-ish state,
  // and it stabilizes at the maximum segment count after a few keys.
  std::vector<MessageGroup::Segment>& segments = cursor->segments;
  const size_t budget_end =
      max_records >= refs.size() - std::min(cursor->next_record, refs.size())
          ? refs.size()
          : cursor->next_record + max_records;
  for (size_t i = cursor->next_record; i < refs.size();) {
    if (i >= budget_end) {
      cursor->next_record = i;
      return true;
    }
    size_t j = i + 1;
    while (j < refs.size() && KeyEquals(refs[i], refs[j])) ++j;
    segments.clear();
    size_t total = 0;
    for (size_t k = i; k < j; ++k) {
      const TaskData& td = tasks_[refs[k].task()];
      const KeyEntry& e = td.entries[refs[k].entry];
      if (e.msg_count == 0) continue;
      total += e.msg_count;
      const Message* msgs = td.messages.data() + e.msg_begin;
      if (!segments.empty()) {
        // Adjacent records of the same task with contiguous message
        // ranges (the unpacked singleton case) fuse into one segment.
        MessageGroup::Segment& last = segments.back();
        if (last.msgs + last.count == msgs &&
            last.arena == td.payload_arena.data()) {
          last.count += e.msg_count;
          continue;
        }
      }
      segments.push_back({msgs, td.payload_arena.data(), e.msg_count});
    }
    const KeyEntry& e0 = EntryOf(refs[i]);
    fn(TupleView(KeyWordsOf(refs[i]), e0.key_arity),
       MessageGroup(segments.data(), segments.size(), total));
    i = j;
  }
  cursor->next_record = refs.size();
  return false;
}

}  // namespace gumbo::mr
