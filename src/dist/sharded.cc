#include "dist/sharded.h"

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/wire.h"
#include "mr/engine.h"
#include "mr/runtime.h"
#include "mr/shuffle.h"

namespace gumbo::dist {

namespace {

constexpr double kMbPerByte = 1.0 / (1024.0 * 1024.0);

/// Receives the next frame on (from -> me) into `bytes`, verifies it —
/// the one verification the frame gets — and checks the type; the
/// returned reader borrows `bytes`. A kError frame arriving instead
/// carries a peer's failure — it is decoded and propagated as this
/// shard's own status, which Execute passes on in turn: that is how one
/// shard's error unwinds the whole lock-step protocol without any shard
/// waiting out the transport timeout.
Result<FrameReader> ExpectFrame(Transport* tp, int me, int from,
                                FrameType want, std::vector<uint8_t>* bytes) {
  GUMBO_ASSIGN_OR_RETURN(*bytes, tp->Recv(me, from));
  GUMBO_ASSIGN_OR_RETURN(FrameReader r, FrameReader::Parse(*bytes));
  if (r.type() == FrameType::kError) {
    Status peer = DecodeErrorBody(&r);
    if (peer.ok()) peer = Status::Internal("dist: malformed error frame");
    return peer;
  }
  if (r.type() != want) {
    return Status::Internal(
        "dist: shard " + std::to_string(me) + " expected frame type " +
        std::to_string(static_cast<int>(want)) + " from shard " +
        std::to_string(from) + ", got " +
        std::to_string(static_cast<int>(r.type())));
  }
  return r;
}

/// Best-effort: tells every other shard this one failed, so their next
/// ExpectFrame unwinds immediately instead of timing out. Execute is the
/// one caller.
void BroadcastError(Transport* tp, int me, int shards, const Status& s) {
  for (int d = 0; d < shards; ++d) {
    if (d == me) continue;
    (void)tp->Send(me, d, EncodeErrorFrame(s, static_cast<uint32_t>(me)));
  }
}

/// Sends `frame` to every other shard: a copy each, the last one moved.
Status SendToPeers(Transport* tp, int me, int shards,
                   std::vector<uint8_t> frame) {
  const int last = me == shards - 1 ? shards - 2 : shards - 1;
  for (int d = 0; d < shards; ++d) {
    if (d == me) continue;
    GUMBO_RETURN_IF_ERROR(
        tp->Send(me, d, d == last ? std::move(frame) : frame));
  }
  return Status::Ok();
}

/// Writes shard `me`'s kEpilogue body (layout in wire.h): the bytes it
/// sent for the job before the epilogue, its retry counts, and the
/// records of the map tasks and reduce partitions it owns, rows included.
void EncodeEpilogue(mr::JobExecution& exec, int me, int shards, size_t r,
                    uint64_t sent_bytes, FrameWriter* w) {
  const size_t step = static_cast<size_t>(shards);
  const mr::RetryCounters& rc = exec.retry_counters();
  w->U64(sent_bytes);
  w->U64(rc.task_retries.load(std::memory_order_relaxed));
  w->U64(rc.faults_injected.load(std::memory_order_relaxed));
  w->U64(rc.retry_us.load(std::memory_order_relaxed));
  for (size_t ti = static_cast<size_t>(me); ti < exec.tasks().size();
       ti += step) {
    const mr::JobExecution::TaskIo& t = exec.task_io(ti);
    w->F64(t.output_mb);
    w->F64(t.metadata_mb);
    w->F64(t.io.wire_bytes);
    w->U64(t.io.records);
    w->U64(t.io.messages);
    w->U64(t.io.fingerprint_collisions);
    w->U64(t.filtered);
  }
  for (size_t p = static_cast<size_t>(me); p < r; p += step) {
    const mr::JobExecution::ReduceOut& out = exec.reduce_out(p);
    w->U32(static_cast<uint32_t>(p));
    w->F64(out.shuffle_mb);
    w->F64(out.output_mb);
    for (const RelationBuilder& rows : out.outputs) {
      EncodeRowBlock(rows.words(), rows.fingerprints(), w);
    }
  }
}

/// Reads shard `src`'s kEpilogue body into `exec`: adds its retry counts
/// to the live counters and fills the records of the units it owns, its
/// rows decoded straight into each partition's builders. Returns the
/// bytes `src` sent for the job before its epilogue.
Result<uint64_t> ImportEpilogue(FrameReader* rd, int src, int shards,
                                size_t r, const mr::JobSpec& job,
                                mr::JobExecution* exec) {
  const size_t step = static_cast<size_t>(shards);
  uint64_t sent_bytes = 0;
  uint64_t retries = 0;
  uint64_t faults = 0;
  uint64_t retry_us = 0;
  GUMBO_RETURN_IF_ERROR(rd->ReadU64(&sent_bytes));
  GUMBO_RETURN_IF_ERROR(rd->ReadU64(&retries));
  GUMBO_RETURN_IF_ERROR(rd->ReadU64(&faults));
  GUMBO_RETURN_IF_ERROR(rd->ReadU64(&retry_us));
  mr::RetryCounters& rc = exec->retry_counters();
  rc.task_retries.fetch_add(retries, std::memory_order_relaxed);
  rc.faults_injected.fetch_add(faults, std::memory_order_relaxed);
  rc.retry_us.fetch_add(retry_us, std::memory_order_relaxed);
  for (size_t ti = static_cast<size_t>(src); ti < exec->tasks().size();
       ti += step) {
    mr::JobExecution::TaskIo& t = exec->task_io(ti);
    uint64_t records = 0;
    uint64_t messages = 0;
    GUMBO_RETURN_IF_ERROR(rd->ReadF64(&t.output_mb));
    GUMBO_RETURN_IF_ERROR(rd->ReadF64(&t.metadata_mb));
    GUMBO_RETURN_IF_ERROR(rd->ReadF64(&t.io.wire_bytes));
    GUMBO_RETURN_IF_ERROR(rd->ReadU64(&records));
    GUMBO_RETURN_IF_ERROR(rd->ReadU64(&messages));
    GUMBO_RETURN_IF_ERROR(rd->ReadU64(&t.io.fingerprint_collisions));
    GUMBO_RETURN_IF_ERROR(rd->ReadU64(&t.filtered));
    t.io.records = static_cast<size_t>(records);
    t.io.messages = static_cast<size_t>(messages);
  }
  for (size_t p = static_cast<size_t>(src); p < r; p += step) {
    uint32_t named = 0;
    GUMBO_RETURN_IF_ERROR(rd->ReadU32(&named));
    if (named != p) {
      return Status::ParseError("dist: shard " + std::to_string(src) +
                                "'s epilogue names partition " +
                                std::to_string(named) + " where partition " +
                                std::to_string(p) + " of " +
                                std::to_string(r) + " belongs");
    }
    mr::JobExecution::ReduceOut& out = exec->reduce_out(p);
    GUMBO_RETURN_IF_ERROR(rd->ReadF64(&out.shuffle_mb));
    GUMBO_RETURN_IF_ERROR(rd->ReadF64(&out.output_mb));
    for (const mr::JobOutput& spec : job.outputs) {
      out.outputs.emplace_back(spec.arity);
      GUMBO_RETURN_IF_ERROR(DecodeRowBlock(rd, &out.outputs.back()));
    }
  }
  if (rd->remaining() != 0) {
    return Status::ParseError("dist: shard " + std::to_string(src) +
                              "'s epilogue has " +
                              std::to_string(rd->remaining()) +
                              " trailing bytes");
  }
  return sent_bytes;
}

/// One job's lock-step protocol on shard `cluster.shard`; `job_aux` (the
/// job's program index) tags its frames.
Result<mr::Engine::JobResult> RunJob(const mr::Engine& engine,
                                     const Cluster& cluster,
                                     const mr::JobSpec& job,
                                     const Database& db,
                                     const SchedContext& ctx,
                                     uint32_t job_aux) {
  const int S = cluster.num_shards;
  const int me = cluster.shard;
  Transport* tp = cluster.transport;
  const uint32_t me32 = static_cast<uint32_t>(me);
  // Map task ti and reduce partition p belong to shard ti % S and p % S.
  const auto owned = [S, me](size_t i) {
    return static_cast<int>(i % static_cast<size_t>(S)) == me;
  };

  GUMBO_ASSIGN_OR_RETURN(std::unique_ptr<mr::JobExecution> exec,
                         mr::JobExecution::Prepare(engine, job, db, ctx));
  GUMBO_RETURN_IF_ERROR(exec->RunMaps(owned));

  // Every byte this shard sends for the job before its epilogue; the
  // epilogue carries the tally to every peer.
  uint64_t sent_bytes = 0;

  // ---- Agree on the global reducer count. The split is deterministic
  // and replicated, so only the measured intermediate MB (a function of
  // the data each shard actually mapped) needs exchanging. Every shard
  // adds the S sums in shard order, so all of them choose the same r.
  const double own_mb = exec->OwnedIntermediateMb(owned);
  {
    FrameWriter w;
    w.F64(own_mb);
    std::vector<uint8_t> frame = w.Finish(FrameType::kMapStats, me32, job_aux);
    sent_bytes += frame.size() * static_cast<uint64_t>(S - 1);
    GUMBO_RETURN_IF_ERROR(SendToPeers(tp, me, S, std::move(frame)));
  }
  double total_intermediate_mb = 0.0;
  for (int s = 0; s < S; ++s) {
    double shard_mb = own_mb;
    if (s != me) {
      std::vector<uint8_t> bytes;
      GUMBO_ASSIGN_OR_RETURN(
          FrameReader rd, ExpectFrame(tp, me, s, FrameType::kMapStats, &bytes));
      GUMBO_RETURN_IF_ERROR(rd.ReadF64(&shard_mb));
    }
    total_intermediate_mb += shard_mb;
  }
  const int r =
      exec->ChooseReducers(total_intermediate_mb, exec->TotalInputMb());

  // ---- Shuffle exchange: every owned record is routed to the shard
  // owning its partition — one kShuffleChunk frame per destination
  // (empty frames included, so receive counts are uniform). Records are
  // shipped verbatim from the flat shuffle buffers (EncodeShuffleRecord).
  {
    std::vector<FrameWriter> writers(static_cast<size_t>(S));
    mr::Shuffle& shuffle = exec->shuffle();
    for (size_t ti = 0; ti < exec->tasks().size(); ++ti) {
      if (!owned(ti)) continue;
      shuffle.ForEachTaskRecord(
          ti, [&](const mr::Shuffle::KeyEntry& e, const uint64_t* key_words,
                  const mr::Message* msgs, const uint64_t* payload_arena) {
            const size_t p = mr::Shuffle::PartitionIndex(e.fingerprint, r);
            EncodeShuffleRecord(static_cast<uint32_t>(ti), e, key_words, msgs,
                                payload_arena,
                                &writers[p % static_cast<size_t>(S)]);
          });
    }
    for (int d = 0; d < S; ++d) {
      std::vector<uint8_t> frame =
          writers[static_cast<size_t>(d)].Finish(FrameType::kShuffleChunk,
                                                 me32, job_aux);
      sent_bytes += frame.size();
      GUMBO_RETURN_IF_ERROR(tp->Send(me, d, std::move(frame)));
    }
  }

  // ---- Shuffle import: a fresh Shuffle over the same global task list,
  // fed from the S received chunks in shard order. Within one (task,
  // partition) pair the records arrive in their original emission order
  // (one source frame, walked in order); that plus the global task
  // indices is everything the partition sort's (task, emission)
  // tie-break observes, so the sorted partitions are byte-identical to
  // the single-process shuffle's.
  {
    mr::Shuffle imported(exec->tasks().size(), job.pack_messages);
    for (int s = 0; s < S; ++s) {
      std::vector<uint8_t> bytes;
      GUMBO_ASSIGN_OR_RETURN(
          FrameReader rd,
          ExpectFrame(tp, me, s, FrameType::kShuffleChunk, &bytes));
      GUMBO_RETURN_IF_ERROR(DecodeShuffleChunk(&rd, &imported));
    }
    exec->shuffle() = std::move(imported);
  }

  GUMBO_RETURN_IF_ERROR(exec->Partition(r, owned));
  GUMBO_RETURN_IF_ERROR(exec->RunReduces(owned));

  // ---- Epilogue: one frame to every peer with this shard's units —
  // their accounting records and its partitions' rows — and one from
  // every peer, imported in shard order. Every shard then holds every
  // unit's record and accounts and assembles the job exactly as one
  // process would. Each frame is charged once, to its sender: the tally
  // in its epilogue covers what it sent before, and every shard adds the
  // S − 1 copies of each epilogue itself, so all hold the same total.
  uint64_t wire_bytes = 0;
  {
    FrameWriter w;
    EncodeEpilogue(*exec, me, S, static_cast<size_t>(r), sent_bytes, &w);
    std::vector<uint8_t> frame = w.Finish(FrameType::kEpilogue, me32, job_aux);
    wire_bytes += sent_bytes + frame.size() * static_cast<uint64_t>(S - 1);
    GUMBO_RETURN_IF_ERROR(SendToPeers(tp, me, S, std::move(frame)));
  }
  for (int s = 0; s < S; ++s) {
    if (s == me) continue;
    std::vector<uint8_t> bytes;
    GUMBO_ASSIGN_OR_RETURN(
        FrameReader rd, ExpectFrame(tp, me, s, FrameType::kEpilogue, &bytes));
    GUMBO_ASSIGN_OR_RETURN(
        const uint64_t peer_sent,
        ImportEpilogue(&rd, s, S, static_cast<size_t>(r), job, exec.get()));
    wire_bytes += peer_sent + bytes.size() * static_cast<uint64_t>(S - 1);
  }
  exec->AccountMaps();
  exec->AccountReduces();
  GUMBO_ASSIGN_OR_RETURN(mr::Engine::JobResult result, exec->Finish());
  result.stats.dist_wire_mb = static_cast<double>(wire_bytes) * kMbPerByte;
  result.stats.dist_cost =
      engine.config().costs.transfer * result.stats.dist_wire_mb;
  return result;
}

}  // namespace

Result<mr::ProgramStats> ShardedRuntime::Execute(const mr::Program& program,
                                                 Database* db,
                                                 const SchedContext& ctx) const {
  const int S = cluster_.num_shards;
  Transport* tp = cluster_.transport;
  if (S <= 1) {
    // Degenerate cluster: the single-process runtime IS the semantics.
    return mr::Runtime(engine_).Execute(program, db, ctx);
  }
  if (tp == nullptr || tp->endpoints() < S) {
    return Status::InvalidArgument(
        "dist: cluster of " + std::to_string(S) +
        " shards needs a transport with as many endpoints");
  }
  // The round loop and its commit are mr::Runtime's. Jobs run one at a
  // time, in index order: the lock-step protocol keys frames by channel
  // order, so two jobs in flight would interleave.
  const mr::Runtime runtime(
      engine_, [this](const mr::JobSpec& job, size_t index,
                      const Database& snapshot, const SchedContext& job_ctx) {
        return RunJob(*engine_, cluster_, job, snapshot, job_ctx,
                      static_cast<uint32_t>(index));
      });
  // The protocol's one broadcast site: whatever status this shard fails
  // with — its own error or one a peer sent it — goes to every other
  // shard, so none is left blocked mid-protocol (see ExpectFrame).
  Result<mr::ProgramStats> stats = runtime.Execute(program, db, ctx);
  if (!stats.ok()) BroadcastError(tp, cluster_.shard, S, stats.status());
  return stats;
}

Result<mr::ProgramStats> ExecuteShardedLocal(mr::Engine* engine,
                                             const mr::Program& program,
                                             Database* db, int shards,
                                             const SchedContext& ctx) {
  if (shards <= 1) return mr::Runtime(engine).Execute(program, db, ctx);
  InProcTransport tp(shards);
  // Every shard executes against its own overlay replica: the shared
  // base stays immutable while any shard reads it, and shard 0's
  // committed relations are moved into the caller's database only after
  // every thread quiesced.
  std::vector<std::optional<Result<mr::ProgramStats>>> results(
      static_cast<size_t>(shards));
  std::vector<Database> replicas;
  replicas.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    replicas.emplace_back(static_cast<const Database*>(db));
  }
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      threads.emplace_back([&, s] {
        ShardedRuntime rt(engine, Cluster{&tp, s, shards});
        results[static_cast<size_t>(s)] =
            rt.Execute(program, &replicas[static_cast<size_t>(s)], ctx);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int s = 1; s < shards; ++s) {
    if (!results[static_cast<size_t>(s)]->ok()) {
      return results[static_cast<size_t>(s)]->status();
    }
  }
  if (!results[0]->ok()) return results[0]->status();
  Database& committed = replicas[0];
  for (const auto& [name, rel] : committed.relations()) {
    (void)rel;
    GUMBO_ASSIGN_OR_RETURN(Relation * moved, committed.GetMutable(name));
    db->Put(std::move(*moved));
  }
  return std::move(**results[0]);
}

}  // namespace gumbo::dist
