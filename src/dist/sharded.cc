#include "dist/sharded.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
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

}  // namespace

Result<mr::Engine::JobResult> ShardedRuntime::RunJob(const mr::JobSpec& job,
                                                     const Database& db,
                                                     const SchedContext& ctx,
                                                     uint32_t job_aux) const {
  const int S = cluster_.num_shards;
  const int me = cluster_.shard;
  Transport* tp = cluster_.transport;
  const uint32_t me32 = static_cast<uint32_t>(me);
  const auto owned_map = [S, me](size_t ti) {
    return static_cast<int>(ti % static_cast<size_t>(S)) == me;
  };
  const auto owned_red = [S, me](size_t p) {
    return static_cast<int>(p % static_cast<size_t>(S)) == me;
  };

  GUMBO_ASSIGN_OR_RETURN(std::unique_ptr<mr::JobExecution> exec,
                         mr::JobExecution::Prepare(*engine_, job, db, ctx));
  GUMBO_RETURN_IF_ERROR(exec->RunMaps(owned_map));
  exec->AccountMaps(owned_map);

  // ---- Agree on the global reducer count. The split is deterministic
  // and replicated, so only the measured intermediate MB (a function of
  // the data each shard actually mapped) needs exchanging.
  int r = 0;
  if (me == 0) {
    double total_intermediate_mb = exec->OwnedIntermediateMb(owned_map);
    for (int s = 1; s < S; ++s) {
      std::vector<uint8_t> bytes;
      GUMBO_ASSIGN_OR_RETURN(
          FrameReader rd, ExpectFrame(tp, me, s, FrameType::kMapStats, &bytes));
      exec->stats().dist_wire_mb += static_cast<double>(bytes.size()) * kMbPerByte;
      double shard_mb = 0.0;
      GUMBO_RETURN_IF_ERROR(rd.ReadF64(&shard_mb));
      total_intermediate_mb += shard_mb;
    }
    r = exec->ChooseReducers(total_intermediate_mb, exec->TotalInputMb());
    FrameWriter w;
    for (int s = 1; s < S; ++s) {
      w.U32(static_cast<uint32_t>(r));
      std::vector<uint8_t> frame =
          w.Finish(FrameType::kReduceAlloc, me32, job_aux);
      exec->stats().dist_wire_mb +=
          static_cast<double>(frame.size()) * kMbPerByte;
      GUMBO_RETURN_IF_ERROR(tp->Send(me, s, std::move(frame)));
    }
  } else {
    FrameWriter w;
    w.F64(exec->OwnedIntermediateMb(owned_map));
    GUMBO_RETURN_IF_ERROR(
        tp->Send(me, 0, w.Finish(FrameType::kMapStats, me32, job_aux)));
    std::vector<uint8_t> bytes;
    GUMBO_ASSIGN_OR_RETURN(
        FrameReader rd,
        ExpectFrame(tp, me, 0, FrameType::kReduceAlloc, &bytes));
    uint32_t ru = 0;
    GUMBO_RETURN_IF_ERROR(rd.ReadU32(&ru));
    r = static_cast<int>(ru);
  }

  // ---- Shuffle exchange: every owned record is routed to the shard
  // owning its partition — one kShuffleChunk frame per destination
  // (empty frames included, so receive counts are uniform). Records are
  // shipped verbatim from the flat shuffle buffers (EncodeShuffleRecord).
  double shuffle_sent_bytes = 0.0;
  {
    std::vector<FrameWriter> writers(static_cast<size_t>(S));
    mr::Shuffle& shuffle = exec->shuffle();
    for (size_t ti = 0; ti < exec->tasks().size(); ++ti) {
      if (!owned_map(ti)) continue;
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
      shuffle_sent_bytes += static_cast<double>(frame.size());
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

  GUMBO_RETURN_IF_ERROR(exec->Partition(r));
  GUMBO_RETURN_IF_ERROR(exec->RunReduces(owned_red));
  exec->AccountReduces(owned_red);
  exec->FinalizeCounters();

  const size_t num_outputs = job.outputs.size();
  mr::JobStats& st = exec->stats();

  if (me != 0) {
    // ---- Worker epilogue: ship the owned partitions' output rows and
    // the owned-subset stats; outputs themselves stay empty (the replica
    // is refreshed by the round's kCommit frames).
    FrameWriter w;
    for (size_t p = 0; p < static_cast<size_t>(r); ++p) {
      if (!owned_red(p)) continue;
      std::vector<RelationBuilder> builders = exec->TakeReduceOutputs(p);
      w.U32(static_cast<uint32_t>(p));
      for (size_t oi = 0; oi < num_outputs; ++oi) {
        const mr::JobOutput& spec = job.outputs[oi];
        Relation frag(spec.dataset, spec.arity);
        frag.Adopt(std::move(builders[oi]));
        EncodeRowBlock(frag, &w);
      }
    }
    // Not added to shuffle_sent_bytes: the coordinator counts epilogue
    // frames on receive, so each frame is charged exactly once.
    GUMBO_RETURN_IF_ERROR(
        tp->Send(me, 0, w.Finish(FrameType::kOutputFragment, me32, job_aux)));
    FrameWriter sw;
    EncodeJobCounters(st, &sw);
    sw.F64(exec->ReceivedMb());
    sw.U32(static_cast<uint32_t>(st.map_task_costs.size()));
    for (double c : st.map_task_costs) sw.F64(c);
    sw.U32(static_cast<uint32_t>(st.reduce_task_costs.size()));
    for (double c : st.reduce_task_costs) sw.F64(c);
    sw.U32(static_cast<uint32_t>(st.inputs.size()));
    for (const mr::InputStats& is : st.inputs) {
      sw.F64(is.output_mb);
      sw.F64(is.metadata_mb);
    }
    sw.F64(shuffle_sent_bytes);
    GUMBO_RETURN_IF_ERROR(
        tp->Send(me, 0, sw.Finish(FrameType::kJobStats, me32, job_aux)));
    mr::Engine::JobResult partial;
    partial.stats = std::move(st);
    return partial;
  }

  // ---- Coordinator epilogue: collect fragments + stats from every
  // worker, merge the disjoint accounting slots, reconcile globally, and
  // assemble the outputs in ascending partition order — exactly the
  // concatenation Finish() performs in-process.
  struct RemoteFrag {
    std::vector<uint64_t> words;
    std::vector<uint64_t> fps;
    uint64_t rows = 0;
  };
  // [p][oi]; only partitions owned by workers are filled.
  std::vector<std::vector<RemoteFrag>> remote(static_cast<size_t>(r));
  double wire_bytes_total = shuffle_sent_bytes;
  double received_mb = exec->ReceivedMb();
  for (int s = 1; s < S; ++s) {
    std::vector<uint8_t> fbytes;
    GUMBO_ASSIGN_OR_RETURN(
        FrameReader frd,
        ExpectFrame(tp, me, s, FrameType::kOutputFragment, &fbytes));
    wire_bytes_total += static_cast<double>(fbytes.size());
    while (frd.remaining() > 0) {
      uint32_t p = 0;
      GUMBO_RETURN_IF_ERROR(frd.ReadU32(&p));
      if (p >= static_cast<uint32_t>(r)) {
        return Status::ParseError("dist: output fragment names partition " +
                                  std::to_string(p) + " of " +
                                  std::to_string(r));
      }
      std::vector<RemoteFrag>& frags = remote[p];
      frags.resize(num_outputs);
      for (size_t oi = 0; oi < num_outputs; ++oi) {
        RemoteFrag& f = frags[oi];
        GUMBO_RETURN_IF_ERROR(DecodeRowBlock(&frd, job.outputs[oi].arity,
                                             &f.rows, &f.words, &f.fps));
      }
    }
    std::vector<uint8_t> sbytes;
    GUMBO_ASSIGN_OR_RETURN(
        FrameReader srd, ExpectFrame(tp, me, s, FrameType::kJobStats, &sbytes));
    wire_bytes_total += static_cast<double>(sbytes.size());
    mr::JobCounters counters;
    GUMBO_RETURN_IF_ERROR(DecodeJobCounters(&srd, &counters));
    st += counters;
    double recv_mb = 0.0;
    GUMBO_RETURN_IF_ERROR(srd.ReadF64(&recv_mb));
    received_mb += recv_mb;
    uint32_t n = 0;
    GUMBO_RETURN_IF_ERROR(srd.ReadU32(&n));
    if (n != st.map_task_costs.size()) {
      return Status::ParseError("dist: map cost vector size mismatch");
    }
    for (uint32_t i = 0; i < n; ++i) {
      double c = 0.0;
      GUMBO_RETURN_IF_ERROR(srd.ReadF64(&c));
      st.map_task_costs[i] += c;
    }
    GUMBO_RETURN_IF_ERROR(srd.ReadU32(&n));
    if (n != st.reduce_task_costs.size()) {
      return Status::ParseError("dist: reduce cost vector size mismatch");
    }
    for (uint32_t i = 0; i < n; ++i) {
      double c = 0.0;
      GUMBO_RETURN_IF_ERROR(srd.ReadF64(&c));
      st.reduce_task_costs[i] += c;
    }
    GUMBO_RETURN_IF_ERROR(srd.ReadU32(&n));
    if (n != st.inputs.size()) {
      return Status::ParseError("dist: input stats size mismatch");
    }
    for (uint32_t i = 0; i < n; ++i) {
      double out_mb = 0.0, meta_mb = 0.0;
      GUMBO_RETURN_IF_ERROR(srd.ReadF64(&out_mb));
      GUMBO_RETURN_IF_ERROR(srd.ReadF64(&meta_mb));
      st.inputs[i].output_mb += out_mb;
      st.inputs[i].metadata_mb += meta_mb;
    }
    double sent_bytes = 0.0;
    GUMBO_RETURN_IF_ERROR(srd.ReadF64(&sent_bytes));
    wire_bytes_total += sent_bytes;  // the worker's shuffle + fragment sends
  }

  // Global reconciliation — same invariant, same tolerance as the
  // single-process Finish().
  if (std::abs(received_mb - st.shuffle_mb) >
      1e-6 * std::max(1.0, st.shuffle_mb)) {
    return Status::Internal(
        "job " + job.name +
        ": sharded map-side and reduce-side shuffle accounting diverged "
        "(map " +
        std::to_string(st.shuffle_mb) + " MB, reduce " +
        std::to_string(received_mb) + " MB)");
  }

  mr::Engine::JobResult result;
  result.outputs.reserve(num_outputs);
  std::vector<std::vector<RelationBuilder>> own(static_cast<size_t>(r));
  for (size_t p = 0; p < static_cast<size_t>(r); ++p) {
    if (owned_red(p)) own[p] = exec->TakeReduceOutputs(p);
  }
  for (size_t oi = 0; oi < num_outputs; ++oi) {
    const mr::JobOutput& spec = job.outputs[oi];
    Relation out(spec.dataset, spec.arity);
    if (spec.bytes_per_tuple > 0.0) out.set_bytes_per_tuple(spec.bytes_per_tuple);
    out.set_representation_scale(exec->scale());
    for (size_t p = 0; p < static_cast<size_t>(r); ++p) {
      if (owned_red(p)) {
        out.Adopt(std::move(own[p][oi]));
      } else if (oi < remote[p].size()) {
        const RemoteFrag& f = remote[p][oi];
        out.AppendRaw(f.words.data(), f.fps.data(), f.rows);
      }
    }
    if (spec.dedupe) {
      out.SortAndDedupe(&engine_->scheduler(), &ctx);
    }
    result.outputs.push_back(std::move(out));
  }

  st.dist_wire_mb += wire_bytes_total * kMbPerByte;
  result.stats = std::move(st);
  return result;
}

Result<mr::ProgramStats> ShardedRuntime::Execute(const mr::Program& program,
                                                 Database* db,
                                                 const SchedContext& ctx) const {
  const int S = cluster_.num_shards;
  const int me = cluster_.shard;
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
  // The protocol's one broadcast site: whatever status this shard fails
  // with — its own error or one a peer sent it — goes to every other
  // shard, so none is left blocked mid-protocol (see ExpectFrame).
  Result<mr::ProgramStats> stats = RunRounds(program, db, ctx);
  if (!stats.ok()) BroadcastError(tp, me, S, stats.status());
  return stats;
}

Result<mr::ProgramStats> ShardedRuntime::RunRounds(
    const mr::Program& program, Database* db, const SchedContext& ctx) const {
  const int S = cluster_.num_shards;
  const int me = cluster_.shard;
  Transport* tp = cluster_.transport;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point program_start = Clock::now();
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  const double transfer = engine_->config().costs.transfer;

  mr::ProgramStats stats;
  stats.jobs.resize(program.size());
  const std::vector<std::vector<size_t>> rounds =
      mr::Runtime::JobRounds(program);
  stats.round_stats.reserve(rounds.size());

  for (size_t ri = 0; ri < rounds.size(); ++ri) {
    const std::vector<size_t>& round = rounds[ri];
    const Clock::time_point round_start = Clock::now();
    GUMBO_RETURN_IF_ERROR(CheckCancel(ctx.cancel));

    // Jobs run sequentially in index order: the lock-step protocol keys
    // frames by channel order, so two jobs in flight would interleave.
    // Deterministic regardless — the single-process runtime commits in
    // job order too, so results cannot differ.
    std::vector<mr::Engine::JobResult> results;
    results.reserve(round.size());
    for (size_t gj : round) {
      GUMBO_ASSIGN_OR_RETURN(
          mr::Engine::JobResult r,
          RunJob(program.job(gj), *db, ctx, static_cast<uint32_t>(gj)));
      results.push_back(std::move(r));
    }

    // ---- Round barrier.
    mr::RoundStats rs;
    rs.jobs = round;
    rs.max_concurrent = 1;
    if (me == 0) {
      // Commit in job order, broadcasting each job's committed relations
      // so every replica re-synchronizes before the next round reads.
      for (size_t k = 0; k < round.size(); ++k) {
        mr::Engine::JobResult& r = results[k];
        FrameWriter w;
        w.U32(static_cast<uint32_t>(r.outputs.size()));
        for (const Relation& out : r.outputs) EncodeRelationBody(out, &w);
        std::vector<uint8_t> frame = w.Finish(
            FrameType::kCommit, 0, static_cast<uint32_t>(round[k]));
        r.stats.dist_wire_mb += static_cast<double>(frame.size()) *
                                static_cast<double>(S - 1) * kMbPerByte;
        r.stats.dist_cost = transfer * r.stats.dist_wire_mb;
        for (int s = 1; s < S; ++s) {
          GUMBO_RETURN_IF_ERROR(tp->Send(0, s, frame));
        }
        for (Relation& out : r.outputs) db->Put(std::move(out));
        stats.jobs[round[k]] = std::move(r.stats);
      }
    } else {
      for (size_t k = 0; k < round.size(); ++k) {
        std::vector<uint8_t> bytes;
        GUMBO_ASSIGN_OR_RETURN(
            FrameReader rd, ExpectFrame(tp, me, 0, FrameType::kCommit, &bytes));
        uint32_t n = 0;
        GUMBO_RETURN_IF_ERROR(rd.ReadU32(&n));
        for (uint32_t i = 0; i < n; ++i) {
          GUMBO_ASSIGN_OR_RETURN(Relation rel, DecodeRelationBody(&rd));
          db->Put(std::move(rel));
        }
        stats.jobs[round[k]] = std::move(results[k].stats);
      }
    }
    rs.wall_ms = ms_since(round_start);
    stats.round_stats.push_back(std::move(rs));
  }

  stats.rounds = static_cast<int>(rounds.size());
  stats.wall_ms = ms_since(program_start);
  for (const mr::JobStats& js : stats.jobs) stats.total_time += js.TotalCost();
  std::vector<std::vector<size_t>> deps;
  deps.reserve(program.size());
  for (size_t i = 0; i < program.size(); ++i) deps.push_back(program.deps(i));
  stats.net_time = mr::SimulateNetTime(stats.jobs, deps, engine_->config());
  return stats;
}

Result<mr::ProgramStats> ExecuteShardedLocal(mr::Engine* engine,
                                             const mr::Program& program,
                                             Database* db, int shards,
                                             const SchedContext& ctx) {
  if (shards <= 1) return mr::Runtime(engine).Execute(program, db, ctx);
  InProcTransport tp(shards);
  // Every shard — coordinator included — executes against its own
  // overlay replica: the shared base stays immutable while any shard
  // reads it, and the coordinator's committed relations are moved into
  // the caller's database only after every thread quiesced.
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
  for (const auto& [name, rel] : replicas[0].relations()) {
    (void)name;
    db->Put(rel);
  }
  return std::move(**results[0]);
}

}  // namespace gumbo::dist
