#include "mr/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "cost/model.h"
#include "mr/shuffle.h"

namespace gumbo::mr {

namespace {

constexpr double kMbPerByte = 1.0 / (1024.0 * 1024.0);

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool Owns(const OwnedFn& owned, size_t i) { return !owned || owned(i); }

// Reduce-side sink writing straight into flat RelationBuilders — one per
// declared output — so the collect phase adopts arenas wholesale instead
// of moving tuples one by one (DESIGN.md §7). Rows are fingerprinted once
// here, at emission; the output relation never re-hashes them.
class BuilderReduceEmitter : public ReduceEmitter {
 public:
  explicit BuilderReduceEmitter(const std::vector<JobOutput>& outputs) {
    builders_.reserve(outputs.size());
    for (const JobOutput& o : outputs) builders_.emplace_back(o.arity);
  }
  void Emit(size_t output_index, const Tuple& tuple) override {
    if (output_index >= builders_.size()) {
      bad_output_ = true;  // reported as Status::Internal at the chain end
      return;
    }
    builders_[output_index].Add(tuple);
  }
  void Emit(size_t output_index, TupleView row) override {
    if (output_index >= builders_.size()) {
      bad_output_ = true;
      return;
    }
    builders_[output_index].Add(row);
  }
  /// True once a reducer emitted to an output index the job never
  /// declared — the Emit interface cannot return a Status, so the
  /// violation is latched here and promoted by the reduce chain.
  bool bad_output() const { return bad_output_; }
  std::vector<RelationBuilder>& builders() { return builders_; }

 private:
  std::vector<RelationBuilder> builders_;
  bool bad_output_ = false;
};

}  // namespace

/// Per-map-task shuffle accounting, filled by RunMaps.
struct JobExecution::TaskIo {
  double output_mb = 0.0;    // represented MB of intermediate data
  double metadata_mb = 0.0;  // represented MB of per-record metadata
  ShuffleTaskIo io;          // raw record/message counts
  uint64_t filtered = 0;     // emissions suppressed by Bloom filters
};

/// Per-reduce-partition outputs + accounting, filled by RunReduces.
struct JobExecution::ReduceOut {
  std::vector<RelationBuilder> outputs;  // [output_index] -> flat rows
  double shuffle_mb = 0.0;
  double output_mb = 0.0;
};

JobExecution::JobExecution(const Engine& engine, const JobSpec& job)
    : engine_(engine), job_(job), shuffle_(0, job.pack_messages) {}

JobExecution::~JobExecution() = default;

Result<std::unique_ptr<JobExecution>> JobExecution::Prepare(
    const Engine& engine, const JobSpec& job, const Database& db,
    const SchedContext& ctx) {
  std::unique_ptr<JobExecution> exec(new JobExecution(engine, job));
  const cost::ClusterConfig& config = engine.config();

  // Resolve the scheduling context once: every phase of this job runs on
  // the engine's scheduler, at the caller's priority, with the caller's
  // metrics sink; a zero morsel size means the engine default.
  exec->sched_ctx_ = ctx;
  exec->sched_ctx_.scheduler = &engine.scheduler();
  if (exec->sched_ctx_.morsel_rows == 0) {
    exec->sched_ctx_.morsel_rows = engine.sched_options().morsel_rows;
  }
  exec->morsel_rows_ = std::max<size_t>(1, exec->sched_ctx_.morsel_rows);

  // Failure handling (DESIGN.md §11): every morsel chain polls the
  // caller's cancellation token at its chain boundaries, and an active
  // fault injector gets a deterministic shot at each task attempt. A
  // failed attempt is abandoned before any of its output is adopted, so
  // a retry re-runs the idempotent task from its beginning and the
  // committed bytes stay identical to a fault-free run.
  if (exec->sched_ctx_.faults != nullptr && !exec->sched_ctx_.faults->active()) {
    exec->sched_ctx_.faults = nullptr;
  }
  exec->max_retries_ = engine.sched_options().max_task_retries;
  GUMBO_RETURN_IF_ERROR(CheckCancel(exec->sched_ctx_.cancel));

  if (!job.mapper_factory || !job.reducer_factory) {
    return Status::InvalidArgument("job " + job.name +
                                   ": missing mapper or reducer factory");
  }
  if (job.inputs.empty()) {
    return Status::InvalidArgument("job " + job.name + ": no inputs");
  }

  // Resolve inputs and check a consistent representation scale.
  exec->inputs_.reserve(job.inputs.size());
  double scale = -1.0;
  for (const JobInput& in : job.inputs) {
    GUMBO_ASSIGN_OR_RETURN(const Relation* rel, db.Get(in.dataset));
    if (scale < 0.0) {
      scale = rel->representation_scale();
    } else if (std::abs(scale - rel->representation_scale()) >
               1e-9 * std::max(1.0, scale)) {
      return Status::FailedPrecondition(
          "job " + job.name + ": input " + in.dataset +
          " has representation scale " +
          std::to_string(rel->representation_scale()) +
          ", expected " + std::to_string(scale));
    }
    exec->inputs_.push_back(rel);
  }
  exec->scale_ = scale;

  // ---- Plan map tasks. The split depends only on the resolved inputs
  // and the cluster config, so every shard computes the same list.
  JobStats& stats = exec->stats_;
  stats.job_name = job.name;
  stats.job_overhead = config.costs.job_overhead;
  stats.inputs.resize(job.inputs.size());
  for (size_t i = 0; i < exec->inputs_.size(); ++i) {
    const Relation* rel = exec->inputs_[i];
    double mb = rel->SizeMb();
    int ntasks = std::max(
        1, static_cast<int>(std::ceil(mb / std::max(config.split_mb, 1e-9))));
    size_t n = rel->size();
    for (int k = 0; k < ntasks; ++k) {
      MapTaskSpec t;
      t.input_index = i;
      t.begin = n * static_cast<size_t>(k) / static_cast<size_t>(ntasks);
      t.end = n * static_cast<size_t>(k + 1) / static_cast<size_t>(ntasks);
      t.input_mb = static_cast<double>(t.end - t.begin) * scale *
                   rel->bytes_per_tuple() * kMbPerByte;
      exec->tasks_.push_back(t);
    }
    stats.inputs[i].dataset = job.inputs[i].dataset;
    stats.inputs[i].input_mb = mb;
    stats.inputs[i].num_map_tasks = ntasks;
  }

  // ---- Bloom filters (DESIGN.md §5.2): the operator declares them, the
  // engine fills them from the resolved inputs — one morsel per filter —
  // before any map task runs; every mapper gets the set.
  if (job.filter_builder) {
    GUMBO_ASSIGN_OR_RETURN(FilterPlan plan, job.filter_builder(exec->inputs_));
    if (!plan.filters.empty()) {
      FilterSet fs =
          BuildFilters(std::move(plan), exec->inputs_, exec->sched_ctx_);
      stats.filter_mb = fs.SizeBytes() * scale * kMbPerByte;
      stats.filter_build_cost =
          cost::FilterBuildCost(config.costs, fs.scan_mb());
      // Distributed-cache style: one filter copy shipped per node, not
      // per task (DESIGN.md §5.3).
      stats.filter_broadcast_mb =
          stats.filter_mb * static_cast<double>(config.nodes);
      exec->filters_ = std::make_shared<const FilterSet>(std::move(fs));
    }
  }

  if (exec->tasks_.size() >= (1u << 24)) {
    return Status::Internal(
        "job " + job.name + ": " + std::to_string(exec->tasks_.size()) +
        " map tasks exceed the shuffle's 24-bit task id space");
  }
  exec->shuffle_ = Shuffle(exec->tasks_.size(), job.pack_messages);
  exec->task_io_.resize(exec->tasks_.size());
  stats.map_task_costs.resize(exec->tasks_.size());
  // The filter broadcast cost is spread evenly over the map tasks so it
  // enters the net-time simulation (DESIGN.md §5.3).
  exec->broadcast_cost_per_task_ =
      exec->filters_ != nullptr && !exec->tasks_.empty()
          ? cost::FilterBroadcastCost(config.costs, stats.filter_mb,
                                      config.nodes) /
                static_cast<double>(exec->tasks_.size())
          : 0.0;
  return exec;
}

double JobExecution::TotalInputMb() const {
  double total = 0.0;
  for (const MapTaskSpec& t : tasks_) total += t.input_mb;
  return total;
}

Status JobExecution::RunMaps(const OwnedFn& owned) {
  const double meta_bytes = engine_.config().costs.metadata_bytes_per_record;
  const double overhead = job_.intermediate_overhead_factor;
  const CancelToken* cancel = sched_ctx_.cancel;
  const FaultInjector* faults = sched_ctx_.faults;

  // Each map task runs as a *chain* of row-range morsels (DESIGN.md §9):
  // the chain shares one mapper + emission buffer, and each morsel
  // resubmits the next one, so the task's emission order — and therefore
  // its combined/packed wire bytes and every downstream byte — is
  // exactly the sequential order, while the scheduler is free to
  // interleave other queries' morsels between any two of ours.
  struct MapChain {
    size_t ti = 0;
    size_t next_row = 0;
    uint32_t attempt = 0;
    uint64_t attempt_start_us = 0;
    std::unique_ptr<Mapper> mapper;
    std::unique_ptr<Combiner> combiner;
    MapOutputBuffer emitter;
    Status status;  ///< this chain's terminal failure, if any
  };
  std::vector<MapChain> chains(tasks_.size());
  // Cancellation and fault escalation abort the whole phase: sibling
  // chains stop resubmitting at their next morsel boundary and the
  // group drains. Nothing was adopted by a chain that didn't finish,
  // and the job result is discarded on error, so stopping early never
  // leaks partial state.
  std::atomic<bool> abort{false};
  Scheduler::TaskGroup group(sched_ctx_);
  // Arms (or, after an injected fault, re-arms) one map task attempt:
  // scan position back to the task's first row, fresh operators, fresh
  // emission buffer — a retried attempt is indistinguishable from a
  // first run, which is what keeps retries byte-identical.
  auto arm = [&](MapChain& c) {
    c.next_row = tasks_[c.ti].begin;
    c.mapper = job_.mapper_factory();
    if (filters_ != nullptr) c.mapper->AttachFilters(filters_.get());
    if (job_.combiner_factory) c.combiner = job_.combiner_factory();
    c.emitter = MapOutputBuffer();
    if (faults != nullptr) c.attempt_start_us = NowUs();
  };
  std::function<void(size_t)> step = [&](size_t ti) {
    if (abort.load(std::memory_order_relaxed)) return;
    MapChain& c = chains[ti];
    if (const Status cs = CheckCancel(cancel); !cs.ok()) {
      abort.store(true, std::memory_order_relaxed);
      return;
    }
    const MapTaskSpec& t = tasks_[ti];
    const Relation* rel = inputs_[t.input_index];
    const size_t stop = std::min(t.end, c.next_row + morsel_rows_);
    for (size_t j = c.next_row; j < stop; ++j) {
      // Zero-copy scan: the mapper sees the stored flat row with its
      // precomputed fingerprint (DESIGN.md §7).
      c.mapper->Map(t.input_index, rel->view(j), static_cast<uint64_t>(j),
                    &c.emitter);
    }
    c.next_row = stop;
    // The fault check runs after the morsel's rows, so an injected
    // fault always abandons an attempt that did real partial work —
    // the adversarial case for the discard-then-retry contract.
    if (faults != nullptr &&
        faults->ShouldFail(FaultSite::kMapScan, ti, c.attempt)) {
      retry_counters_.faults_injected.fetch_add(1, std::memory_order_relaxed);
      retry_counters_.retry_us.fetch_add(NowUs() - c.attempt_start_us,
                                         std::memory_order_relaxed);
      if (c.attempt >= max_retries_) {
        c.status =
            FaultInjector::InjectedFault(FaultSite::kMapScan, ti, c.attempt);
        abort.store(true, std::memory_order_relaxed);
        return;
      }
      retry_counters_.task_retries.fetch_add(1, std::memory_order_relaxed);
      ++c.attempt;
      arm(c);
      group.Submit([&step, ti] { step(ti); });
      return;
    }
    if (stop < t.end) {
      group.Submit([&step, ti] { step(ti); });
      return;
    }
    Result<ShuffleTaskIo> io_or =
        shuffle_.AddTaskOutput(ti, std::move(c.emitter), c.combiner.get());
    if (!io_or.ok()) {
      c.status = io_or.status();
      abort.store(true, std::memory_order_relaxed);
      return;
    }
    const ShuffleTaskIo& io = *io_or;
    task_io_[ti].output_mb = io.wire_bytes * overhead * scale_ * kMbPerByte;
    task_io_[ti].metadata_mb =
        static_cast<double>(io.records) * meta_bytes * scale_ * kMbPerByte;
    task_io_[ti].io = io;
    task_io_[ti].filtered = c.mapper->SuppressedEmissions();
  };
  for (size_t ti = 0; ti < tasks_.size(); ++ti) {
    if (!Owns(owned, ti)) continue;
    MapChain& c = chains[ti];
    c.ti = ti;
    arm(c);
    group.Submit([&step, ti] { step(ti); });
  }
  group.Wait();
  GUMBO_RETURN_IF_ERROR(CheckCancel(cancel));
  // Lowest recorded failure wins. The status *code* is deterministic
  // for a fixed fault seed; the reported task may vary when the abort
  // raced a sibling's own exhaustion, which only affects the message.
  for (const MapChain& c : chains) {
    GUMBO_RETURN_IF_ERROR(c.status);
  }
  return Status::Ok();
}

void JobExecution::AccountMaps(const OwnedFn& owned) {
  const double overhead = job_.intermediate_overhead_factor;
  // Per-input aggregates and per-task map costs, over the owned tasks
  // only: unowned slots stay zero, so a coordinator reconstructs the
  // global vectors by element-wise summing the shards' disjoint fills.
  for (size_t ti = 0; ti < tasks_.size(); ++ti) {
    if (!Owns(owned, ti)) continue;
    const MapTaskSpec& t = tasks_[ti];
    InputStats& is = stats_.inputs[t.input_index];
    is.output_mb += task_io_[ti].output_mb;
    is.metadata_mb += task_io_[ti].metadata_mb;
    stats_.shuffle_mb += task_io_[ti].output_mb;
    stats_.hdfs_read_mb += t.input_mb;
    cost::MapPartition p;
    p.input_mb = t.input_mb;
    p.output_mb = task_io_[ti].output_mb;
    p.metadata_mb = task_io_[ti].metadata_mb;
    p.num_mappers = 1;
    stats_.map_task_costs[ti] =
        cost::MapCost(engine_.config().costs, p) + broadcast_cost_per_task_;
    stats_.shuffle_records += task_io_[ti].io.records;
    stats_.shuffle_messages += task_io_[ti].io.messages;
    stats_.fingerprint_collisions += task_io_[ti].io.fingerprint_collisions;
    stats_.combined_messages += task_io_[ti].io.combined_messages;
    stats_.combined_mb +=
        task_io_[ti].io.combined_bytes * overhead * scale_ * kMbPerByte;
    stats_.filtered_messages += task_io_[ti].filtered;
  }
}

double JobExecution::OwnedIntermediateMb(const OwnedFn& owned) const {
  double total = 0.0;
  for (size_t ti = 0; ti < tasks_.size(); ++ti) {
    if (Owns(owned, ti)) total += task_io_[ti].output_mb;
  }
  return total;
}

int JobExecution::ChooseReducers(double total_intermediate_mb,
                                 double total_input_mb) const {
  const cost::ClusterConfig& config = engine_.config();
  int r = 1;
  switch (job_.reducer_allocation) {
    case ReducerAllocation::kByIntermediateSize:
      r = std::max(1, static_cast<int>(std::ceil(total_intermediate_mb /
                                                 config.mb_per_reducer)));
      break;
    case ReducerAllocation::kByMapInputSize:
      // Pig's 1 GB of map input per reducer; expressed relative to the
      // cluster's (possibly scaled) 256 MB intermediate allocation.
      r = std::max(1, static_cast<int>(std::ceil(
                          total_input_mb / (4.0 * config.mb_per_reducer))));
      break;
    case ReducerAllocation::kFixed:
      r = std::max(1, job_.fixed_num_reducers);
      break;
  }
  return r;
}

Status JobExecution::Partition(int num_reducers) {
  stats_.num_reducers = num_reducers;
  red_.resize(static_cast<size_t>(num_reducers));
  return shuffle_.Partition(num_reducers, sched_ctx_.scheduler, sched_ctx_,
                            max_retries_, &retry_counters_);
}

Status JobExecution::RunReduces(const OwnedFn& owned) {
  const size_t r = red_.size();
  const CancelToken* cancel = sched_ctx_.cancel;
  const FaultInjector* faults = sched_ctx_.faults;

  // Reduce tasks chain like map tasks: one reducer + emitter per
  // partition, each morsel consuming a bounded budget of whole key groups
  // via the shuffle's resumable cursor, so key order and per-partition
  // output order are exactly the sequential walk's.
  struct ReduceChain {
    std::unique_ptr<Reducer> reducer;
    std::unique_ptr<BuilderReduceEmitter> emitter;
    Shuffle::GroupCursor cursor;
    uint32_t attempt = 0;
    uint64_t attempt_start_us = 0;
    Status status;  ///< this chain's terminal failure, if any
  };
  std::vector<ReduceChain> chains(r);
  std::atomic<bool> abort{false};
  Scheduler::TaskGroup group(sched_ctx_);
  // Fresh reducer + emitter + cursor per attempt: outputs are adopted
  // only when the whole partition walked cleanly, so re-walking after
  // an injected fault is idempotent (same groups, same order).
  auto arm = [&](ReduceChain& c) {
    c.reducer = job_.reducer_factory();
    c.emitter = std::make_unique<BuilderReduceEmitter>(job_.outputs);
    c.cursor = Shuffle::GroupCursor();
    if (faults != nullptr) c.attempt_start_us = NowUs();
  };
  std::function<void(size_t)> step = [&](size_t rj) {
    if (abort.load(std::memory_order_relaxed)) return;
    ReduceChain& c = chains[rj];
    if (const Status cs = CheckCancel(cancel); !cs.ok()) {
      abort.store(true, std::memory_order_relaxed);
      return;
    }
    const bool more = shuffle_.ForEachGroupChunk(
        rj, &c.cursor, morsel_rows_,
        [&](TupleView key, const MessageGroup& values) {
          c.reducer->Reduce(key, values, c.emitter.get());
        });
    if (c.emitter->bad_output()) {
      c.status = Status::Internal(
          "job " + job_.name + ": reducer emitted to an output index >= " +
          std::to_string(job_.outputs.size()) + " (partition " +
          std::to_string(rj) + ")");
      abort.store(true, std::memory_order_relaxed);
      return;
    }
    if (faults != nullptr &&
        faults->ShouldFail(FaultSite::kReduceEmit, rj, c.attempt)) {
      retry_counters_.faults_injected.fetch_add(1, std::memory_order_relaxed);
      retry_counters_.retry_us.fetch_add(NowUs() - c.attempt_start_us,
                                         std::memory_order_relaxed);
      if (c.attempt >= max_retries_) {
        c.status = FaultInjector::InjectedFault(FaultSite::kReduceEmit, rj,
                                                c.attempt);
        abort.store(true, std::memory_order_relaxed);
        return;
      }
      retry_counters_.task_retries.fetch_add(1, std::memory_order_relaxed);
      ++c.attempt;
      arm(c);
      group.Submit([&step, rj] { step(rj); });
      return;
    }
    if (more) {
      group.Submit([&step, rj] { step(rj); });
      return;
    }
    ReduceOut& out = red_[rj];
    out.shuffle_mb = shuffle_.PartitionWireBytes(rj) *
                     job_.intermediate_overhead_factor * scale_ * kMbPerByte;
    out.outputs = std::move(c.emitter->builders());
    for (size_t oi = 0; oi < job_.outputs.size(); ++oi) {
      const JobOutput& spec = job_.outputs[oi];
      double bpt =
          spec.bytes_per_tuple > 0.0 ? spec.bytes_per_tuple : 10.0 * spec.arity;
      out.output_mb += static_cast<double>(out.outputs[oi].size()) * scale_ *
                       bpt * kMbPerByte;
    }
  };
  for (size_t rj = 0; rj < r; ++rj) {
    if (!Owns(owned, rj)) continue;
    arm(chains[rj]);
    group.Submit([&step, rj] { step(rj); });
  }
  group.Wait();
  GUMBO_RETURN_IF_ERROR(CheckCancel(cancel));
  for (const ReduceChain& c : chains) {
    GUMBO_RETURN_IF_ERROR(c.status);
  }
  return Status::Ok();
}

void JobExecution::AccountReduces(const OwnedFn& owned) {
  stats_.reduce_task_costs.resize(red_.size());
  for (size_t rj = 0; rj < red_.size(); ++rj) {
    if (!Owns(owned, rj)) continue;
    stats_.reduce_task_costs[rj] =
        cost::ReduceCost(engine_.config().costs, red_[rj].shuffle_mb,
                         red_[rj].output_mb, /*num_reducers=*/1);
    stats_.hdfs_write_mb += red_[rj].output_mb;
    received_mb_ += red_[rj].shuffle_mb;
  }
}

void JobExecution::FinalizeCounters() {
  stats_.task_retries =
      retry_counters_.task_retries.load(std::memory_order_relaxed);
  stats_.faults_injected =
      retry_counters_.faults_injected.load(std::memory_order_relaxed);
  stats_.retry_ms =
      static_cast<double>(
          retry_counters_.retry_us.load(std::memory_order_relaxed)) /
      1000.0;
}

std::vector<RelationBuilder> JobExecution::TakeReduceOutputs(size_t rj) {
  return std::move(red_[rj].outputs);
}

Result<Engine::JobResult> JobExecution::Finish() {
  // Reconciliation: the reduce-side partition totals only feed per-task
  // cost attribution; the bytes metric itself is the map-side
  // stats.shuffle_mb (the single source of truth, see mr/stats.h). The
  // two views must agree — every shuffled byte lands in exactly one
  // partition — and the invariant is enforced in Release builds too, so
  // CI's Release matrix catches accounting drift.
  if (std::abs(received_mb_ - stats_.shuffle_mb) >
      1e-6 * std::max(1.0, stats_.shuffle_mb)) {
    return Status::Internal(
        "job " + job_.name +
        ": map-side and reduce-side shuffle accounting diverged (map " +
        std::to_string(stats_.shuffle_mb) + " MB, reduce " +
        std::to_string(received_mb_) + " MB)");
  }

  // ---- Collect outputs.
  // Reduce tasks produced flat builders; the first non-empty builder's
  // arenas are moved into the relation wholesale, the rest are appended
  // with bulk copies — never tuple-by-tuple (DESIGN.md §7).
  Engine::JobResult result;
  result.outputs.reserve(job_.outputs.size());
  for (size_t oi = 0; oi < job_.outputs.size(); ++oi) {
    const JobOutput& spec = job_.outputs[oi];
    Relation out(spec.dataset, spec.arity);
    if (spec.bytes_per_tuple > 0.0) out.set_bytes_per_tuple(spec.bytes_per_tuple);
    out.set_representation_scale(scale_);
    size_t total = 0;
    for (const auto& rt : red_) total += rt.outputs[oi].size();
    for (auto& rt : red_) {
      const bool first_move = out.empty() && !rt.outputs[oi].empty();
      out.Adopt(std::move(rt.outputs[oi]));
      // Reserve for the remaining appends only after the wholesale move
      // of the first arena (reserving earlier would defeat the move).
      if (first_move) out.Reserve(total - out.size());
    }
    if (spec.dedupe) out.SortAndDedupe(sched_ctx_.scheduler, &sched_ctx_);
    result.outputs.push_back(std::move(out));
  }

  FinalizeCounters();
  result.stats = std::move(stats_);
  return result;
}

Result<Engine::JobResult> Engine::RunDetached(const JobSpec& job,
                                              const Database& db,
                                              const SchedContext& ctx) const {
  GUMBO_ASSIGN_OR_RETURN(std::unique_ptr<JobExecution> exec,
                         JobExecution::Prepare(*this, job, db, ctx));
  GUMBO_RETURN_IF_ERROR(exec->RunMaps());
  exec->AccountMaps();
  const int r =
      exec->ChooseReducers(exec->OwnedIntermediateMb(), exec->TotalInputMb());
  GUMBO_RETURN_IF_ERROR(exec->Partition(r));
  GUMBO_RETURN_IF_ERROR(exec->RunReduces());
  exec->AccountReduces();
  return exec->Finish();
}

Result<JobStats> Engine::Run(const JobSpec& job, Database* db,
                             const SchedContext& ctx) const {
  GUMBO_ASSIGN_OR_RETURN(JobResult result, RunDetached(job, *db, ctx));
  for (Relation& out : result.outputs) {
    db->Put(std::move(out));
  }
  return std::move(result.stats);
}

}  // namespace gumbo::mr
