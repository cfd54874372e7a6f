#include "layers.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/dictionary.h"
#include "common/scheduler.h"
#include "cost/constants.h"
#include "data/generator.h"
#include "data/workloads.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "mr/engine.h"
#include "mr/program.h"
#include "mr/runtime.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "serve/service.h"
#include "sgf/naive_eval.h"
#include "sgf/parser.h"
#include "sgf/query_gen.h"
#include "soak/soak.h"

namespace gumbo::bm {

namespace {

// Every paper relation represents 100M tuples, whatever is materialized.
constexpr double kRepresentedTuples = 100e6;

// The dictionary interns string constants and is not thread-safe, so each
// client thread parses with its own. The benchmark's queries carry no
// string constants, so every dictionary yields the same values.
Dictionary& ThreadDictionary() {
  thread_local Dictionary dict;
  return dict;
}

plan::Strategy PlanStrategy(Strategy s) {
  return s == Strategy::kGreedy ? plan::Strategy::kGreedy
                                : plan::Strategy::kGreedySgf;
}

SchedCounters ToCounters(const SchedGroupMetrics& m) {
  SchedCounters c;
  c.busy_ms = static_cast<double>(m.busy_us.load()) / 1e3;
  c.stall_ms = static_cast<double>(m.stall_us.load()) / 1e3;
  c.morsels = m.morsels.load();
  return c;
}

// Runs `f` inside a span named `name` and adds its wall time to *seconds.
template <typename F>
auto Timed(const char* name, const TraceCtx& t, double* seconds, F&& f) {
  Scope s(t.tracer, name, t.parent, t.query);
  const int64_t start = NowNs();
  auto result = f();
  *seconds += static_cast<double>(NowNs() - start) / 1e9;
  return result;
}

struct TracedJob {
  mr::Engine::JobResult result;
  EngineCounts counts;
};

// Engine::RunDetached, one span per mr::JobExecution phase.
Result<TracedJob> RunJobTraced(const mr::Engine& engine, const mr::JobSpec& job,
                               const Database& db, const SchedContext& ctx,
                               const TraceCtx& t) {
  Scope job_span(t.tracer, "mr.job", t.parent, t.query);
  const SpanId parent = job_span.id();
  TracedJob out;
  std::unique_ptr<mr::JobExecution> exec;
  {
    Scope s(t.tracer, "mr.prepare", parent, t.query);
    Result<std::unique_ptr<mr::JobExecution>> prepared =
        mr::JobExecution::Prepare(engine, job, db, ctx);
    if (!prepared.ok()) return prepared.status();
    exec = std::move(*prepared);
  }
  int reducers = 0;
  {
    Scope s(t.tracer, "mr.map", parent, t.query);
    GUMBO_RETURN_IF_ERROR(exec->RunMaps());
    exec->AccountMaps();
    reducers = exec->ChooseReducers(exec->OwnedIntermediateMb(),
                                    exec->TotalInputMb());
  }
  {
    Scope s(t.tracer, "mr.partition", parent, t.query);
    GUMBO_RETURN_IF_ERROR(exec->Partition(reducers));
  }
  double max_bytes = 0.0;
  double sum_bytes = 0.0;
  for (int p = 0; p < reducers; ++p) {
    const double b = exec->shuffle().PartitionWireBytes(static_cast<size_t>(p));
    max_bytes = std::max(max_bytes, b);
    sum_bytes += b;
  }
  if (sum_bytes > 0.0) {
    out.counts.skew_weighted = max_bytes * static_cast<double>(reducers);
    out.counts.skew_bytes = sum_bytes;
  }
  for (const mr::MapTaskSpec& task : exec->tasks()) {
    out.counts.map_rows += task.end - task.begin;
  }
  {
    Scope s(t.tracer, "mr.reduce", parent, t.query);
    GUMBO_RETURN_IF_ERROR(exec->RunReduces());
  }
  {
    Scope s(t.tracer, "mr.finish", parent, t.query);
    exec->AccountReduces();
    Result<mr::Engine::JobResult> finished = exec->Finish();
    if (!finished.ok()) return finished.status();
    out.result = std::move(*finished);
    exec.reset();  // frees the shuffle inside the phase that owns it
  }
  for (const Relation& rel : out.result.outputs) {
    out.counts.output_rows += rel.size();
  }
  return out;
}

}  // namespace

void EngineCounts::Add(const EngineCounts& o) {
  map_rows += o.map_rows;
  shuffle_records += o.shuffle_records;
  shuffle_messages += o.shuffle_messages;
  combined_messages += o.combined_messages;
  filtered_messages += o.filtered_messages;
  fingerprint_collisions += o.fingerprint_collisions;
  output_rows += o.output_rows;
  input_mb += o.input_mb;
  comm_mb += o.comm_mb;
  skew_weighted += o.skew_weighted;
  skew_bytes += o.skew_bytes;
}

void SchedCounters::Add(const SchedCounters& o) {
  busy_ms += o.busy_ms;
  stall_ms += o.stall_ms;
  morsels += o.morsels;
}

// ---- data + sgf -----------------------------------------------------------

Result<Case> PaperCase(const std::string& name, Strategy strategy,
                       const DataSpec& data) {
  data::GeneratorConfig g;
  g.seed = data.seed;
  g.tuples = data.tuples;
  g.selectivity = data.selectivity;
  g.representation_scale =
      kRepresentedTuples / static_cast<double>(data.tuples);
  const int i = name.size() == 2 ? name[1] - '0' : 0;
  Result<data::Workload> w =
      name[0] == 'A'   ? data::MakeA(i, g)
      : name[0] == 'B' ? data::MakeB(i, g)
      : name[0] == 'C' ? data::MakeC(i, g)
                       : Result<data::Workload>(Status::InvalidArgument(
                             "no catalog query " + name));
  if (!w.ok()) return w.status();
  Case c;
  c.name = name;
  c.text = w->query.ToString(&Dictionary::Global());
  c.db = std::move(w->db);
  c.strategy = strategy;
  return c;
}

Case GeneratedCase(Shape shape, uint64_t query_seed, Regime regime,
                   const DataSpec& data) {
  sgf::QueryGenConfig qc;
  qc.shape = shape == Shape::kDeepChain       ? sgf::QueryShape::kDeepChain
             : shape == Shape::kWideFanout    ? sgf::QueryShape::kWideFanout
             : shape == Shape::kAntiJoinHeavy ? sgf::QueryShape::kAntiJoinHeavy
                                              : sgf::QueryShape::kMixed;
  const sgf::GeneratedQuery q = sgf::QueryGenerator(qc).Generate(query_seed);
  Case c;
  c.name = std::string(sgf::QueryShapeName(qc.shape)) + "-" +
           std::to_string(query_seed);
  c.text = q.query.ToString(&Dictionary::Global());
  c.db = soak::BuildDatabase(q.base_relations,
                             regime == Regime::kZipfHeavy
                                 ? soak::DataRegime::kZipfHeavy
                                 : soak::DataRegime::kHotCold,
                             data.seed, data.tuples, data.selectivity);
  c.strategy = Strategy::kGreedySgf;
  return c;
}

void CopyRelations(const Database& from, Database* into) {
  for (const auto& [name, rel] : from.relations()) into->Put(rel);
}

double DatabaseMb(const Database& db) {
  size_t words = 0;
  for (const auto& [name, rel] : db.relations()) {
    words += rel.words().size() + rel.fingerprints().size();
  }
  return static_cast<double>(words * sizeof(uint64_t)) / (1 << 20);
}

Result<sgf::SgfQuery> Parse(const std::string& text, const TraceCtx& t) {
  Scope s(t.tracer, "sgf.parse", t.parent, t.query);
  return sgf::ParseSgf(text, &ThreadDictionary());
}

Result<Database> Reference(const std::string& text, const Database& db) {
  GUMBO_ASSIGN_OR_RETURN(sgf::SgfQuery query, Parse(text));
  return sgf::NaiveEvalSgf(query, db);
}

std::string CompareToReference(const Database& got,
                               const Database& reference) {
  if (got.size() != reference.size()) {
    return std::to_string(got.size()) + " output relations, reference has " +
           std::to_string(reference.size());
  }
  for (const auto& [name, want] : reference.relations()) {
    Result<const Relation*> have = got.Get(name);
    if (!have.ok()) return name + ": missing";
    if (!(*have)->SetEquals(want)) {
      return name + ": " + std::to_string((*have)->size()) +
             " rows, reference has " + std::to_string(want.size());
    }
  }
  return "";
}

std::string CompareBytes(const Database& a, const Database& b) {
  if (a.size() != b.size()) {
    return std::to_string(a.size()) + " relations vs " +
           std::to_string(b.size());
  }
  for (const auto& [name, x] : a.relations()) {
    Result<const Relation*> y = b.Get(name);
    if (!y.ok()) return name + ": missing";
    if (x.arity() != (*y)->arity() || x.words() != (*y)->words()) {
      return name + ": words differ";
    }
    if (x.fingerprints() != (*y)->fingerprints()) {
      return name + ": fingerprints differ";
    }
  }
  return "";
}

// ---- plan + mr + common scheduler + dist ------------------------------------

Executor::Executor(double bytes_scale)
    : engine_(std::make_unique<mr::Engine>(
          cost::ClusterConfig().ScaledBytes(bytes_scale))) {}

Executor::~Executor() = default;

Result<Planned> Executor::Plan(const sgf::SgfQuery& query, const Database& db,
                               Strategy strategy, const TraceCtx& t) {
  plan::PlannerOptions options;
  options.strategy = PlanStrategy(strategy);
  Result<plan::QueryPlan> lowered = [&] {
    Scope s(t.tracer, "plan.plan", t.parent, t.query);
    return plan::Planner(engine_->config(), options).Plan(query, db);
  }();
  if (!lowered.ok()) return lowered.status();
  Planned p;
  p.estimated_cost = lowered->estimated_cost;
  p.jobs = static_cast<int>(lowered->program.size());
  p.rounds = lowered->program.Rounds();
  p.plan = std::make_shared<const plan::QueryPlan>(std::move(*lowered));
  return p;
}

Result<Execution> Executor::Execute(const Planned& planned,
                                    const Database& base, int local_shards,
                                    SchedCounters* sched) {
  SchedGroupMetrics metrics;
  plan::ExecutionContext ctx;
  ctx.local_shards = local_shards;
  if (sched != nullptr) ctx.sched.metrics = &metrics;
  Execution e;
  GUMBO_ASSIGN_OR_RETURN(
      plan::ExecutionResult r,
      plan::ExecutePlanOnSnapshot(*planned.plan, engine_.get(), base,
                                  &e.outputs, ctx));
  e.net_s = r.metrics.net_time;
  e.total_s = r.metrics.total_time;
  e.wire_mb = r.metrics.dist_wire_mb;
  e.wall_ms = r.metrics.wall_ms;
  if (sched != nullptr) *sched = ToCounters(metrics);
  return e;
}

Result<Execution> Executor::ExecuteTraced(const Planned& planned,
                                          const Database& base,
                                          const TraceCtx& t,
                                          SchedCounters* sched) {
  const int64_t start = NowNs();
  SchedGroupMetrics metrics;
  SchedContext ctx;
  ctx.metrics = &metrics;
  const mr::Program& program = planned.plan->program;
  auto overlay = std::make_unique<Database>(&base);
  std::vector<mr::JobStats> jobs(program.size());
  Execution e;
  const std::vector<std::vector<size_t>> rounds =
      mr::Runtime::JobRounds(program);
  for (const std::vector<size_t>& round : rounds) {
    Scope round_span(t.tracer, "mr.round", t.parent, t.query);
    const TraceCtx jt{t.tracer, round_span.id(), t.query};
    std::vector<std::optional<Result<TracedJob>>> results(round.size());
    engine_->scheduler().ParallelFor(
        round.size(),
        [&](size_t k) {
          results[k] =
              RunJobTraced(*engine_, program.job(round[k]), *overlay, ctx, jt);
        },
        ctx);
    for (const auto& r : results) {
      if (!r->ok()) return r->status();
    }
    Scope commit(t.tracer, "mr.commit", round_span.id(), t.query);
    for (size_t k = 0; k < round.size(); ++k) {
      TracedJob& job = **results[k];
      for (Relation& out : job.result.outputs) overlay->Put(std::move(out));
      jobs[round[k]] = std::move(job.result.stats);
      e.counts.Add(job.counts);
    }
  }
  {
    Scope cleanup(t.tracer, "mr.commit", t.parent, t.query);
    for (const std::string& name : planned.plan->outputs) {
      GUMBO_ASSIGN_OR_RETURN(Relation * rel, overlay->GetMutable(name));
      e.outputs.Put(std::move(*rel));
    }
    overlay.reset();  // drops the intermediates
  }
  e.wall_ms = static_cast<double>(NowNs() - start) / 1e6;

  // The modeled clock, summed and simulated exactly as mr::Runtime does.
  std::vector<std::vector<size_t>> deps;
  for (size_t i = 0; i < program.size(); ++i) deps.push_back(program.deps(i));
  for (const mr::JobStats& js : jobs) {
    e.total_s += js.TotalCost();
    e.wire_mb += js.dist_wire_mb;
    e.counts.input_mb += js.hdfs_read_mb;
    e.counts.comm_mb += js.shuffle_mb + js.filter_broadcast_mb;
    e.counts.shuffle_records += js.shuffle_records;
    e.counts.shuffle_messages += js.shuffle_messages;
    e.counts.combined_messages += js.combined_messages;
    e.counts.filtered_messages += js.filtered_messages;
    e.counts.fingerprint_collisions += js.fingerprint_collisions;
  }
  e.net_s = mr::SimulateNetTime(jobs, deps, engine_->config());
  if (sched != nullptr) *sched = ToCounters(metrics);
  return e;
}

Status MeasureCodec(const Database& db, const TraceCtx& t,
                    CodecCounts* counts) {
  dist::InProcTransport transport(2);
  for (const auto& [name, rel] : db.relations()) {
    std::vector<uint8_t> frame = Timed("dist.encode", t, &counts->encode_s, [&] {
      return dist::EncodeRelationFrame(rel, /*src_shard=*/0);
    });
    counts->bytes += static_cast<double>(frame.size());
    Timed("dist.checksum", t, &counts->checksum_s, [&] {
      return dist::WireChecksum(frame.data() + dist::kFrameHeaderBytes,
                                frame.size() - dist::kFrameHeaderBytes);
    });
    Result<std::vector<uint8_t>> received =
        Timed("dist.transport", t, &counts->transport_s, [&] {
          Status sent = transport.Send(0, 1, std::move(frame));
          if (!sent.ok()) return Result<std::vector<uint8_t>>(sent);
          return transport.Recv(1, 0, dist::Transport::kDefaultTimeoutMs);
        });
    if (!received.ok()) return received.status();
    Result<dist::FrameReader> reader = Timed(
        "dist.parse", t, &counts->parse_s,
        [&] { return dist::FrameReader::Parse(*received); });
    if (!reader.ok()) return reader.status();
    Result<Relation> decoded = Timed("dist.decode", t, &counts->decode_s, [&] {
      return dist::DecodeRelationBody(&*reader);
    });
    if (!decoded.ok()) return decoded.status();
    if (decoded->words() != rel.words() ||
        decoded->fingerprints() != rel.fingerprints()) {
      return Status::Internal(name + ": decoded relation differs");
    }
  }
  return Status::Ok();
}

// ---- serve ----------------------------------------------------------------

Service::Service(Database* db)
    : service_(std::make_unique<serve::QueryService>(db,
                                                     serve::ServiceOptions{})) {}

Service::~Service() = default;

ReadOutcome Service::Read(sgf::SgfQuery query, const TraceCtx& t) {
  serve::Response r = [&] {
    Scope s(t.tracer, "serve.run", t.parent, t.query);
    return service_->Run(std::move(query));
  }();
  ReadOutcome o;
  o.status = r.status;
  o.outputs = std::move(r.outputs);
  o.wall_ms = r.wall_ms;
  o.queue_ms = r.metrics.queue_ms;
  o.plan_ms = r.metrics.plan_ms;
  o.exec_ms = r.metrics.wall_ms;
  o.sched_wait_ms = r.metrics.sched_wait_ms;
  o.morsels = r.metrics.sched_morsels;
  o.net_s = r.metrics.net_time;
  o.total_s = r.metrics.total_time;
  return o;
}

Status Service::Write(const std::string& relation,
                      const std::vector<int64_t>& values, const TraceCtx& t) {
  Tuple tuple;
  for (int64_t v : values) tuple.PushBack(Value::Int(v));
  Scope s(t.tracer, "serve.write", t.parent, t.query);
  return service_->AddFact(relation, tuple);
}

ServiceCounters Service::Counters() const {
  const serve::ServiceStats s = service_->Stats();
  ServiceCounters c;
  c.result_hits = s.result_hits;
  c.delta_hits = s.delta_hits;
  c.delta_rows = s.delta_rows;
  c.plan_hits = s.cache.hits;
  c.plan_lookups = s.cache.hits + s.cache.misses;
  c.plans_built = s.plans_built;
  c.plan_coalesced = s.plan_coalesced;
  return c;
}

}  // namespace gumbo::bm
