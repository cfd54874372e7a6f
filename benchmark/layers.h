// The benchmark's only door into the library. Every call the benchmark
// makes into a layer's public functions (data, sgf, plan, mr, common
// scheduler, dist, serve) is in layers.cc, and the traced variants record
// a span around each one; the workloads see plain structs owned by the
// benchmark. When a layer's API is renamed, layers.cc is the one file to
// follow it.
#ifndef GUMBO_BENCHMARK_LAYERS_H_
#define GUMBO_BENCHMARK_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "sgf/sgf.h"
#include "trace.h"

namespace gumbo::mr {
class Engine;
}
namespace gumbo::plan {
struct QueryPlan;
}
namespace gumbo::serve {
class QueryService;
}

namespace gumbo::bm {

/// Where a traced call hangs its spans; the default records nothing.
struct TraceCtx {
  Tracer* tracer = nullptr;
  SpanId parent = 0;
  uint32_t query = 0;
};

struct DataSpec {
  uint64_t seed = 0;
  size_t tuples = 0;  ///< materialized tuples per relation
  double selectivity = 0.5;
};

enum class Strategy { kGreedy, kGreedySgf };
enum class Shape { kDeepChain, kWideFanout, kAntiJoinHeavy, kMixed };
enum class Regime { kZipfHeavy, kHotCold };

/// One query, as SGF text, with the database it runs on.
struct Case {
  std::string name;
  std::string text;
  Database db;
  Strategy strategy = Strategy::kGreedy;
};

// ---- data + sgf -----------------------------------------------------------

/// A catalog query of the paper (A1-A5, B1-B2 of Table 2, C1-C4 of
/// Figure 6) over fresh uniform data whose relations each represent 100M
/// tuples, rendered to text with SgfQuery::ToString.
Result<Case> PaperCase(const std::string& name, Strategy strategy,
                       const DataSpec& data);

/// A sgf::QueryGenerator program over a soak::BuildDatabase database.
Case GeneratedCase(Shape shape, uint64_t query_seed, Regime regime,
                   const DataSpec& data);

/// Puts a copy of every relation of `from` into `into`.
void CopyRelations(const Database& from, Database* into);

/// Megabytes (2^20 bytes) of the words and row fingerprints of every
/// relation of `db`: what a scan of all of it reads.
double DatabaseMb(const Database& db);

Result<sgf::SgfQuery> Parse(const std::string& text, const TraceCtx& t = {});

/// Every relation the query produces, by the naive reference evaluator.
Result<Database> Reference(const std::string& text, const Database& db);

/// "" when `got` holds exactly the relations of `reference`, each
/// set-equal to its reference; otherwise what differs.
std::string CompareToReference(const Database& got, const Database& reference);

/// "" when `a` and `b` hold the same relations with identical words and
/// row fingerprints; otherwise what differs.
std::string CompareBytes(const Database& a, const Database& b);

// ---- plan + mr + common scheduler + dist ------------------------------------

/// Engine counts of traced executions (exact, so a change in any of them
/// means the plan or an operator changed).
struct EngineCounts {
  uint64_t map_rows = 0;
  uint64_t shuffle_records = 0;
  uint64_t shuffle_messages = 0;
  uint64_t combined_messages = 0;
  uint64_t filtered_messages = 0;
  uint64_t fingerprint_collisions = 0;
  uint64_t output_rows = 0;
  double input_mb = 0.0;
  double comm_mb = 0.0;
  /// Sum over jobs of (max / mean partition wire bytes) x job wire bytes,
  /// and the sum of job wire bytes: their ratio is the byte-weighted skew.
  double skew_weighted = 0.0;
  double skew_bytes = 0.0;

  void Add(const EngineCounts& o);
};

/// Morsel-scheduler attribution of one execution (SchedGroupMetrics).
struct SchedCounters {
  double busy_ms = 0.0;
  double stall_ms = 0.0;
  uint64_t morsels = 0;

  void Add(const SchedCounters& o);
};

/// A lowered plan, immutable and reusable.
struct Planned {
  std::shared_ptr<const plan::QueryPlan> plan;
  double estimated_cost = 0.0;
  int jobs = 0;
  int rounds = 0;
};

struct Execution {
  Database outputs;   ///< the plan's output relations
  double net_s = 0.0;    ///< modeled net time (paper §5.1)
  double total_s = 0.0;  ///< modeled total time
  double wire_mb = 0.0;  ///< real wire frame bytes between shards
  double wall_ms = 0.0;  ///< the execution's own wall time
  EngineCounts counts;   ///< traced executions only
};

/// Throughput inputs of the wire codec and transport (dist).
struct CodecCounts {
  double bytes = 0.0;
  double encode_s = 0.0;
  double parse_s = 0.0;
  double decode_s = 0.0;
  double checksum_s = 0.0;
  double transport_s = 0.0;
};

class Executor {
 public:
  /// `bytes_scale` multiplies the paper testbed's byte-denominated knobs
  /// (split size, reducer allocation, buffers), for data that is not
  /// scaled up to paper size itself. 1 = the paper's cluster.
  explicit Executor(double bytes_scale = 1.0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  Result<Planned> Plan(const sgf::SgfQuery& query, const Database& db,
                       Strategy strategy, const TraceCtx& t = {});

  /// Runs through plan::ExecutePlanOnSnapshot with an ExecutionContext:
  /// `local_shards` > 1 shards it over an in-process transport.
  Result<Execution> Execute(const Planned& planned, const Database& base,
                            int local_shards = 1,
                            SchedCounters* sched = nullptr);

  /// The same execution, driven phase by phase so each gets a span: a
  /// round's jobs run through the scheduler's ParallelFor as the round
  /// runtime runs them, each job through the mr::JobExecution phases of
  /// Engine::RunDetached, outputs commit at the round barrier, and the
  /// net time is re-simulated with mr::SimulateNetTime.
  Result<Execution> ExecuteTraced(const Planned& planned, const Database& base,
                                  const TraceCtx& t, SchedCounters* sched);

 private:
  std::unique_ptr<mr::Engine> engine_;
};

/// Encodes every relation of `db` as a wire frame, then checksums it,
/// sends it through an in-process transport, parses and decodes it, timing
/// each step; fails unless the decoded relation is identical.
Status MeasureCodec(const Database& db, const TraceCtx& t,
                    CodecCounts* counts);

// ---- serve ----------------------------------------------------------------

struct ReadOutcome {
  Status status = Status::Ok();
  Database outputs;
  double wall_ms = 0.0;  ///< submit -> response, as the service measured
  double queue_ms = 0.0;
  double plan_ms = 0.0;
  double exec_ms = 0.0;
  double sched_wait_ms = 0.0;
  uint64_t morsels = 0;
  double net_s = 0.0;  ///< modeled; 0 for a result-cache hit
  double total_s = 0.0;
};

/// ServiceStats counters a workload reads as before/after differences.
struct ServiceCounters {
  uint64_t result_hits = 0;
  uint64_t delta_hits = 0;
  uint64_t delta_rows = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_lookups = 0;
  uint64_t plans_built = 0;
  uint64_t plan_coalesced = 0;
};

/// serve::QueryService with default options over a mutable database.
class Service {
 public:
  explicit Service(Database* db);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  ReadOutcome Read(sgf::SgfQuery query, const TraceCtx& t = {});
  Status Write(const std::string& relation, const std::vector<int64_t>& values,
               const TraceCtx& t = {});
  ServiceCounters Counters() const;

 private:
  std::unique_ptr<serve::QueryService> service_;
};

}  // namespace gumbo::bm

#endif  // GUMBO_BENCHMARK_LAYERS_H_
