#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <utility>

#include "layers.h"
#include "stats.h"

namespace gumbo::bm {

namespace {

// ---- Sizes (README.md, "Workloads") ----------------------------------------
constexpr size_t kBatchTuples = 30000;
constexpr size_t kServeTuples = 20000;
constexpr double kUniformSelectivity = 0.5;
constexpr double kSkewSelectivity = 0.4;
// Batch workloads report p90, which needs 100 samples to leave 10 beyond
// it. serve-rw reports p99 of its reads: 20 phases x 72 reads = 1,440.
constexpr size_t kMinBatchQueries = 100;
constexpr int kMinServePhases = 20;
constexpr int kClients = 4;
constexpr int kReadsPerPhase = 72;
constexpr int kGuardWrites = 6;
constexpr int kConditionalWrites = 2;
constexpr size_t kMaxErrors = 5;

// ---- The metric catalog, in BENCHMARK.json's order. Every workload
// reports every metric; a layer a workload never reaches reports 0.
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"query_p50_ms", "ms"},    {"query_tail_ms", "ms"},
    {"throughput_qps", "1/s"}, {"modeled_net_s", "s"},
    {"modeled_total_s", "s"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sgf.parse_us", "us"},
    {"plan.plan_ms", "ms"},
    {"plan.share", "frac"},
    {"plan.jobs", "count"},
    {"plan.rounds", "count"},
    {"cost.estimate_ratio", "ratio"},
    {"mr.prepare_ms", "ms"},
    {"mr.map_ms", "ms"},
    {"mr.partition_ms", "ms"},
    {"mr.reduce_ms", "ms"},
    {"mr.finish_ms", "ms"},
    {"mr.commit_ms", "ms"},
    {"mr.map_rows_per_s", "rows/s"},
    {"mr.partition_records_per_s", "records/s"},
    {"mr.combiner_yield", "frac"},
    {"mr.filter_yield", "frac"},
    {"mr.partition_skew", "ratio"},
    {"mr.map_rows", "count"},
    {"mr.shuffle_records", "count"},
    {"mr.shuffle_messages", "count"},
    {"mr.combined_messages", "count"},
    {"mr.filtered_messages", "count"},
    {"mr.fingerprint_collisions", "count"},
    {"mr.output_rows", "count"},
    {"mr.input_gb", "GB"},
    {"mr.comm_gb", "GB"},
    {"common.sched_busy_ms", "ms"},
    {"common.sched_stall_ms", "ms"},
    {"common.morsels", "count"},
    {"common.parallelism", "ratio"},
    {"dist.exec_ms", "ms"},
    {"dist.single_exec_ms", "ms"},
    {"dist.overhead_ms", "ms"},
    {"dist.wire_mb", "MB"},
    {"dist.encode_mb_per_s", "MB/s"},
    {"dist.parse_mb_per_s", "MB/s"},
    {"dist.decode_mb_per_s", "MB/s"},
    {"dist.checksum_mb_per_s", "MB/s"},
    {"dist.transport_mb_per_s", "MB/s"},
    {"serve.queue_ms", "ms"},
    {"serve.plan_ms", "ms"},
    {"serve.exec_ms", "ms"},
    {"serve.sched_wait_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"serve.write_p50_ms", "ms"},
    {"serve.write_p90_ms", "ms"},
    {"serve.result_hit_rate", "frac"},
    {"serve.delta_hit_rate", "frac"},
    {"serve.full_run_rate", "frac"},
    {"serve.plan_cache_hit_rate", "frac"},
    {"serve.plans_built", "count"},
    {"serve.plan_coalesced", "count"},
    {"serve.delta_rows", "count"},
    {"data.gen_ms", "ms"},
    {"trace.overhead_frac", "frac"},
    {"trace.coverage_frac", "frac"},
};

using Values = std::map<std::string, double>;

template <size_t N>
std::vector<Metric> Collect(const MetricDef (&defs)[N], const Values& values) {
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    out.push_back({d.name, it != values.end() ? it->second : 0.0, d.unit});
  }
  return out;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double MsSince(int64_t start_ns) { return SecondsSince(start_ns) * 1e3; }

double Div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// setup_s is the median of set-ups spread over the run. The host's speed
// drifts over seconds, so set-ups done only before the timed run would
// see one moment of it while the timed operations see the whole run.
// Three set-ups come before the timed run, then one more each time the
// timed run passes another tenth of its length, as long as all set-ups
// together stay within a third of it. The extra set-ups are discarded.
class SetupSamples {
 public:
  explicit SetupSamples(double run_s) : run_s_(run_s) {}

  /// Before the timed run: whether another set-up is needed.
  bool Initial() const { return s_.size() < 3; }

  /// During the timed run, `timed_s` into it: whether to set up again.
  bool Due(double timed_s) {
    if (timed_s < tenths_ * run_s_ / 10.0 ||
        total_ + Median(s_) > run_s_ / 3.0) {
      return false;
    }
    tenths_ = static_cast<int>(timed_s * 10.0 / run_s_) + 1;
    return true;
  }

  void Add(double seconds) {
    s_.push_back(seconds);
    total_ += seconds;
  }

  double MedianSeconds() const { return Median(s_); }

 private:
  double run_s_;
  int tenths_ = 1;
  double total_ = 0.0;
  std::vector<double> s_;
};

// `query_mb` holds the size of each query's relations; `base_mb` is all
// of the workload's base data.
DataSizes SizesOf(const std::vector<double>& query_mb, double base_mb) {
  DataSizes d;
  d.base_mb = base_mb;
  if (!query_mb.empty()) {
    d.query_min_mb = *std::min_element(query_mb.begin(), query_mb.end());
    d.query_max_mb = *std::max_element(query_mb.begin(), query_mb.end());
  }
  return d;
}

// Each query of a batch workload reads its own database.
DataSizes SizesOf(const std::vector<const Database*>& dbs) {
  std::vector<double> query_mb;
  double base_mb = 0.0;
  for (const Database* db : dbs) {
    query_mb.push_back(DatabaseMb(*db));
    base_mb += query_mb.back();
  }
  return SizesOf(query_mb, base_mb);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB
}

// Counts operations and keeps the first few failures.
class Checker {
 public:
  explicit Checker(WorkloadResult* result) : result_(result) {}

  /// One operation; a non-empty `problem` marks it failed.
  void Op(const std::string& what, const std::string& problem) {
    ++result_->attempted;
    if (problem.empty()) return;
    ++result_->failed;
    if (result_->errors.size() < kMaxErrors) {
      result_->errors.push_back(what + ": " + problem);
    }
  }

 private:
  WorkloadResult* result_;
};

// What one query's executions must reproduce: its naive reference, and
// after the first execution that matched it, that execution's bytes and
// modeled times.
struct Expected {
  Database reference;
  std::optional<Database> first;
  std::optional<std::pair<double, double>> modeled;  // (net, total)
};

// "" when `run` reproduces `x`; otherwise what differs.
std::string Check(Result<Execution>& run, Expected& x) {
  if (!run.ok()) return run.status().ToString();
  std::string diff = x.first ? CompareBytes(run->outputs, *x.first)
                             : CompareToReference(run->outputs, x.reference);
  if (!diff.empty()) return diff;
  if (!x.first) x.first = std::move(run->outputs);
  if (!x.modeled) {
    x.modeled = {run->net_s, run->total_s};
  } else if (x.modeled->first != run->net_s ||
             x.modeled->second != run->total_s) {
    return "modeled times differ from the first run";
  }
  return "";
}

// Span totals of a traced run, by span name.
struct SpanStats {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> total_ms;
  /// Least share of a root "query" span that its children cover.
  double min_coverage = 0.0;

  double Self(const std::string& name) const { return Get(self_ms, name); }
  double Total(const std::string& name) const { return Get(total_ms, name); }

 private:
  static double Get(const std::map<std::string, double>& m,
                    const std::string& name) {
    auto it = m.find(name);
    return it != m.end() ? it->second : 0.0;
  }
};

SpanStats SpanStatsOf(const std::vector<Span>& spans) {
  SpanStats s;
  const std::vector<int64_t> self = SelfTimesNs(spans);
  bool any_root = false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    s.self_ms[name] += static_cast<double>(self[i]) / 1e6;
    s.total_ms[name] += static_cast<double>(spans[i].ns()) / 1e6;
    if (spans[i].parent == 0 && name == "query" && spans[i].ns() > 0) {
      const double covered =
          1.0 - static_cast<double>(self[i]) / static_cast<double>(spans[i].ns());
      s.min_coverage = any_root ? std::min(s.min_coverage, covered) : covered;
      any_root = true;
    }
  }
  return s;
}

// The traced run is at most a third of the timed one: another pass starts
// only if it is expected to end within that share; the first always runs.
bool AnotherTracedPass(int passes, int64_t start_ns, double last_pass_s,
                       double seconds) {
  return passes == 0 || SecondsSince(start_ns) + last_pass_s <= seconds / 3.0;
}

// The timed latencies of a run, each with the index of its query (its
// text on serve-rw).
struct Latencies {
  std::vector<double> ms;
  std::vector<size_t> query;

  void Add(size_t q, double latency_ms) {
    ms.push_back(latency_ms);
    query.push_back(q);
  }
};

// query_p50_ms is the median over the workload's queries of each query's
// median latency. A median over all samples falls where the sorted
// latencies of two queries meet, and a few slowed runs of faster queries
// move it into the next query's latencies: on paper-uniform it spread
// about twice as much between runs as throughput did. The tail is taken
// over all samples, since it exists to catch the slow runs.
void ReportLatencies(const Latencies& l, double tail_p, double timed_s,
                     double ops, Checker* check, Values* e2e) {
  std::map<size_t, std::vector<double>> by_query;
  for (size_t i = 0; i < l.ms.size(); ++i) by_query[l.query[i]].push_back(l.ms[i]);
  std::vector<double> medians;
  for (const auto& [q, ms] : by_query) medians.push_back(Median(ms));
  const std::optional<double> tail = Percentile(l.ms, tail_p);
  if (!tail) check->Op("percentiles", "too few samples");
  (*e2e)["query_p50_ms"] = Median(medians);
  (*e2e)["query_tail_ms"] = tail.value_or(0.0);
  (*e2e)["throughput_qps"] = Rate(ops, timed_s);
}

// ---- paper-uniform and generated-skew --------------------------------------

using MakeCases = std::function<Result<std::vector<Case>>(uint64_t seed)>;

Result<std::vector<Case>> PaperUniformCases(uint64_t seed) {
  const DataSpec data{seed, kBatchTuples, kUniformSelectivity};
  std::vector<Case> cases;
  for (const char* name : {"A1", "A2", "A3", "A4", "A5", "B1", "B2"}) {
    GUMBO_ASSIGN_OR_RETURN(Case c, PaperCase(name, Strategy::kGreedy, data));
    cases.push_back(std::move(c));
  }
  for (const char* name : {"C1", "C2", "C3", "C4"}) {
    GUMBO_ASSIGN_OR_RETURN(Case c, PaperCase(name, Strategy::kGreedySgf, data));
    cases.push_back(std::move(c));
  }
  return cases;
}

// 8 deep-chain, 8 wide-fanout and 8 anti-join-heavy programs, plus one
// mixed-shape program: with 25 equally weighted programs the p50 is one
// program's median (the 13th slowest) and the p90 rank falls inside one
// program's latencies instead of on the boundary between two, where it
// jumped between runs.
// The programs are fixed (query generator seeds 1..25), so every run
// measures the same programs; --seed varies only their data.
Result<std::vector<Case>> GeneratedSkewCases(uint64_t seed) {
  std::vector<Case> cases;
  for (uint64_t i = 0; i < 25; ++i) {
    const Shape shape = i < 8    ? Shape::kDeepChain
                        : i < 16 ? Shape::kWideFanout
                        : i < 24 ? Shape::kAntiJoinHeavy
                                 : Shape::kMixed;
    const Regime regime = i % 2 == 0 ? Regime::kZipfHeavy : Regime::kHotCold;
    cases.push_back(GeneratedCase(shape, 1 + i, regime,
                                  {seed + i, kBatchTuples, kSkewSelectivity}));
  }
  return cases;
}

void RunBatch(const MakeCases& make, double bytes_scale, const RunOptions& o,
              Tracer* tracer, Checker* check, DataSizes* sizes, Values* e2e,
              Values* layer) {
  SetupSamples setup(o.seconds);
  auto set_up = [&] {
    const int64_t start = NowNs();
    Result<std::vector<Case>> made = make(o.seed);
    setup.Add(SecondsSince(start));
    return made;
  };
  std::vector<Case> cases;
  while (setup.Initial()) {
    Result<std::vector<Case>> made = set_up();
    if (!made.ok()) return check->Op("setup", made.status().ToString());
    cases = std::move(*made);
  }
  std::vector<const Database*> dbs;
  for (const Case& c : cases) dbs.push_back(&c.db);
  *sizes = SizesOf(dbs);

  std::vector<Expected> expected(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    Result<Database> ref = Reference(cases[i].text, cases[i].db);
    if (!ref.ok()) return check->Op(cases[i].name, ref.status().ToString());
    expected[i].reference = std::move(*ref);
  }

  Executor executor(bytes_scale);
  auto run_query = [&](const Case& c, const TraceCtx& t, SchedCounters* sched,
                       Planned* planned) -> Result<Execution> {
    GUMBO_ASSIGN_OR_RETURN(sgf::SgfQuery query, Parse(c.text, t));
    GUMBO_ASSIGN_OR_RETURN(*planned, executor.Plan(query, c.db, c.strategy, t));
    return t.tracer == nullptr ? executor.Execute(*planned, c.db)
                               : executor.ExecuteTraced(*planned, c.db, t, sched);
  };

  Latencies latency;
  double timed_s = 0.0;
  for (int pass = 0; pass == 0 || timed_s < o.seconds ||
                     latency.ms.size() < kMinBatchQueries;
       ++pass) {
    for (size_t i = 0; i < cases.size(); ++i) {
      Planned planned;
      const int64_t start = NowNs();
      Result<Execution> run = run_query(cases[i], {}, nullptr, &planned);
      latency.Add(i, MsSince(start));
      timed_s += latency.ms.back() / 1e3;
      check->Op(cases[i].name, Check(run, expected[i]));
      if (setup.Due(timed_s)) {
        Result<std::vector<Case>> again = set_up();
        if (!again.ok()) return check->Op("setup", again.status().ToString());
      }
    }
  }
  ReportLatencies(latency, 0.9, timed_s,
                  static_cast<double>(latency.ms.size()), check, e2e);
  (*e2e)["peak_rss_mb"] = PeakRssMb();
  (*e2e)["setup_s"] = setup.MedianSeconds();
  (*layer)["data.gen_ms"] = setup.MedianSeconds() * 1e3;
  for (const Expected& x : expected) {
    if (!x.modeled) continue;
    (*e2e)["modeled_net_s"] += x.modeled->first;
    (*e2e)["modeled_total_s"] += x.modeled->second;
  }
  if (tracer == nullptr) return;

  std::vector<double> traced_ms;
  EngineCounts counts;
  SchedCounters sched_sum;
  double exec_ms = 0.0;
  double log_ratio = 0.0;
  double ratios = 0.0;
  double plan_jobs = 0.0;
  double plan_rounds = 0.0;
  int passes = 0;
  uint32_t qid = 0;
  const int64_t traced_start = NowNs();
  for (double last_pass_s = 0.0;
       AnotherTracedPass(passes, traced_start, last_pass_s, o.seconds);
       ++passes) {
    const int64_t pass_start = NowNs();
    for (size_t i = 0; i < cases.size(); ++i) {
      Planned planned;
      SchedCounters sched;
      const int64_t start = NowNs();
      Result<Execution> run = [&] {
        Scope q(tracer, "query", 0, ++qid);
        return run_query(cases[i], {tracer, q.id(), qid}, &sched, &planned);
      }();
      traced_ms.push_back(MsSince(start));
      if (run.ok()) {
        counts.Add(run->counts);
        sched_sum.Add(sched);
        exec_ms += run->wall_ms;
        if (planned.estimated_cost > 0.0 && run->total_s > 0.0) {
          log_ratio += std::log(planned.estimated_cost / run->total_s);
          ratios += 1.0;
        }
        plan_jobs += planned.jobs;
        plan_rounds += planned.rounds;
      }
      check->Op(cases[i].name + " traced", Check(run, expected[i]));
    }
    last_pass_s = SecondsSince(pass_start);
  }

  const SpanStats spans = SpanStatsOf(tracer->Spans());
  const double nq = static_cast<double>(traced_ms.size());
  const double np = static_cast<double>(passes);
  Values& l = *layer;
  l["sgf.parse_us"] = Div(spans.Self("sgf.parse"), nq) * 1e3;
  l["plan.plan_ms"] = Div(spans.Self("plan.plan"), nq);
  l["plan.share"] = Div(spans.Total("plan.plan"), spans.Total("query"));
  l["plan.jobs"] = Div(plan_jobs, np);
  l["plan.rounds"] = Div(plan_rounds, np);
  l["cost.estimate_ratio"] = ratios > 0.0 ? std::exp(log_ratio / ratios) : 0.0;
  for (const char* phase :
       {"prepare", "map", "partition", "reduce", "finish", "commit"}) {
    l[std::string("mr.") + phase + "_ms"] =
        Div(spans.Self(std::string("mr.") + phase), nq);
  }
  l["mr.map_rows_per_s"] =
      Rate(static_cast<double>(counts.map_rows), spans.Self("mr.map") / 1e3);
  l["mr.partition_records_per_s"] =
      Rate(static_cast<double>(counts.shuffle_records),
           spans.Self("mr.partition") / 1e3);
  const double shuffled = static_cast<double>(counts.shuffle_messages);
  const double combined = static_cast<double>(counts.combined_messages);
  const double filtered = static_cast<double>(counts.filtered_messages);
  l["mr.combiner_yield"] = Div(combined, shuffled + combined);
  l["mr.filter_yield"] = Div(filtered, shuffled + combined + filtered);
  l["mr.partition_skew"] = Div(counts.skew_weighted, counts.skew_bytes);
  l["mr.map_rows"] = Div(static_cast<double>(counts.map_rows), np);
  l["mr.shuffle_records"] = Div(static_cast<double>(counts.shuffle_records), np);
  l["mr.shuffle_messages"] = Div(shuffled, np);
  l["mr.combined_messages"] = Div(combined, np);
  l["mr.filtered_messages"] = Div(filtered, np);
  l["mr.fingerprint_collisions"] =
      Div(static_cast<double>(counts.fingerprint_collisions), np);
  l["mr.output_rows"] = Div(static_cast<double>(counts.output_rows), np);
  l["mr.input_gb"] = Div(counts.input_mb / 1024.0, np);
  l["mr.comm_gb"] = Div(counts.comm_mb / 1024.0, np);
  l["common.sched_busy_ms"] = Div(sched_sum.busy_ms, nq);
  l["common.sched_stall_ms"] = Div(sched_sum.stall_ms, nq);
  l["common.morsels"] = Div(static_cast<double>(sched_sum.morsels), np);
  l["common.parallelism"] = Div(sched_sum.busy_ms, exec_ms);
  l["trace.overhead_frac"] = Div(Median(traced_ms), Median(latency.ms)) - 1.0;
  l["trace.coverage_frac"] = spans.min_coverage;
}

// ---- sharded-2 --------------------------------------------------------------

void RunSharded(const RunOptions& o, Tracer* tracer, Checker* check,
                DataSizes* sizes, Values* e2e, Values* layer) {
  struct ShardCase {
    Case c;
    Planned planned;
    Expected x;
  };
  const std::pair<const char*, Strategy> kQueries[] = {
      {"A1", Strategy::kGreedy},
      {"A3", Strategy::kGreedy},
      {"B1", Strategy::kGreedy},
      {"C2", Strategy::kGreedySgf}};
  constexpr int kShards = 2;
  const DataSpec data{o.seed, kBatchTuples, kUniformSelectivity};

  Executor executor;
  SetupSamples setup(o.seconds);
  std::vector<double> gen_s;
  auto set_up = [&]() -> Result<std::vector<ShardCase>> {
    const int64_t start = NowNs();
    std::vector<ShardCase> made;
    for (const auto& [name, strategy] : kQueries) {
      GUMBO_ASSIGN_OR_RETURN(Case c, PaperCase(name, strategy, data));
      made.push_back({std::move(c), {}, {}});
    }
    gen_s.push_back(SecondsSince(start));
    for (ShardCase& sc : made) {
      GUMBO_ASSIGN_OR_RETURN(sgf::SgfQuery query, Parse(sc.c.text));
      GUMBO_ASSIGN_OR_RETURN(sc.planned,
                             executor.Plan(query, sc.c.db, sc.c.strategy));
    }
    setup.Add(SecondsSince(start));
    return made;
  };
  std::vector<ShardCase> cases;
  while (setup.Initial()) {
    Result<std::vector<ShardCase>> made = set_up();
    if (!made.ok()) return check->Op("setup", made.status().ToString());
    cases = std::move(*made);
  }
  std::vector<const Database*> dbs;
  for (const ShardCase& sc : cases) dbs.push_back(&sc.c.db);
  *sizes = SizesOf(dbs);

  // Off the clock: every sharded output must be byte-identical to the
  // single-process output, which must match the naive reference.
  for (ShardCase& sc : cases) {
    Result<Database> ref = Reference(sc.c.text, sc.c.db);
    Result<Execution> single = executor.Execute(sc.planned, sc.c.db);
    std::string problem = !ref.ok()      ? ref.status().ToString()
                          : !single.ok() ? single.status().ToString()
                                         : CompareToReference(single->outputs, *ref);
    check->Op(sc.c.name + " single-process", problem);
    if (!problem.empty()) return;
    sc.x.first = std::move(single->outputs);
  }

  Latencies latency;
  double timed_s = 0.0;
  for (int pass = 0; pass == 0 || timed_s < o.seconds ||
                     latency.ms.size() < kMinBatchQueries;
       ++pass) {
    for (size_t i = 0; i < cases.size(); ++i) {
      ShardCase& sc = cases[i];
      const int64_t start = NowNs();
      Result<Execution> run = executor.Execute(sc.planned, sc.c.db, kShards);
      latency.Add(i, MsSince(start));
      timed_s += latency.ms.back() / 1e3;
      if (pass == 0 && run.ok()) (*layer)["dist.wire_mb"] += run->wire_mb;
      check->Op(sc.c.name, Check(run, sc.x));
      if (setup.Due(timed_s)) {
        Result<std::vector<ShardCase>> again = set_up();
        if (!again.ok()) return check->Op("setup", again.status().ToString());
      }
    }
  }
  ReportLatencies(latency, 0.9, timed_s,
                  static_cast<double>(latency.ms.size()), check, e2e);
  (*e2e)["peak_rss_mb"] = PeakRssMb();
  (*e2e)["setup_s"] = setup.MedianSeconds();
  (*layer)["data.gen_ms"] = Median(gen_s) * 1e3;
  for (const ShardCase& sc : cases) {
    if (!sc.x.modeled) continue;
    (*e2e)["modeled_net_s"] += sc.x.modeled->first;
    (*e2e)["modeled_total_s"] += sc.x.modeled->second;
  }
  if (tracer == nullptr) return;

  std::vector<double> traced_ms;
  SchedCounters sched_sum;
  CodecCounts codec;
  int passes = 0;
  uint32_t qid = 0;
  const int64_t traced_start = NowNs();
  for (double last_pass_s = 0.0;
       AnotherTracedPass(passes, traced_start, last_pass_s, o.seconds);
       ++passes) {
    const int64_t pass_start = NowNs();
    for (ShardCase& sc : cases) {
      SchedCounters sched;
      Result<Execution> sharded = Status::Internal("not run");
      Result<Execution> single = Status::Internal("not run");
      Status codec_status;
      {
        Scope q(tracer, "query", 0, ++qid);
        const int64_t start = NowNs();
        {
          Scope s(tracer, "dist.exec", q.id(), qid);
          sharded = executor.Execute(sc.planned, sc.c.db, kShards, &sched);
        }
        traced_ms.push_back(MsSince(start));
        {
          Scope s(tracer, "dist.single_exec", q.id(), qid);
          single = executor.Execute(sc.planned, sc.c.db);
        }
        codec_status = MeasureCodec(sc.c.db, {tracer, q.id(), qid}, &codec);
      }
      sched_sum.Add(sched);
      check->Op(sc.c.name + " traced", Check(sharded, sc.x));
      check->Op(sc.c.name + " traced single-process",
                single.ok() ? CompareBytes(single->outputs, *sc.x.first)
                            : single.status().ToString());
      check->Op(sc.c.name + " codec",
                codec_status.ok() ? "" : codec_status.ToString());
    }
    last_pass_s = SecondsSince(pass_start);
  }

  const SpanStats spans = SpanStatsOf(tracer->Spans());
  const double nq = static_cast<double>(traced_ms.size());
  const double np = static_cast<double>(passes);
  Values& l = *layer;
  double plan_jobs = 0.0;
  double plan_rounds = 0.0;
  for (const ShardCase& sc : cases) {
    plan_jobs += sc.planned.jobs;
    plan_rounds += sc.planned.rounds;
  }
  l["plan.jobs"] = plan_jobs;
  l["plan.rounds"] = plan_rounds;
  l["dist.exec_ms"] = Div(spans.Total("dist.exec"), nq);
  l["dist.single_exec_ms"] = Div(spans.Total("dist.single_exec"), nq);
  l["dist.overhead_ms"] = l["dist.exec_ms"] - l["dist.single_exec_ms"];
  l["dist.encode_mb_per_s"] = MbPerS(codec.bytes, codec.encode_s);
  l["dist.parse_mb_per_s"] = MbPerS(codec.bytes, codec.parse_s);
  l["dist.decode_mb_per_s"] = MbPerS(codec.bytes, codec.decode_s);
  l["dist.checksum_mb_per_s"] = MbPerS(codec.bytes, codec.checksum_s);
  l["dist.transport_mb_per_s"] = MbPerS(codec.bytes, codec.transport_s);
  l["common.sched_busy_ms"] = Div(sched_sum.busy_ms, nq);
  l["common.sched_stall_ms"] = Div(sched_sum.stall_ms, nq);
  l["common.morsels"] = Div(static_cast<double>(sched_sum.morsels), np);
  l["common.parallelism"] = Div(sched_sum.busy_ms, spans.Total("dist.exec"));
  l["trace.overhead_frac"] = Div(Median(traced_ms), Median(latency.ms)) - 1.0;
  l["trace.coverage_frac"] = spans.min_coverage;
}

// ---- serve-rw ---------------------------------------------------------------

// Every lower-case identifier in SgfQuery::ToString output is a variable
// (keywords and relation names are upper case), so prefixing each one
// renames the query's variables without changing its meaning or its
// plan-cache key.
std::string AlphaRename(const std::string& text) {
  std::string out;
  for (size_t i = 0; i < text.size();) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (!std::isalpha(c) && c != '_') {
      out += text[i++];
      continue;
    }
    size_t j = i;
    while (j < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[j])) || text[j] == '_')) {
      ++j;
    }
    if (std::islower(c)) out += "v_";
    out.append(text, i, j - i);
    i = j;
  }
  return out;
}

struct ServeState {
  std::unique_ptr<Database> db;      // the service's mutable base
  std::unique_ptr<Service> service;  // after db: destroyed before it
  std::vector<std::string> names;    // the catalog names, then renamed copies
  std::vector<std::string> texts;
  std::vector<ReadOutcome> warmup;   // one read of each text, at set-up
  std::vector<double> query_mb;      // the relations each catalog query reads
  size_t keys() const { return texts.size() / 2; }
};

// One phase of serve-rw: the writes, alone, then the reads from
// kClients closed-loop clients.
struct Phase {
  std::vector<Status> writes;
  std::vector<double> write_ms;
  std::vector<ReadOutcome> reads;
  std::vector<double> read_ms;
  std::vector<size_t> text;  // text index of each read
  double seconds = 0.0;
};

Phase RunPhase(ServeState& s, int phase, std::mt19937_64& rng, Tracer* tracer,
               uint32_t* qid) {
  Phase p;
  const int64_t start = NowNs();
  // R is every catalog query's guard and appears nowhere else, so its
  // appends are delta-maintained; W is a conditional of A4 only, so its
  // appends make A4 plan and run again.
  for (int w = 0; w < kGuardWrites + kConditionalWrites; ++w) {
    const bool guard = w < kGuardWrites;
    std::vector<int64_t> fact(guard ? 4 : 1);
    for (int64_t& v : fact) v = static_cast<int64_t>(rng() % kServeTuples);
    const uint32_t id = ++*qid;
    const int64_t t0 = NowNs();
    p.writes.push_back(s.service->Write(guard ? "R" : "W", fact,
                                        {tracer, 0, id}));
    p.write_ms.push_back(MsSince(t0));
  }
  p.reads.resize(kReadsPerPhase);
  p.read_ms.resize(kReadsPerPhase);
  for (int j = 0; j < kReadsPerPhase; ++j) {
    p.text.push_back(static_cast<size_t>(phase * kReadsPerPhase + j) %
                     s.texts.size());
  }
  std::atomic<uint32_t> next_qid{*qid};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int j = c; j < kReadsPerPhase; j += kClients) {
        const uint32_t id = next_qid.fetch_add(1) + 1;
        const int64_t t0 = NowNs();
        {
          Scope q(tracer, "query", 0, id);
          const TraceCtx t{tracer, q.id(), id};
          Result<sgf::SgfQuery> query = Parse(s.texts[p.text[j]], t);
          if (query.ok()) {
            p.reads[j] = s.service->Read(std::move(*query), t);
          } else {
            p.reads[j].status = query.status();
          }
        }
        p.read_ms[j] = MsSince(t0);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  *qid = next_qid.load();
  p.seconds = SecondsSince(start);
  return p;
}

// Off the clock, between phases (nothing is in flight): the first read of
// each query must match the naive reference on the current data, every
// other read of it must be byte-identical to that first one. The naive
// references cost about as much as the phase itself, so they are computed
// concurrently, one thread per query.
void VerifyPhase(const ServeState& s, const Phase& p, Checker* check) {
  for (const Status& w : p.writes) check->Op("write", w.ok() ? "" : w.ToString());
  std::vector<std::optional<Result<Database>>> refs(s.keys());
  std::vector<std::thread> workers;
  for (size_t key = 0; key < s.keys(); ++key) {
    workers.emplace_back(
        [&, key] { refs[key] = Reference(s.texts[key], *s.db); });
  }
  for (std::thread& w : workers) w.join();
  std::vector<const Database*> first(s.keys(), nullptr);
  for (size_t j = 0; j < p.reads.size(); ++j) {
    const ReadOutcome& r = p.reads[j];
    const size_t key = p.text[j] % s.keys();
    const Result<Database>& ref = *refs[key];
    std::string problem;
    if (!r.status.ok()) {
      problem = r.status.ToString();
    } else if (first[key] != nullptr) {
      problem = CompareBytes(r.outputs, *first[key]);
    } else {
      problem = ref.ok() ? CompareToReference(r.outputs, *ref)
                         : ref.status().ToString();
      if (problem.empty()) first[key] = &r.outputs;
    }
    check->Op(s.names[p.text[j]], problem);
  }
}

void RunServe(const RunOptions& o, Tracer* tracer, Checker* check,
              DataSizes* sizes, Values* e2e, Values* layer) {
  const DataSpec data{o.seed, kServeTuples, kUniformSelectivity};
  SetupSamples setup(o.seconds);
  std::vector<double> gen_s;
  auto set_up = [&]() -> Result<std::unique_ptr<ServeState>> {
    const int64_t start = NowNs();
    auto s = std::make_unique<ServeState>();
    s->db = std::make_unique<Database>();
    for (const char* name : {"A1", "A2", "A3", "A4", "A5", "B1", "B2"}) {
      GUMBO_ASSIGN_OR_RETURN(Case c, PaperCase(name, Strategy::kGreedy, data));
      s->query_mb.push_back(DatabaseMb(c.db));
      CopyRelations(c.db, s->db.get());
      s->names.push_back(name);
      s->texts.push_back(c.text);
    }
    for (size_t k = 0, n = s->texts.size(); k < n; ++k) {
      s->names.push_back(s->names[k] + "-renamed");
      s->texts.push_back(AlphaRename(s->texts[k]));
    }
    gen_s.push_back(SecondsSince(start));
    s->service = std::make_unique<Service>(s->db.get());
    for (const std::string& text : s->texts) {
      GUMBO_ASSIGN_OR_RETURN(sgf::SgfQuery query, Parse(text));
      s->warmup.push_back(s->service->Read(std::move(query)));
    }
    setup.Add(SecondsSince(start));
    return s;
  };
  std::unique_ptr<ServeState> state;
  while (setup.Initial()) {
    Result<std::unique_ptr<ServeState>> made = set_up();
    if (!made.ok()) return check->Op("setup", made.status().ToString());
    state = std::move(*made);  // the previous service drains before its db goes
  }
  *sizes = SizesOf(state->query_mb, DatabaseMb(*state->db));

  // The warm-up's first reads were full runs of the seven queries on the
  // initial data: their modeled times are the workload's one pass.
  std::vector<Result<Database>> refs;
  for (size_t key = 0; key < state->keys(); ++key) {
    refs.push_back(Reference(state->texts[key], *state->db));
  }
  std::vector<ReadOutcome> warmup = std::move(state->warmup);
  for (size_t k = 0; k < warmup.size(); ++k) {
    const Result<Database>& ref = refs[k % state->keys()];
    check->Op(state->names[k] + " warm-up",
              !warmup[k].status.ok() ? warmup[k].status.ToString()
              : !ref.ok()            ? ref.status().ToString()
                                     : CompareToReference(warmup[k].outputs, *ref));
    if (k < state->keys()) {
      (*e2e)["modeled_net_s"] += warmup[k].net_s;
      (*e2e)["modeled_total_s"] += warmup[k].total_s;
    }
  }
  warmup.clear();

  std::mt19937_64 rng(o.seed);
  Latencies read;
  std::vector<double> write_ms;
  double timed_s = 0.0;
  int phase = 0;
  uint32_t qid = 0;
  for (; phase < kMinServePhases || timed_s < o.seconds; ++phase) {
    Phase p = RunPhase(*state, phase, rng, nullptr, &qid);
    timed_s += p.seconds;
    for (size_t j = 0; j < p.read_ms.size(); ++j) read.Add(p.text[j], p.read_ms[j]);
    write_ms.insert(write_ms.end(), p.write_ms.begin(), p.write_ms.end());
    VerifyPhase(*state, p, check);
    if (setup.Due(timed_s)) {
      Result<std::unique_ptr<ServeState>> again = set_up();
      if (!again.ok()) return check->Op("setup", again.status().ToString());
    }
  }
  ReportLatencies(read, 0.99, timed_s,
                  static_cast<double>(read.ms.size() + write_ms.size()), check,
                  e2e);
  (*e2e)["peak_rss_mb"] = PeakRssMb();
  (*e2e)["setup_s"] = setup.MedianSeconds();
  (*layer)["data.gen_ms"] = Median(gen_s) * 1e3;
  if (tracer == nullptr) return;

  Values& l = *layer;
  l["serve.write_p50_ms"] = Percentile(write_ms, 0.5).value_or(0.0);
  l["serve.write_p90_ms"] = Percentile(write_ms, 0.9).value_or(0.0);
  const ServiceCounters before = state->service->Counters();
  std::vector<double> traced_ms;
  double queue = 0.0, plan = 0.0, exec = 0.0, wait = 0.0, self = 0.0;
  double morsels = 0.0;
  int passes = 0;
  const int64_t traced_start = NowNs();
  for (double last_pass_s = 0.0;
       AnotherTracedPass(passes, traced_start, last_pass_s, o.seconds);
       ++passes, ++phase) {
    Phase p = RunPhase(*state, phase, rng, tracer, &qid);
    last_pass_s = p.seconds;
    for (size_t j = 0; j < p.reads.size(); ++j) {
      const ReadOutcome& r = p.reads[j];
      traced_ms.push_back(p.read_ms[j]);
      queue += r.queue_ms;
      plan += r.plan_ms;
      exec += r.exec_ms;
      wait += r.sched_wait_ms;
      self += r.wall_ms - r.queue_ms - r.plan_ms - r.exec_ms;
      morsels += static_cast<double>(r.morsels);
    }
    VerifyPhase(*state, p, check);
  }
  const ServiceCounters after = state->service->Counters();

  const SpanStats spans = SpanStatsOf(tracer->Spans());
  const double reads = static_cast<double>(traced_ms.size());
  const double np = static_cast<double>(passes);
  auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  l["sgf.parse_us"] = Div(spans.Self("sgf.parse"), reads) * 1e3;
  l["serve.queue_ms"] = Div(queue, reads);
  l["serve.plan_ms"] = Div(plan, reads);
  l["serve.exec_ms"] = Div(exec, reads);
  l["serve.sched_wait_ms"] = Div(wait, reads);
  l["serve.self_ms"] = Div(self, reads);
  l["serve.result_hit_rate"] =
      Div(delta(before.result_hits, after.result_hits), reads);
  l["serve.delta_hit_rate"] =
      Div(delta(before.delta_hits, after.delta_hits), reads);
  l["serve.full_run_rate"] =
      1.0 - l["serve.result_hit_rate"] - l["serve.delta_hit_rate"];
  l["serve.plan_cache_hit_rate"] = Div(delta(before.plan_hits, after.plan_hits),
                                       delta(before.plan_lookups, after.plan_lookups));
  l["serve.plans_built"] = Div(delta(before.plans_built, after.plans_built), np);
  l["serve.plan_coalesced"] =
      Div(delta(before.plan_coalesced, after.plan_coalesced), np);
  l["serve.delta_rows"] = Div(delta(before.delta_rows, after.delta_rows), np);
  l["common.sched_stall_ms"] = Div(wait, reads);
  l["common.morsels"] = Div(morsels, np);
  l["trace.overhead_frac"] = Div(Median(traced_ms), Median(read.ms)) - 1.0;
  l["trace.coverage_frac"] = spans.min_coverage;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "paper-uniform", "generated-skew", "serve-rw", "sharded-2"};
  return kNames;
}

WorkloadResult RunWorkload(const std::string& name, const RunOptions& options,
                           Tracer* tracer) {
  WorkloadResult result;
  Checker check(&result);
  Values e2e;
  Values layer;
  DataSizes* sizes = &result.data;
  if (name == "paper-uniform") {
    RunBatch(PaperUniformCases, 1.0, options, tracer, &check, sizes, &e2e,
             &layer);
  } else if (name == "generated-skew") {
    // soak::BuildDatabase materializes relations at scale 1, so the
    // cluster scales down instead: each relation still splits into the
    // map tasks of a 100M-tuple relation.
    RunBatch(GeneratedSkewCases, static_cast<double>(kBatchTuples) / 100e6,
             options, tracer, &check, sizes, &e2e, &layer);
  } else if (name == "serve-rw") {
    RunServe(options, tracer, &check, sizes, &e2e, &layer);
  } else if (name == "sharded-2") {
    RunSharded(options, tracer, &check, sizes, &e2e, &layer);
  } else {
    check.Op("workload", "unknown workload " + name);
  }
  result.end_to_end = Collect(kEndToEnd, e2e);
  if (tracer != nullptr) result.per_layer = Collect(kPerLayer, layer);
  return result;
}

}  // namespace gumbo::bm
