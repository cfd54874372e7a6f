#include "soak/soak.h"

#include <set>
#include <string>

#include "common/config.h"
#include "common/dictionary.h"
#include "cost/calibration.h"
#include "data/generator.h"
#include "mr/engine.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "serve/service.h"
#include "sgf/naive_eval.h"
#include "sgf/parser.h"

namespace gumbo::soak {

namespace {

constexpr plan::Strategy kStrategies[] = {
    plan::Strategy::kSeq,       plan::Strategy::kPar,
    plan::Strategy::kGreedy,    plan::Strategy::kOpt,
    plan::Strategy::kOneRound,  plan::Strategy::kSeqUnit,
    plan::Strategy::kParUnit,   plan::Strategy::kGreedySgf,
    plan::Strategy::kOptSgf,
};

constexpr DataRegime kRegimes[] = {
    DataRegime::kUniform, DataRegime::kZipf,    DataRegime::kZipfHeavy,
    DataRegime::kCorrelated, DataRegime::kHotCold,
};

constexpr sgf::QueryShape kShapes[] = {
    sgf::QueryShape::kWideFanout,
    sgf::QueryShape::kDeepChain,
    sgf::QueryShape::kAntiJoinHeavy,
    sgf::QueryShape::kMixed,
};

// A tiny simulated cluster so the generated relations split into several
// map tasks / reducers (same sizing as tests/property_test.cc).
cost::ClusterConfig SoakCluster() {
  cost::ClusterConfig config;
  config.split_mb = 0.002;
  config.mb_per_reducer = 0.002;
  return config;
}

std::vector<std::string> OutputNames(const sgf::SgfQuery& query) {
  std::vector<std::string> names;
  names.reserve(query.size());
  for (const sgf::BsgfQuery& q : query.subqueries()) {
    names.push_back(q.output());
  }
  return names;
}

// Byte-identity check: both relations canonicalized (SortAndDedupe), then
// the flat word arenas AND the per-row fingerprints must match exactly.
// Returns an empty string on identity, a description otherwise.
std::string DiffRelation(const Relation& want_in, const Relation& got_in) {
  Relation want = want_in;
  Relation got = got_in;
  want.SortAndDedupe();
  got.SortAndDedupe();
  if (want.size() != got.size()) {
    return "size " + std::to_string(got.size()) + " != reference " +
           std::to_string(want.size());
  }
  if (want.words() != got.words()) return "word arenas differ";
  if (want.fingerprints() != got.fingerprints()) {
    return "row fingerprints differ (words identical)";
  }
  return "";
}

std::string DiffOutputs(const Database& expected, const Database& got,
                        const std::vector<std::string>& outputs) {
  for (const std::string& name : outputs) {
    Result<const Relation*> want = expected.Get(name);
    if (!want.ok()) return name + ": missing from reference";
    Result<const Relation*> have = got.Get(name);
    if (!have.ok()) return name + ": missing from result";
    std::string diff = DiffRelation(**want, **have);
    if (!diff.empty()) return name + ": " + diff;
  }
  return "";
}

enum class Outcome { kOk, kSkip, kFail, kCleanError };

// Chaos-mode triage: a fault-injected run may fail, but only with one of
// the typed terminal statuses of DESIGN.md §11. Anything else (Internal,
// wrong bytes, ...) means a fault corrupted state instead of being
// retried or cleanly escalated — a real failure.
bool IsCleanChaosError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

// One strategy against the naive reference. `calibration` (may be null)
// feeds the planner's estimates; `feed` (may be null) receives this
// execution's observed stats afterwards — the full loop under soak.
// `faults` (may be null) injects chaos into the execution; `retries`
// (may be null) accumulates the attempts re-run surviving it.
Outcome CheckStrategy(const sgf::SgfQuery& query, const Database& db,
                      const Database& expected,
                      const std::vector<std::string>& outputs,
                      plan::Strategy strategy,
                      const cost::CalibrationStore* calibration,
                      cost::CalibrationStore* feed,
                      const FaultInjector* faults, uint64_t* retries,
                      std::string* detail) {
  detail->clear();
  const cost::ClusterConfig config = SoakCluster();
  plan::PlannerOptions opts;
  opts.strategy = strategy;
  opts.sample_size = 32;
  opts.calibration = calibration;
  plan::Planner planner(config, opts);
  Result<plan::QueryPlan> plan = planner.Plan(query, db);
  if (!plan.ok()) {
    // Inapplicable strategy (1-ROUND precondition, OPT size limit, ...).
    *detail = plan.status().ToString();
    return Outcome::kSkip;
  }
  mr::Engine engine(config);
  SchedContext ctx;
  ctx.faults = (faults != nullptr && faults->active()) ? faults : nullptr;
  Database out;
  Result<plan::ExecutionResult> executed =
      plan::ExecutePlanOnSnapshot(*plan, &engine, db, &out, {ctx});
  if (!executed.ok()) {
    *detail = "execution failed: " + executed.status().ToString();
    return (ctx.faults != nullptr && IsCleanChaosError(executed.status()))
               ? Outcome::kCleanError
               : Outcome::kFail;
  }
  if (retries != nullptr) *retries += executed->metrics.task_retries;
  if (feed != nullptr) {
    plan::CalibrateFromExecution(*plan, executed->stats, feed);
  }
  *detail = DiffOutputs(expected, out, outputs);
  return detail->empty() ? Outcome::kOk : Outcome::kFail;
}

// The serve paths: with a cache on, the query is submitted twice — the
// second response must come from that cache (the cached plan re-executed,
// or a pure result-cache hit with no execution at all) AND stay
// identical; with everything off, once. `store` may be null
// (uncalibrated service). The "serve-cache" path keeps the result cache
// OFF so the cached-plan re-execution stays exercised — with it on, the
// second submission would short-circuit before ever reaching the plan.
Outcome CheckServe(const sgf::SgfQuery& query, const Database& db,
                   const Database& expected,
                   const std::vector<std::string>& outputs, bool cache,
                   bool result_cache, cost::CalibrationStore* store,
                   const FaultInjector* faults, uint64_t* retries,
                   std::string* detail) {
  detail->clear();
  const bool chaos = faults != nullptr && faults->active();
  serve::ServiceOptions so;
  so.max_inflight = 2;
  so.plan_cache = cache;
  so.result_cache = result_cache;
  so.cluster = SoakCluster();
  so.planner.sample_size = 32;
  so.calibration = store;
  // Hermetic: the service injects exactly what this check was handed —
  // never the ambient GUMBO_FAULT_* env (which would break the
  // minimizer's fault-free re-checks in a chaos environment).
  static const FaultInjector kNoFaults(0, 0.0);
  so.faults = faults != nullptr ? faults : &kNoFaults;
  serve::QueryService service(&db, so);
  Outcome outcome = Outcome::kOk;
  const int runs = (cache || result_cache) ? 2 : 1;
  for (int r = 0; r < runs; ++r) {
    serve::Response resp = service.Run(query);
    if (!resp.ok()) {
      *detail = "serve execution failed: " + resp.status.ToString();
      outcome = (chaos && IsCleanChaosError(resp.status)) ? Outcome::kCleanError
                                                          : Outcome::kFail;
      break;
    }
    // Under chaos a kCache fault legitimately degrades the second lookup
    // to a miss, so the hit assertions only hold fault-free.
    if (r == 1 && !chaos) {
      if (result_cache && !resp.metrics.result_cache_hit) {
        *detail = "second submission missed the result cache";
        outcome = Outcome::kFail;
        break;
      }
      if (!result_cache && cache && !resp.metrics.plan_cache_hit) {
        *detail = "second submission missed the plan cache";
        outcome = Outcome::kFail;
        break;
      }
    }
    std::string diff = DiffOutputs(expected, resp.outputs, outputs);
    if (!diff.empty()) {
      *detail = (r == 0 ? "cold run: "
                        : (result_cache ? "result-hit run: "
                                        : "cached-plan run: ")) +
                diff;
      outcome = Outcome::kFail;
      break;
    }
  }
  if (retries != nullptr) *retries += service.Stats().task_retries;
  return outcome;
}

// Mutation mode (DESIGN.md §12): one service over a *mutable* copy of the
// iteration database, both caches on. A cold run populates the result
// cache; then, per base relation in deterministic order, a small seeded
// batch of AddFacts lands through the service's write API and the query
// re-runs; a final batch inserts into every base relation before one
// more run, so guards and conditionals move together and the pass's
// guard slices are unions of semi-joins. Every post-mutation response
// must be byte-identical to a from-scratch naive evaluation of the
// mutated database — whether the service answered with a delta pass
// (inserts into guards and positively read conditionals), a pure result
// hit (no epoch moved for this query's relations), or a full run
// (inserts under NOT, or a slice a nested program cannot take).
// Responses delta-maintained after an insert into a conditional-position
// relation are counted apart, so a soak can require that path to run.
Outcome CheckMutation(const sgf::SgfQuery& query, const Database& base_db,
                      const std::map<std::string, uint32_t>& base,
                      const std::vector<std::string>& outputs, uint64_t seed,
                      size_t tuples, cost::CalibrationStore* store,
                      SoakReport* report, std::string* detail) {
  detail->clear();
  Database db = base_db;  // mutable copy; the iteration db stays pristine
  serve::ServiceOptions so;
  so.max_inflight = 2;
  so.cluster = SoakCluster();
  so.planner.sample_size = 32;
  so.calibration = store;
  // Mutation checks are always fault-free: they pin delta soundness, and
  // chaos coverage of the read path already exists in CheckServe.
  static const FaultInjector kNoFaults(0, 0.0);
  so.faults = &kNoFaults;
  serve::QueryService service(&db, so);
  {
    serve::Response cold = service.Run(query);
    if (!cold.ok()) {
      *detail = "cold run failed: " + cold.status.ToString();
      return Outcome::kFail;
    }
  }
  std::set<std::string> conditional;
  for (const sgf::BsgfQuery& q : query.subqueries()) {
    for (const sgf::Atom& a : q.conditional_atoms()) {
      conditional.insert(a.relation());
    }
  }
  std::vector<std::map<std::string, uint32_t>> batches;
  for (const auto& rel : base) batches.push_back({rel});
  batches.push_back(base);
  Xoshiro256 rng(SplitMix64::Mix(seed ^ 0xde17aULL));
  // Same value domain the generators draw from, so inserted facts join
  // against existing rows often enough to actually change outputs.
  const uint64_t domain = tuples > 0 ? tuples : 1;
  for (const std::map<std::string, uint32_t>& batch : batches) {
    std::string names;
    bool moved_conditional = false;
    for (const auto& [name, arity] : batch) {
      names += (names.empty() ? "" : ", ") + name;
      moved_conditional |= conditional.count(name) > 0;
      constexpr int kFactsPerBatch = 3;
      for (int f = 0; f < kFactsPerBatch; ++f) {
        Tuple t;
        for (uint32_t a = 0; a < arity; ++a) {
          t.PushBack(Value::Int(static_cast<int64_t>(rng.Uniform(domain))));
        }
        const Status st = service.AddFact(name, t);
        if (!st.ok()) {
          *detail = "AddFact(" + name + ") failed: " + st.ToString();
          return Outcome::kFail;
        }
      }
    }
    serve::Response resp = service.Run(query);
    if (!resp.ok()) {
      *detail = "post-mutation run (after " + names +
                " inserts) failed: " + resp.status.ToString();
      return Outcome::kFail;
    }
    if (resp.metrics.delta_applied) {
      ++report->delta_hits;
      if (moved_conditional) ++report->conditional_delta_hits;
    }
    if (resp.metrics.result_cache_hit) ++report->result_hits;
    // The service is quiescent between Run calls, so reading db here is
    // safe; NaiveEvalSgf recomputes the truth over the mutated state.
    Result<Database> expected = sgf::NaiveEvalSgf(query, db);
    if (!expected.ok()) {
      *detail = "naive reference on mutated db failed: " +
                expected.status().ToString();
      return Outcome::kFail;
    }
    std::string diff = DiffOutputs(*expected, resp.outputs, outputs);
    if (!diff.empty()) {
      *detail = "after inserts into " + names + ": " + diff;
      return Outcome::kFail;
    }
  }
  return Outcome::kOk;
}

// Dispatches a path by name — the minimizer's re-check hook. Paths are
// strategy names plus "serve-cache" / "serve-nocache" / "serve-result".
// ("serve-delta" mutation failures are recorded unminimized: the
// minimizer's re-checks don't replay the service-applied write batches.)
Outcome CheckPath(const std::string& path, const sgf::SgfQuery& query,
                  const Database& db, const Database& expected,
                  const std::vector<std::string>& outputs,
                  std::string* detail) {
  if (path == "serve-cache" || path == "serve-nocache" ||
      path == "serve-result") {
    return CheckServe(query, db, expected, outputs, path != "serve-nocache",
                      path == "serve-result", nullptr, nullptr, nullptr,
                      detail);
  }
  Result<plan::Strategy> strategy = plan::StrategyFromName(path);
  if (!strategy.ok()) {
    *detail = "unknown path " + path;
    return Outcome::kSkip;
  }
  return CheckStrategy(query, db, expected, outputs, *strategy, nullptr,
                       nullptr, nullptr, nullptr, detail);
}

// Whether `path` still diverges on (query_text, db(seed, tuples)).
// Conservative: anything that fails to parse or naive-evaluate counts as
// "no divergence", so the minimizer never shrinks past reproducibility.
bool Diverges(const std::string& query_text,
              const std::map<std::string, uint32_t>& base, DataRegime regime,
              uint64_t seed, size_t tuples, double selectivity,
              const std::string& path, std::string* detail) {
  Result<sgf::SgfQuery> query =
      sgf::ParseSgf(query_text, &Dictionary::Global());
  if (!query.ok()) return false;
  Database db = BuildDatabase(base, regime, seed, tuples, selectivity);
  Result<Database> expected = sgf::NaiveEvalSgf(*query, db);
  if (!expected.ok()) return false;
  return CheckPath(path, *query, db, *expected, OutputNames(*query),
                   detail) == Outcome::kFail;
}

std::string JoinStatements(const std::vector<std::string>& statements,
                           size_t count) {
  std::string text;
  for (size_t i = 0; i < count && i < statements.size(); ++i) {
    if (!text.empty()) text += "\n";
    text += statements[i];
  }
  return text;
}

// Shrinks a diverging case: shortest diverging statement prefix first
// (prefixes are valid SGF by construction, sgf/query_gen.h), then halve
// the database while the divergence persists. Re-checks run uncalibrated;
// a result divergence must not depend on estimates, so if shrinking loses
// the repro the original (seed, full query, full size) is kept.
SoakFailure Minimize(const sgf::GeneratedQuery& generated, DataRegime regime,
                     uint64_t seed, const SoakConfig& config,
                     const std::string& path, std::string detail) {
  SoakFailure failure;
  failure.seed = seed;
  failure.regime = regime;
  failure.path = path;
  failure.query_text = generated.Text();
  failure.tuples = config.tuples;
  failure.detail = std::move(detail);

  std::string shrunk_detail;
  size_t keep = generated.statements.size();
  for (size_t k = 1; k < generated.statements.size(); ++k) {
    if (Diverges(JoinStatements(generated.statements, k),
                 generated.base_relations, regime, seed, config.tuples,
                 config.selectivity, path, &shrunk_detail)) {
      keep = k;
      break;
    }
  }
  std::string text = JoinStatements(generated.statements, keep);
  size_t tuples = config.tuples;
  if (keep < generated.statements.size() ||
      Diverges(text, generated.base_relations, regime, seed, tuples,
               config.selectivity, path, &shrunk_detail)) {
    failure.query_text = text;
    if (!shrunk_detail.empty()) failure.detail = shrunk_detail;
    while (tuples / 2 >= 16 &&
           Diverges(text, generated.base_relations, regime, seed, tuples / 2,
                    config.selectivity, path, &shrunk_detail)) {
      tuples /= 2;
      failure.detail = shrunk_detail;
    }
    failure.tuples = tuples;
  }
  return failure;
}

}  // namespace

const char* DataRegimeName(DataRegime regime) {
  switch (regime) {
    case DataRegime::kUniform:
      return "uniform";
    case DataRegime::kZipf:
      return "zipf";
    case DataRegime::kZipfHeavy:
      return "zipf-heavy";
    case DataRegime::kCorrelated:
      return "correlated";
    case DataRegime::kHotCold:
      return "hot-cold";
  }
  return "?";
}

SoakConfig SoakConfig::FromEnv() {
  const common::RuntimeConfig& cfg = common::RuntimeConfig::Get();
  SoakConfig config;
  config.seed = cfg.soak_seed.value_or(config.seed);
  config.iterations = static_cast<size_t>(
      cfg.soak_iters.value_or(config.iterations));
  config.tuples =
      static_cast<size_t>(cfg.soak_tuples.value_or(config.tuples));
  config.mutate = cfg.soak_mutate.value_or(config.mutate ? 1 : 0) != 0;
  // Chaos knobs share the injector's own env parsing (site-name lists,
  // rate clamping) so a chaos soak is configured exactly like any other
  // fault-injected run.
  const FaultInjector env_faults = FaultInjector::FromEnv();
  config.fault_rate = env_faults.rate();
  config.fault_seed = env_faults.seed();
  config.fault_sites = env_faults.site_mask();
  return config;
}

std::string SoakFailure::Repro() const {
  std::string s;
  s += "soak divergence: path=" + path + " regime=" +
       std::string(DataRegimeName(regime)) + "\n";
  s += "  detail: " + detail + "\n";
  s += "  repro: GUMBO_SOAK_SEED=" + std::to_string(seed) +
       " GUMBO_SOAK_ITERS=1 GUMBO_SOAK_TUPLES=" + std::to_string(tuples) +
       (mutate ? " GUMBO_SOAK_MUTATE=1" : "") + " bench_soak\n";
  s += "  minimized query:\n" + query_text + "\n";
  return s;
}

std::string SoakReport::Summary() const {
  std::string s = "soak: " + std::to_string(iterations) + " iterations, " +
                  std::to_string(checks) + " checks, " +
                  std::to_string(skipped) + " skipped, " +
                  std::to_string(failures.size()) + " failures";
  if (faults_injected > 0 || clean_errors > 0) {
    s += "\nchaos: " + std::to_string(faults_injected) +
         " faults injected (";
    for (size_t i = 0; i < kNumFaultSites; ++i) {
      if (i > 0) s += ", ";
      s += std::string(FaultSiteName(static_cast<FaultSite>(i))) + " " +
           std::to_string(faults_per_site[i]);
    }
    s += "), " + std::to_string(task_retries) + " task retries, " +
         std::to_string(clean_errors) + " clean typed errors";
  }
  if (mutation_checks > 0) {
    s += "\nmutation: " + std::to_string(mutation_checks) +
         " post-write identity checks, " + std::to_string(delta_hits) +
         " delta-maintained (" + std::to_string(conditional_delta_hits) +
         " after conditional inserts), " + std::to_string(result_hits) +
         " result-cache hits";
  }
  for (const SoakFailure& f : failures) {
    s += "\n" + f.Repro();
  }
  return s;
}

Database BuildDatabase(const std::map<std::string, uint32_t>& base,
                       DataRegime regime, uint64_t seed, size_t tuples,
                       double selectivity) {
  data::GeneratorConfig g;
  g.seed = seed;
  g.tuples = tuples;
  g.representation_scale = 1.0;
  g.selectivity = selectivity;
  data::Generator gen(g);
  Database db;
  // Alternate hot/cold deterministically by name in the kHotCold regime
  // (the conditional pool is S/T/U/V -> hot, cold, hot, cold).
  for (const auto& [name, arity] : base) {
    const bool guard = arity >= 3;
    switch (regime) {
      case DataRegime::kUniform:
        db.Put(guard ? gen.Guard(name, arity) : gen.Conditional(name, arity));
        break;
      case DataRegime::kZipf:
        db.Put(guard ? gen.ZipfGuard(name, arity, 0.8)
                     : gen.Conditional(name, arity));
        break;
      case DataRegime::kZipfHeavy:
        db.Put(guard ? gen.ZipfGuard(name, arity, 1.2)
                     : gen.Conditional(name, arity));
        break;
      case DataRegime::kCorrelated:
        db.Put(guard ? gen.CorrelatedGuard(name, arity, 0.6, 0.8)
                     : gen.Conditional(name, arity));
        break;
      case DataRegime::kHotCold: {
        const bool hot = !name.empty() && ((name[0] - 'A') % 2 == 0);
        db.Put(guard ? gen.ZipfGuard(name, arity, 1.0)
                     : (hot ? gen.HotConditional(name, arity)
                            : gen.ColdConditional(name, arity)));
        break;
      }
    }
  }
  return db;
}

SoakReport RunSoak(const SoakConfig& config) {
  SoakReport report;
  cost::CalibrationStore store;
  for (size_t i = 0; i < config.iterations; ++i) {
    const uint64_t seed = config.seed + i;
    // Fresh injector per iteration with a seed derived from both base
    // seeds: fault sets vary across iterations but stay reproducible
    // from (GUMBO_SOAK_SEED, GUMBO_FAULT_SEED), preserving the
    // "iteration i == one-iteration soak with seed S + i" contract.
    const FaultInjector faults(SplitMix64::Mix(config.fault_seed ^ seed),
                               config.fault_rate, config.fault_sites);
    const FaultInjector* inject = config.chaos() ? &faults : nullptr;
    // A chaos failure is recorded unminimized: the minimizer's re-checks
    // run fault-free, so shrinking would lose the repro. The detail
    // carries the injector configuration instead.
    const auto chaos_failure = [&](const std::string& path,
                                   const sgf::GeneratedQuery& generated,
                                   DataRegime regime, std::string detail) {
      SoakFailure f;
      f.seed = seed;
      f.regime = regime;
      f.path = path;
      f.query_text = generated.Text();
      f.tuples = config.tuples;
      f.detail = std::move(detail) + " [chaos: GUMBO_FAULT_SEED=" +
                 std::to_string(config.fault_seed) +
                 " GUMBO_FAULT_RATE=" + std::to_string(config.fault_rate) +
                 "]";
      return f;
    };
    Xoshiro256 rng(SplitMix64::Mix(seed ^ 0x50a7ULL));
    const DataRegime regime =
        kRegimes[rng.Uniform(sizeof(kRegimes) / sizeof(kRegimes[0]))];
    sgf::QueryGenConfig qc;
    qc.shape = kShapes[rng.Uniform(sizeof(kShapes) / sizeof(kShapes[0]))];
    const sgf::GeneratedQuery generated =
        sgf::QueryGenerator(qc).Generate(seed);
    Database db = BuildDatabase(generated.base_relations, regime, seed,
                                config.tuples, config.selectivity);
    Result<Database> expected = sgf::NaiveEvalSgf(generated.query, db);
    ++report.iterations;
    if (!expected.ok()) {
      SoakFailure f;
      f.seed = seed;
      f.regime = regime;
      f.path = "naive-reference";
      f.query_text = generated.Text();
      f.tuples = config.tuples;
      f.detail = expected.status().ToString();
      report.failures.push_back(std::move(f));
      if (report.failures.size() >= config.max_failures) break;
      continue;
    }
    const std::vector<std::string> outputs = OutputNames(generated.query);

    std::string detail;
    for (plan::Strategy strategy : kStrategies) {
      // The shared store both drives estimates (all strategies) and is
      // fed back from GREEDY executions — calibration must never change
      // a result byte, and the soak holds it to that.
      const Outcome outcome = CheckStrategy(
          generated.query, db, *expected, outputs, strategy,
          config.calibrate ? &store : nullptr,
          (config.calibrate && strategy == plan::Strategy::kGreedy) ? &store
                                                                    : nullptr,
          inject, &report.task_retries, &detail);
      if (outcome == Outcome::kSkip) {
        ++report.skipped;
        continue;
      }
      if (outcome == Outcome::kCleanError) {
        ++report.clean_errors;
        continue;
      }
      ++report.checks;
      if (outcome == Outcome::kFail) {
        report.failures.push_back(
            inject != nullptr
                ? chaos_failure(plan::StrategyName(strategy), generated,
                                regime, detail)
                : Minimize(generated, regime, seed, config,
                           plan::StrategyName(strategy), detail));
      }
    }
    if (config.serve_paths) {
      struct ServePath {
        const char* name;
        bool plan_cache;
        bool result_cache;
      };
      constexpr ServePath kServePaths[] = {
          {"serve-cache", true, false},  // cached-plan re-execution
          {"serve-nocache", false, false},
          {"serve-result", true, true},  // pure result-cache hit
      };
      for (const ServePath& sp : kServePaths) {
        const Outcome outcome = CheckServe(
            generated.query, db, *expected, outputs, sp.plan_cache,
            sp.result_cache, config.calibrate ? &store : nullptr, inject,
            &report.task_retries, &detail);
        if (outcome == Outcome::kCleanError) {
          ++report.clean_errors;
          continue;
        }
        ++report.checks;
        if (outcome == Outcome::kFail) {
          report.failures.push_back(
              inject != nullptr
                  ? chaos_failure(sp.name, generated, regime, detail)
                  : Minimize(generated, regime, seed, config, sp.name,
                             detail));
        }
      }
    }
    if (config.mutate) {
      const Outcome outcome = CheckMutation(
          generated.query, db, generated.base_relations, outputs, seed,
          config.tuples, config.calibrate ? &store : nullptr, &report,
          &detail);
      ++report.mutation_checks;
      ++report.checks;
      if (outcome == Outcome::kFail) {
        // Recorded unminimized: the shrink re-checks don't replay the
        // seeded write batches, so shrinking would lose the repro.
        SoakFailure f;
        f.seed = seed;
        f.regime = regime;
        f.path = "serve-delta";
        f.mutate = true;
        f.query_text = generated.Text();
        f.tuples = config.tuples;
        f.detail = detail;
        report.failures.push_back(std::move(f));
      }
    }
    report.faults_injected += faults.injected();
    for (size_t s = 0; s < kNumFaultSites; ++s) {
      report.faults_per_site[s] += faults.injected_at(static_cast<FaultSite>(s));
    }
    if (report.failures.size() >= config.max_failures) break;
  }
  return report;
}

}  // namespace gumbo::soak
