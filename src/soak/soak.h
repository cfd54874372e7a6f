// Differential soak harness (DESIGN.md §10): random SGF queries over
// random skewed/correlated databases, evaluated through every planner
// strategy and the serve::QueryService paths (plan cache on/off, result
// cache, and — in mutation mode — delta maintenance under AddFact
// writes), with every result checked byte-identical — flat words AND row
// fingerprints — against the naive reference evaluator.
//
// Everything is deterministic in one seed: iteration i of a soak with
// base seed S behaves exactly like a one-iteration soak with seed S + i,
// so a failure is reproducible from the printed seed alone. On
// divergence the harness additionally *minimizes* the failing case —
// dropping trailing subquery statements and halving the database — and
// reports the smallest (query, database) pair that still diverges.
#ifndef GUMBO_SOAK_SOAK_H_
#define GUMBO_SOAK_SOAK_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/relation.h"
#include "sgf/query_gen.h"

namespace gumbo::soak {

/// The database regimes the soak cycles through — the generator
/// configurations the calibrated cost model has to discriminate
/// (data/generator.h).
enum class DataRegime {
  kUniform,     ///< Guard + Conditional: the paper's uniform data
  kZipf,        ///< ZipfGuard(theta=0.8) + uniform conditionals
  kZipfHeavy,   ///< ZipfGuard(theta=1.2): heavy-skew regime
  kCorrelated,  ///< CorrelatedGuard(corr=0.6, theta=0.8)
  kHotCold,     ///< ZipfGuard(1.0) + alternating Hot/ColdConditional
};

const char* DataRegimeName(DataRegime regime);

struct SoakConfig {
  /// Base seed; iteration i uses seed + i. Env: GUMBO_SOAK_SEED.
  uint64_t seed = 7;
  /// Random (query, database) pairs to run. Env: GUMBO_SOAK_ITERS.
  size_t iterations = 200;
  /// Materialized tuples per generated relation. Env: GUMBO_SOAK_TUPLES.
  size_t tuples = 240;
  /// Conditional-relation selectivity (data/generator.h).
  double selectivity = 0.4;
  /// Also run each query through serve::QueryService: plan-cache-on
  /// submitted twice (second hit exercises the cached-plan path),
  /// cache-off, and result-cache-on submitted twice (second hit must be a
  /// pure result-cache hit, byte-identical with no execution).
  bool serve_paths = true;
  /// Mutation mode (DESIGN.md §12): per iteration, run each query through
  /// one service over a *mutable* copy of the database, interleave seeded
  /// AddFact batches through the service's write API (one per base
  /// relation, then one into all of them), and require every
  /// post-mutation response — delta-maintained, result-hit, or fallback
  /// re-execution — byte-identical to a from-scratch naive evaluation of
  /// the mutated database. Env: GUMBO_SOAK_MUTATE (non-zero enables).
  bool mutate = false;
  /// Thread a shared CalibrationStore through the whole soak: planners
  /// estimate through it and executions feed it, so the soak also pins
  /// the invariant that calibration changes estimates, never results.
  bool calibrate = true;
  /// Stop after this many (minimized) failures.
  size_t max_failures = 1;
  /// Chaos mode (DESIGN.md §11): per-(site, unit, attempt) fault
  /// probability injected into every execution path. 0 = off. Under
  /// chaos the contract sharpens: an OK result must STILL be
  /// byte-identical to the fault-free reference (task retry is
  /// invisible), and a failure must be one of the typed clean errors
  /// (Unavailable, DeadlineExceeded, Cancelled, ResourceExhausted) —
  /// a wrong byte or an Internal error is a soak failure either way.
  /// Env: GUMBO_FAULT_RATE.
  double fault_rate = 0.0;
  /// Base fault seed; iteration i derives its injector from this and
  /// the iteration seed, so chaos runs stay reproducible from the two
  /// printed seeds. Env: GUMBO_FAULT_SEED.
  uint64_t fault_seed = 42;
  /// Fault-site filter (bit i = FaultSite i). Env: GUMBO_FAULT_SITES.
  uint32_t fault_sites = ~0u;

  bool chaos() const { return fault_rate > 0.0; }

  /// Reads GUMBO_SOAK_{SEED,ITERS,TUPLES} and GUMBO_FAULT_{RATE,SEED,
  /// SITES} over the defaults above.
  static SoakConfig FromEnv();
};

/// One minimized divergence: everything needed to reproduce it.
struct SoakFailure {
  uint64_t seed = 0;       ///< exact iteration seed (generators + query)
  DataRegime regime = DataRegime::kUniform;
  /// Strategy name, "serve-cache", "serve-nocache", "serve-result", or
  /// "serve-delta" (mutation mode).
  std::string path;
  bool mutate = false;     ///< repro needs GUMBO_SOAK_MUTATE=1
  std::string query_text;  ///< minimized query
  size_t tuples = 0;       ///< minimized database size
  std::string detail;      ///< what differed
  /// Multi-line human-readable reproduction recipe.
  std::string Repro() const;
};

struct SoakReport {
  size_t iterations = 0;  ///< (query, database) pairs actually run
  size_t checks = 0;      ///< individual path-vs-naive comparisons
  size_t skipped = 0;     ///< inapplicable paths (e.g. 1-ROUND refusals)
  // ---- Chaos-mode accounting (all zero when fault_rate == 0) ----
  /// Paths that failed with a typed clean error (retry budget exhausted
  /// to Unavailable, etc.) — acceptable chaos outcomes, not failures.
  size_t clean_errors = 0;
  uint64_t faults_injected = 0;  ///< total injections across the soak
  uint64_t task_retries = 0;     ///< attempts re-run across the soak
  std::array<uint64_t, kNumFaultSites> faults_per_site{};
  // ---- Mutation-mode accounting (all zero when mutate == false) ----
  size_t mutation_checks = 0;  ///< post-mutation byte-identity checks
  uint64_t delta_hits = 0;     ///< responses answered by delta maintenance
  /// delta_hits after a batch that inserted into a relation the query
  /// reads in conditional position.
  uint64_t conditional_delta_hits = 0;
  uint64_t result_hits = 0;    ///< responses served straight from the cache
  std::vector<SoakFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string Summary() const;
};

/// Runs the soak. Deterministic in `config`.
SoakReport RunSoak(const SoakConfig& config);

/// Builds the iteration database for `base` relations (name -> arity)
/// under `regime`. Relations of arity >= 3 are guards, the rest
/// conditionals. Exposed for tests and the failure minimizer.
Database BuildDatabase(const std::map<std::string, uint32_t>& base,
                       DataRegime regime, uint64_t seed, size_t tuples,
                       double selectivity);

}  // namespace gumbo::soak

#endif  // GUMBO_SOAK_SOAK_H_
