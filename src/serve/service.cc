#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <tuple>

#include "common/config.h"
#include "serve/delta.h"
#include "serve/signature.h"

namespace gumbo::serve {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Queries of at most this many atoms (guard + conditionals, summed over
// subqueries) that the caller left at kNormal are admitted at kHigh, so
// cheap interactive queries are not stuck behind analytical monsters.
constexpr size_t kSmallQueryAtoms = 4;

// Consecutive pops that may pass over lower-priority work before the
// earliest-arrived such task is taken (QueryService::PopNext).
constexpr size_t kMaxPassedOver = 3;

size_t AtomCount(const sgf::SgfQuery& query) {
  size_t atoms = 0;
  for (const sgf::BsgfQuery& q : query.subqueries()) {
    atoms += 1 + q.num_conditional_atoms();  // guard + conditionals
  }
  return atoms;
}

// Stable work-unit id for planner/cache fault sites: FNV-1a over the
// plan-cache key, so a chaos failure reproduces from the seed and the
// query text alone (std::hash is not pinned across standard libraries).
uint64_t KeyUnit(const std::string& key) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// A service-level calibration store doubles as the planner's unless the
// caller wired a different one into planner.calibration explicitly.
ServiceOptions InstallCalibration(ServiceOptions options) {
  if (options.calibration != nullptr &&
      options.planner.calibration == nullptr) {
    options.planner.calibration = options.calibration;
  }
  return options;
}

// Environment escape hatch for the delta layer (DESIGN.md §12):
// GUMBO_DISABLE_DELTA=1 forces the result cache (and with it all delta
// maintenance) off; the query cache then holds plans only.
ServiceOptions ApplyDeltaEnv(ServiceOptions options) {
  if (common::RuntimeConfig::Get().disable_delta.value_or(false)) {
    options.result_cache = false;
  }
  return options;
}

}  // namespace

QueryService::QueryService(const Database* db, ServiceOptions options,
                           Scheduler* scheduler)
    : db_(db),
      options_(ApplyDeltaEnv(InstallCalibration(std::move(options)))),
      env_faults_(FaultInjector::FromEnv()),
      faults_(options_.faults != nullptr ? options_.faults : &env_faults_),
      engine_(options_.cluster, scheduler),
      planner_(options_.cluster, options_.planner),
      cache_(options_.plan_cache || options_.result_cache
                 ? options_.cache_capacity
                 : 0) {
  const size_t n = options_.max_inflight > 0 ? options_.max_inflight : 1;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::QueryService(Database* db, ServiceOptions options,
                           Scheduler* scheduler)
    : QueryService(static_cast<const Database*>(db), std::move(options),
                   scheduler) {
  mutable_db_ = db;
}

Status QueryService::AddFact(const std::string& name, const Tuple& t) {
  if (mutable_db_ == nullptr) {
    return Status::FailedPrecondition(
        "AddFact requires a service constructed over a mutable database");
  }
  // Write half of the database lock: waits for in-flight executions to
  // finish their read hold, so no query ever observes a half-applied
  // write (and no arena reallocates under a running scan).
  std::unique_lock<std::shared_mutex> lock(db_mu_);
  return mutable_db_->AddFact(name, t);
}

QueryService::~QueryService() {
  Shutdown();
  for (std::thread& w : workers_) w.join();
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
}

std::future<Response> QueryService::Submit(sgf::SgfQuery query,
                                           QueryOptions qopts) {
  Task task;
  task.query = std::move(query);
  task.submitted = Clock::now();
  task.priority = qopts.priority;
  if (task.priority == SchedPriority::kNormal &&
      AtomCount(task.query) <= kSmallQueryAtoms) {
    task.priority = SchedPriority::kHigh;
  }
  std::future<Response> future = task.promise.get_future();

  // Deadline composition: the per-query budget and the service default
  // both arm the same token; SetDeadline keeps the earliest, so the
  // stricter one wins. A caller-supplied token is used directly (its
  // Cancel() reaches queued and in-flight work alike); otherwise a token
  // is created only when some deadline exists.
  const double deadline_ms =
      qopts.deadline_ms > 0.0 && options_.default_deadline_ms > 0.0
          ? std::min(qopts.deadline_ms, options_.default_deadline_ms)
          : (qopts.deadline_ms > 0.0 ? qopts.deadline_ms
                                     : options_.default_deadline_ms);
  if (qopts.cancel != nullptr) {
    task.token = qopts.cancel;
  } else if (deadline_ms > 0.0) {
    task.owned = std::make_shared<CancelToken>();
    task.token = task.owned.get();
  }
  if (task.token != nullptr && deadline_ms > 0.0) {
    task.token->SetDeadlineAfterMs(deadline_ms);
    task.deadline = task.submitted +
                    std::chrono::microseconds(
                        static_cast<int64_t>(deadline_ms * 1e3));
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    // Saturation shedding (DESIGN.md §11): at the watermark, background
    // (kLow) queries and queries already past their deadline are turned
    // away immediately — a typed synchronous rejection instead of
    // occupying backlog a saturated service will not reach in time.
    const size_t watermark = options_.shed_watermark > 0
                                 ? options_.shed_watermark
                                 : options_.max_inflight + options_.max_queued;
    const size_t load =
        backlog_.size() + static_cast<size_t>(inflight_.load());
    if (!stopping_ && load >= watermark &&
        (qopts.priority == SchedPriority::kLow ||
         (task.deadline != Clock::time_point::max() &&
          Clock::now() >= task.deadline))) {
      ++shed_;
      Response resp;
      resp.status = Status::ResourceExhausted(
          "query shed: service saturated (" + std::to_string(load) +
          " queued+inflight >= watermark " + std::to_string(watermark) + ")");
      task.promise.set_value(std::move(resp));
      return future;
    }
    cv_space_.wait(lock, [&] {
      return stopping_ || backlog_.size() < options_.max_queued;
    });
    if (stopping_) {
      ++rejected_;
      Response resp;
      resp.status = Status::FailedPrecondition("QueryService is shut down");
      task.promise.set_value(std::move(resp));
      return future;
    }
    ++submitted_;
    backlog_.push_back(std::move(task));
  }
  cv_work_.notify_one();
  return future;
}

Response QueryService::Run(sgf::SgfQuery query, QueryOptions qopts) {
  return Submit(std::move(query), qopts).get();
}

QueryService::Task QueryService::PopNext() {
  // Linear scans of the arrival-ordered backlog: it is bounded
  // (max_queued) and dispatch is rare next to morsel work. min_element
  // keeps the first of equal elements, so ties resolve to arrival order;
  // deadline-free tasks sort last in their class (time_point::max()), so
  // a deadline-free single-class workload is plain FIFO.
  auto pick = std::min_element(
      backlog_.begin(), backlog_.end(), [](const Task& a, const Task& b) {
        return std::tie(a.priority, a.deadline) <
               std::tie(b.priority, b.deadline);
      });
  const auto below =
      std::find_if(backlog_.begin(), backlog_.end(), [&](const Task& t) {
        return t.priority > pick->priority;
      });
  if (below == backlog_.end()) {
    passed_over_ = 0;
  } else if (passed_over_ >= kMaxPassedOver) {
    // Starvation bound: lower-priority work waits at most kMaxPassedOver
    // dispatches of higher-priority work at a time.
    pick = below;
    passed_over_ = 0;
  } else {
    ++passed_over_;
  }
  Task task = std::move(*pick);
  backlog_.erase(pick);
  return task;
}

void QueryService::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stopping_ || !backlog_.empty(); });
      if (backlog_.empty()) return;  // stopping, and the backlog drained
      task = PopNext();
    }
    cv_space_.notify_one();
    Execute(std::move(task));
  }
}

Result<plan::PlanRef> QueryService::PlanSingleFlight(
    const sgf::SgfQuery& query, const std::string& key,
    const std::vector<std::string>& names,
    const std::vector<uint64_t>& epochs, bool use_cache, bool* coalesced) {
  *coalesced = false;

  // Single-flight: the first miss for a key becomes the leader and plans;
  // concurrent misses for the same key wait for the leader's result
  // instead of stampeding the planner with redundant sampling runs.
  // Independent of the cache switch: with the cache off nothing is
  // stored, but in-flight identical queries still share one planning run
  // — a lowered plan is immutable and reusable, so sharing it changes no
  // byte of any response (see executor.h).
  std::promise<Result<plan::PlanRef>> promise;
  std::shared_future<Result<plan::PlanRef>> shared;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    auto it = planning_.find(key);
    if (it != planning_.end()) {
      shared = it->second;
    } else {
      // No planning in flight — but a leader that finished between our
      // caller's cache miss and this point has already published its
      // plan; re-check the cache before redundantly re-planning. Finding
      // it counts a hit on top of this query's miss. (QueryCache never
      // takes plan_mu_, so the nested lock is safe.)
      if (use_cache) {
        std::shared_ptr<const QueryCache::Entry> entry = cache_.Lookup(key);
        if (entry != nullptr && entry->epochs == epochs) {
          cache_.NoteHit();
          return entry->plan;
        }
      }
      leader = true;
      shared = promise.get_future().share();
      planning_.emplace(key, shared);
    }
  }
  if (!leader) {
    *coalesced = true;
    return shared.get();
  }

  Result<plan::PlanRef> outcome = [&]() -> Result<plan::PlanRef> {
    // Planner fault site (DESIGN.md §11): an injected fault abandons the
    // finished planning attempt and re-plans from scratch. Planning is
    // idempotent (sampling is seeded), so a retried attempt lowers the
    // same plan; followers coalesced on this key only ever see the final
    // outcome.
    const uint64_t unit = KeyUnit(key);
    const uint32_t max_retries = engine_.sched_options().max_task_retries;
    for (uint32_t attempt = 0;; ++attempt) {
      const Clock::time_point attempt_start = Clock::now();
      Result<plan::PlanRef> attempt_outcome =
          [&]() -> Result<plan::PlanRef> {
        GUMBO_ASSIGN_OR_RETURN(plan::QueryPlan planned,
                               planner_.Plan(query, *db_));
        return std::make_shared<const plan::QueryPlan>(std::move(planned));
      }();
      if (!faults_->active() ||
          !faults_->ShouldFail(FaultSite::kPlanner, unit, attempt)) {
        return attempt_outcome;
      }
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      retry_us_.fetch_add(
          static_cast<uint64_t>(MsSince(attempt_start) * 1e3),
          std::memory_order_relaxed);
      if (attempt >= max_retries) {
        return FaultInjector::InjectedFault(FaultSite::kPlanner, unit,
                                            attempt);
      }
      task_retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }();
  // Publish a plan-only entry BEFORE leaving the registry: combined with
  // the registry-miss cache re-check above, a concurrent miss always sees
  // either the registry entry or the cached plan, never a planning gap.
  if (outcome.ok()) {
    plans_built_.fetch_add(1, std::memory_order_relaxed);
    if (use_cache) cache_.Insert(key, {names, epochs, *outcome, nullptr});
  }
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    planning_.erase(key);
  }
  promise.set_value(outcome);
  return outcome;
}

plan::ExecutionContext QueryService::ContextFor(
    const Task& task, SchedGroupMetrics* metrics) const {
  plan::ExecutionContext ctx;
  ctx.sched.priority = task.priority;
  ctx.sched.metrics = metrics;
  ctx.sched.cancel = task.token;
  ctx.sched.faults = faults_->active() ? faults_ : nullptr;
  return ctx;
}

bool QueryService::LookupCache(const Task& task, const std::string& key,
                               const std::vector<std::string>& names,
                               const std::vector<uint64_t>& epochs,
                               Response* resp, plan::PlanRef* plan) {
  std::shared_ptr<const QueryCache::Entry> entry = cache_.Lookup(key);
  if (entry == nullptr) return false;
  if (entry->names != names) {
    // Signature collision safeguard: same key but different epoch-name
    // universe means the entry cannot be validated — drop it.
    cache_.Invalidate(key);
    return false;
  }

  if (entry->epochs == epochs) {
    if (entry->outputs == nullptr) {
      // Plan hit: nothing moved and no outputs are stored — skip planning
      // and execute the stored plan.
      *plan = entry->plan;
      return false;
    }
    // Pure hit: nothing moved — the stored canonical outputs ARE the
    // answer, byte for byte. No planning, no execution.
    result_hits_.fetch_add(1, std::memory_order_relaxed);
    resp->outputs = *entry->outputs;
    resp->metrics.result_cache_hit = true;
    return true;
  }

  if (entry->outputs == nullptr) {
    cache_.Invalidate(key);  // a stale plan: re-plan against the new data
    return false;
  }
  DeltaPlan dp = PlanDelta(task.query, *db_, names, entry->epochs, epochs);
  if (!dp.eligible) {
    // Non-insert movement, an aged-out watermark, an insert under NOT, or
    // a slice the pass cannot take: the fallback table says invalidate
    // and recompute.
    cache_.Invalidate(key);
    return false;
  }
  for (const std::string& out : entry->plan->outputs) {
    if (dp.dirty.count(out) > 0 && !entry->outputs->Contains(out)) {
      cache_.Invalidate(key);  // defensive: nothing to union into
      return false;
    }
  }

  // ---- Delta maintenance pass (DESIGN.md §12) ----
  // Re-run the cached plan over the delta view, where each base guard is
  // shadowed by its slice: dirty subqueries produce every output row the
  // cached value lacks (and possibly some it has).
  SchedGroupMetrics sched_metrics;
  const Clock::time_point delta_start = Clock::now();
  Database delta_out;
  Result<plan::ExecutionResult> executed = plan::ExecutePlanOnSnapshot(
      *entry->plan, &engine_, dp.view, &delta_out,
      ContextFor(task, &sched_metrics));
  const double delta_wall_ms = MsSince(delta_start);
  if (!executed.ok()) {
    // A failed pass (cancel, deadline, injected fault past retries) fails
    // the query; the cached entry is untouched and still valid.
    resp->status = executed.status();
    return true;
  }

  // Union + canonicalize: a dirty output is cached ∪ pass output,
  // re-deduped — SortAndDedupe restores exactly the canonical order a
  // from-scratch run emits, so the bytes (words AND fingerprints) are
  // identical. An empty pass output (its guard slice was empty) leaves
  // the cached value as it is. A clean output was recomputed in full by
  // the pass over whole inputs, so it is already canonical and complete.
  for (const std::string& out : entry->plan->outputs) {
    Result<Relation*> got = delta_out.GetMutable(out);
    if (!got.ok()) {
      resp->status = got.status();
      return true;
    }
    if (dp.dirty.count(out) > 0) {
      Relation merged = **entry->outputs->Get(out);
      if (!(*got)->empty()) {
        merged.AppendFrom(**got);
        merged.SortAndDedupe();
      }
      resp->outputs.Put(std::move(merged));
    } else {
      resp->outputs.Put(std::move(**got));
    }
  }

  // Refresh the entry in place: replacement is atomic, concurrent readers
  // keep the snapshot they already hold.
  cache_.Insert(key, {names, epochs, entry->plan,
                      std::make_shared<const Database>(resp->outputs)});
  delta_hits_.fetch_add(1, std::memory_order_relaxed);
  delta_rows_.fetch_add(dp.delta_rows, std::memory_order_relaxed);
  delta_us_.fetch_add(static_cast<uint64_t>(delta_wall_ms * 1e3),
                      std::memory_order_relaxed);

  const double sched_wait_ms =
      static_cast<double>(
          sched_metrics.stall_us.load(std::memory_order_relaxed)) /
      1e3;
  exec_us_.fetch_add(
      static_cast<uint64_t>(std::max(0.0, delta_wall_ms - sched_wait_ms) *
                            1e3),
      std::memory_order_relaxed);
  sched_wait_us_.fetch_add(static_cast<uint64_t>(sched_wait_ms * 1e3),
                           std::memory_order_relaxed);
  resp->metrics = executed->metrics;
  resp->stats = std::move(executed->stats);
  resp->metrics.sched_wait_ms = sched_wait_ms;
  resp->metrics.sched_morsels =
      sched_metrics.morsels.load(std::memory_order_relaxed);
  resp->metrics.delta_applied = true;
  resp->metrics.delta_rows = dp.delta_rows;
  // No calibration feedback from delta passes: the cached plan's
  // estimates describe full-size inputs, the observed stats a delta-sized
  // run — pairing them would poison the store (DESIGN.md §10).
  return true;
}

void QueryService::Execute(Task task) {
  const int cur = inflight_.fetch_add(1) + 1;
  int seen = peak_inflight_.load();
  while (cur > seen && !peak_inflight_.compare_exchange_weak(seen, cur)) {
  }

  Response resp;
  const double queue_ms = MsSince(task.submitted);

  // Cancellation gate: a query cancelled (or past its deadline) while it
  // sat in the backlog is answered here without planning or executing —
  // the prompt-drop path for queued work. One poll covers explicit
  // Cancel(), deadlines, and fault escalation alike.
  resp.status = CheckCancel(task.token);

  const std::string key = PlanCacheKey(task.query, options_.planner);

  // Database read hold (DESIGN.md §12): epoch capture, cache routing,
  // planning, execution, and the cache refresh all see one consistent
  // base — AddFact writers wait for this hold to drain.
  std::shared_lock<std::shared_mutex> db_lock(db_mu_);
  const std::vector<std::string> names = EpochNamesOf(task.query);
  const std::vector<uint64_t> epochs = EpochsOf(names, *db_);

  // Cache fault site (DESIGN.md §11): an injected fault degrades the
  // lookup to a miss — the query re-plans and re-executes, staying
  // correct; only the cached latency win is lost. The cache entries
  // themselves are untouched.
  const bool caching = options_.plan_cache || options_.result_cache;
  const bool cache_faulted =
      caching && faults_->active() &&
      faults_->ShouldFail(FaultSite::kCache, KeyUnit(key), /*attempt=*/0);
  if (cache_faulted) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- One cache lookup: pure hit, delta pass, plan hit, or a miss ----
  bool result_done = false;
  plan::PlanRef plan;
  if (resp.ok() && caching && !cache_faulted) {
    result_done = LookupCache(task, key, names, epochs, &resp, &plan);
  }

  // ---- Plan: single-flight on a miss ----
  // The key is computed even with the cache off: single-flight planning
  // coalesces identical in-flight queries either way.
  const bool cache_hit = plan != nullptr;
  double plan_ms = 0.0;
  if (resp.ok() && !result_done) {
    const bool use_cache = options_.plan_cache && !cache_faulted;
    if (cache_hit) {
      cache_.NoteHit();
    } else {
      if (use_cache) cache_.NoteMiss();
      const Clock::time_point plan_start = Clock::now();
      bool coalesced = false;
      Result<plan::PlanRef> planned = PlanSingleFlight(
          task.query, key, names, epochs, use_cache, &coalesced);
      plan_ms = MsSince(plan_start);
      if (coalesced) plan_coalesced_.fetch_add(1, std::memory_order_relaxed);
      if (!planned.ok()) {
        resp.status = planned.status();
      } else {
        plan = *planned;
      }
    }
    // A deadline that expired during planning stops the query before any
    // execution work is scheduled.
    if (resp.ok()) resp.status = CheckCancel(task.token);
  }

  // ---- Execute against the shared snapshot via a private overlay ----
  // Admission class -> morsel priority (DESIGN.md §9): kHigh queries'
  // morsels overtake normal-priority backlogs inside the shared
  // scheduler, not just the admission queue.
  double exec_ms = 0.0;
  double sched_wait_ms = 0.0;
  if (resp.ok() && !result_done) {
    SchedGroupMetrics sched_metrics;
    const Clock::time_point exec_start = Clock::now();
    Result<plan::ExecutionResult> executed = plan::ExecutePlanOnSnapshot(
        *plan, &engine_, *db_, &resp.outputs,
        ContextFor(task, &sched_metrics));
    const double exec_wall_ms = MsSince(exec_start);
    // Attribution fix: time our morsels sat runnable-but-unserved is the
    // scheduler's doing, not the query's — report it as sched_wait so an
    // inflated p95 is diagnosable (DESIGN.md §9).
    sched_wait_ms =
        static_cast<double>(
            sched_metrics.stall_us.load(std::memory_order_relaxed)) /
        1e3;
    exec_ms = std::max(0.0, exec_wall_ms - sched_wait_ms);
    if (!executed.ok()) {
      resp.status = executed.status();
    } else {
      resp.metrics = executed->metrics;
      resp.stats = std::move(executed->stats);
      resp.metrics.sched_wait_ms = sched_wait_ms;
      resp.metrics.sched_morsels =
          sched_metrics.morsels.load(std::memory_order_relaxed);
      // Close the calibration loop (DESIGN.md §10): observed stats of this
      // execution refine the shared store so later plannings estimate
      // better. Thread-safe; results are unaffected (estimates only).
      plan::CalibrateFromExecution(*plan, resp.stats, options_.calibration);
      // Materialize into the cache so the next lookup is a pure hit —
      // or, after insert-only writes, a delta pass (DESIGN.md §12).
      if (options_.result_cache) {
        cache_.Insert(key, {names, epochs, plan,
                            std::make_shared<const Database>(resp.outputs)});
      }
    }
  }
  db_lock.unlock();
  if (!result_done) {
    resp.metrics.plan_cache_hit = cache_hit;
    resp.metrics.plan_ms = plan_ms;
  }
  resp.metrics.queue_ms = queue_ms;
  resp.wall_ms = MsSince(task.submitted);

  // ---- Aggregate metrics, then fulfill the caller's future ----
  total_latency_.Record(resp.wall_ms);
  queue_us_.fetch_add(static_cast<uint64_t>(queue_ms * 1e3),
                      std::memory_order_relaxed);
  plan_us_.fetch_add(static_cast<uint64_t>(plan_ms * 1e3),
                     std::memory_order_relaxed);
  exec_us_.fetch_add(static_cast<uint64_t>(exec_ms * 1e3),
                     std::memory_order_relaxed);
  sched_wait_us_.fetch_add(static_cast<uint64_t>(sched_wait_ms * 1e3),
                           std::memory_order_relaxed);
  // Retry attribution: the jobs' counters ride in the program stats (the
  // planner site feeds the service atomics directly as it retries).
  if (resp.metrics.faults_injected > 0 || resp.metrics.task_retries > 0) {
    task_retries_.fetch_add(resp.metrics.task_retries,
                            std::memory_order_relaxed);
    faults_injected_.fetch_add(resp.metrics.faults_injected,
                               std::memory_order_relaxed);
    retry_us_.fetch_add(static_cast<uint64_t>(resp.metrics.retry_ms * 1e3),
                        std::memory_order_relaxed);
  }
  // Cancellation take-effect latency: token latch -> this response.
  const bool was_cancelled =
      resp.status.code() == StatusCode::kCancelled ||
      resp.status.code() == StatusCode::kDeadlineExceeded;
  if (was_cancelled && task.token != nullptr && task.token->cancelled()) {
    const Clock::time_point fired = task.token->fired_at();
    if (fired != Clock::time_point::min()) {
      cancel_us_.fetch_add(static_cast<uint64_t>(MsSince(fired) * 1e3),
                           std::memory_order_relaxed);
      cancel_count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (resp.ok()) {
      ++completed_;
    } else {
      ++failed_;
      if (resp.status.code() == StatusCode::kDeadlineExceeded) {
        ++deadline_exceeded_;
      } else if (resp.status.code() == StatusCode::kCancelled) {
        ++cancelled_;
      }
    }
  }
  inflight_.fetch_sub(1);
  task.promise.set_value(std::move(resp));
}

ServiceStats QueryService::Stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.rejected = rejected_;
    s.deadline_exceeded = deadline_exceeded_;
    s.cancelled = cancelled_;
    s.shed = shed_;
  }
  s.peak_inflight = peak_inflight_.load();
  s.plan_coalesced = plan_coalesced_.load(std::memory_order_relaxed);
  s.plans_built = plans_built_.load(std::memory_order_relaxed);
  s.cache = cache_.counters();
  s.result_hits = result_hits_.load(std::memory_order_relaxed);
  s.delta_hits = delta_hits_.load(std::memory_order_relaxed);
  s.delta_rows = delta_rows_.load(std::memory_order_relaxed);
  s.mean_delta_ms =
      s.delta_hits == 0
          ? 0.0
          : static_cast<double>(delta_us_.load(std::memory_order_relaxed)) /
                1e3 / static_cast<double>(s.delta_hits);
  s.total_p50_ms = total_latency_.Percentile(0.50);
  s.total_p95_ms = total_latency_.Percentile(0.95);
  s.total_p99_ms = total_latency_.Percentile(0.99);
  const double n =
      static_cast<double>(s.completed + s.failed > 0 ? s.completed + s.failed
                                                     : 1);
  s.mean_queue_ms =
      static_cast<double>(queue_us_.load(std::memory_order_relaxed)) / 1e3 / n;
  s.mean_plan_ms =
      static_cast<double>(plan_us_.load(std::memory_order_relaxed)) / 1e3 / n;
  s.mean_exec_ms =
      static_cast<double>(exec_us_.load(std::memory_order_relaxed)) / 1e3 / n;
  s.mean_sched_wait_ms =
      static_cast<double>(sched_wait_us_.load(std::memory_order_relaxed)) /
      1e3 / n;
  s.task_retries = task_retries_.load(std::memory_order_relaxed);
  s.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  s.mean_retry_ms =
      static_cast<double>(retry_us_.load(std::memory_order_relaxed)) / 1e3 / n;
  const uint64_t nc = cancel_count_.load(std::memory_order_relaxed);
  s.mean_cancel_ms =
      nc == 0 ? 0.0
              : static_cast<double>(cancel_us_.load(std::memory_order_relaxed)) /
                    1e3 / static_cast<double>(nc);
  s.scheduler = engine_.scheduler().stats();
  return s;
}

}  // namespace gumbo::serve
