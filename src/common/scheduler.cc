#include "common/scheduler.h"

#include <chrono>

#include "common/config.h"

namespace gumbo {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Worker identity: lets Push route a worker's own submissions (morsel
// chain continuations) onto that worker's deque for LIFO cache-hot
// pickup. Non-worker threads (service threads, tests, Wait helpers)
// route through the injection queue instead.
thread_local Scheduler* tls_scheduler = nullptr;
thread_local size_t tls_worker = 0;

// Every kStarvationPeriod-th dispatch scans low -> high so a saturated
// high class cannot starve background work indefinitely. Prime-ish and
// small enough that a low ticket waits at most a handful of morsels.
constexpr uint64_t kStarvationPeriod = 13;

}  // namespace

SchedOptions SchedOptions::FromEnv() {
  const common::RuntimeConfig& cfg = common::RuntimeConfig::Get();
  SchedOptions o;
  o.morsel_rows = cfg.morsel_rows.value_or(o.morsel_rows);
  return o;
}

// Group state shared between the owning TaskGroup, its tickets in the
// scheduler deques, and any thread currently running one of its
// closures. Closures live here (not in the tickets): a ticket is only a
// hint that this group probably has a closure to run, so a helping
// Wait() can drain closures directly and the leftover tickets turn
// stale harmlessly.
struct Scheduler::TaskGroup::State {
  std::mutex mu;
  std::condition_variable cv_done;
  std::deque<std::function<void()>> closures;
  size_t pending = 0;  ///< submitted - completed
  size_t running = 0;  ///< closures currently executing
  SchedPriority priority = SchedPriority::kNormal;

  // Stall accounting (under mu): the group is stalled while it has
  // queued closures but none running — runnable-but-stolen-from time.
  bool stalled = false;
  uint64_t stall_since_us = 0;
  uint64_t stall_us = 0;
  uint64_t busy_us = 0;
  uint64_t morsels = 0;
};

Scheduler::Scheduler(size_t num_workers) {
  if (num_workers == 0) {
    num_workers = std::thread::hardware_concurrency();
    if (num_workers == 0) num_workers = 4;
  }
  queues_.resize(num_workers);
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  // Workers only exit once NextTicket finds every deque empty, so all
  // queued work (including continuations pushed while draining) runs.
  for (auto& w : workers_) w.join();
}

Scheduler& Scheduler::Global() {
  static Scheduler* scheduler = [] {
    const size_t workers =
        common::RuntimeConfig::Get().sched_workers.value_or(0);
    return new Scheduler(workers);
  }();
  return *scheduler;
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.morsels = morsels_.load(std::memory_order_relaxed);
  s.local_hits = local_hits_.load(std::memory_order_relaxed);
  s.global_hits = global_hits_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.stale_tickets = stale_tickets_.load(std::memory_order_relaxed);
  s.inversions_avoided = inversions_avoided_.load(std::memory_order_relaxed);
  s.starvation_grants = starvation_grants_.load(std::memory_order_relaxed);
  return s;
}

void Scheduler::Push(std::shared_ptr<TaskGroup::State> state,
                     SchedPriority prio) {
  const int p = static_cast<int>(prio);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tls_scheduler == this) {
      // A worker scheduling from inside a closure (a chain continuation
      // or a nested group): push LIFO onto its own deque so it picks the
      // cache-hot ticket right back up unless someone steals it first.
      queues_[tls_worker].deques[p].push_back(std::move(state));
    } else {
      global_[p].push_back(std::move(state));
    }
  }
  cv_work_.notify_one();
  submitted_.fetch_add(1, std::memory_order_relaxed);
}

// Runs one closure of `state` on the calling thread if any is queued.
// Shared by workers (via tickets) and helping waiters; `stale`
// distinguishes a ticket that found its closure already drained from a
// waiter probing an empty queue.
bool Scheduler::RunClosure(const std::shared_ptr<TaskGroup::State>& s,
                           std::atomic<uint64_t>* stale_counter,
                           std::atomic<uint64_t>* morsel_counter) {
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->closures.empty()) {
      if (stale_counter) {
        stale_counter->fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    fn = std::move(s->closures.front());
    s->closures.pop_front();
    s->running++;
    if (s->stalled) {
      s->stall_us += NowUs() - s->stall_since_us;
      s->stalled = false;
    }
  }
  const uint64_t start = NowUs();
  fn();
  const uint64_t elapsed = NowUs() - start;
  // Counted before the completion is published below: once pending hits
  // zero a Wait()er may return and read stats(), which must include this
  // morsel.
  morsel_counter->fetch_add(1, std::memory_order_relaxed);
  bool done;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    s->busy_us += elapsed;
    s->morsels++;
    s->running--;
    s->pending--;
    if (s->running == 0 && !s->closures.empty()) {
      s->stalled = true;
      s->stall_since_us = NowUs();
    }
    done = (s->pending == 0);
  }
  if (done) s->cv_done.notify_all();
  return true;
}

bool Scheduler::NextTicket(size_t worker,
                           std::shared_ptr<TaskGroup::State>* out) {
  WorkerState& me = queues_[worker];
  const uint64_t n = me.dispatches++;
  const bool inverted = (n % kStarvationPeriod == kStarvationPeriod - 1);

  auto any_queued_at = [&](int p) {
    if (!global_[p].empty()) return true;
    for (const auto& w : queues_) {
      if (!w.deques[p].empty()) return true;
    }
    return false;
  };
  auto note_dispatch = [&](int p) {
    if (inverted) {
      for (int q = 0; q < p; ++q) {
        if (any_queued_at(q)) {
          starvation_grants_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
    } else {
      for (int q = p + 1; q < static_cast<int>(kNumSchedPriorities); ++q) {
        if (any_queued_at(q)) {
          inversions_avoided_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
    }
  };

  for (size_t oi = 0; oi < kNumSchedPriorities; ++oi) {
    const int p = inverted ? static_cast<int>(kNumSchedPriorities - 1 - oi)
                           : static_cast<int>(oi);
    if (!me.deques[p].empty()) {
      *out = std::move(me.deques[p].back());
      me.deques[p].pop_back();  // LIFO: newest local ticket is cache-hot
      local_hits_.fetch_add(1, std::memory_order_relaxed);
      note_dispatch(p);
      return true;
    }
    if (!global_[p].empty()) {
      *out = std::move(global_[p].front());
      global_[p].pop_front();
      global_hits_.fetch_add(1, std::memory_order_relaxed);
      note_dispatch(p);
      return true;
    }
    for (size_t v = 1; v < queues_.size(); ++v) {
      WorkerState& victim = queues_[(worker + v) % queues_.size()];
      if (!victim.deques[p].empty()) {
        *out = std::move(victim.deques[p].front());
        victim.deques[p].pop_front();  // FIFO: steal the coldest ticket
        steals_.fetch_add(1, std::memory_order_relaxed);
        note_dispatch(p);
        return true;
      }
    }
  }
  return false;
}

void Scheduler::WorkerLoop(size_t worker) {
  tls_scheduler = this;
  tls_worker = worker;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::shared_ptr<TaskGroup::State> ticket;
    if (NextTicket(worker, &ticket)) {
      lock.unlock();
      RunClosure(ticket, &stale_tickets_, &morsels_);
      ticket.reset();
      lock.lock();
      continue;
    }
    if (shutdown_) break;
    cv_work_.wait(lock);
  }
  tls_scheduler = nullptr;
}

Scheduler::TaskGroup::TaskGroup(const SchedContext& ctx)
    : state_(std::make_shared<State>()),
      scheduler_(ctx.scheduler != nullptr ? ctx.scheduler
                                          : &Scheduler::Global()),
      metrics_(ctx.metrics) {
  state_->priority = ctx.priority;
}

Scheduler::TaskGroup::~TaskGroup() { Wait(); }

void Scheduler::TaskGroup::Submit(std::function<void()> fn) {
  bool notify_waiter;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->closures.push_back(std::move(fn));
    state_->pending++;
    if (state_->running == 0 && !state_->stalled) {
      // Queued with nothing running: the clock on runnable-but-unserved
      // time starts now (first claim stops it).
      state_->stalled = true;
      state_->stall_since_us = NowUs();
    }
    // A Wait()er may be blocked on cv_done with an empty closure queue;
    // a new closure means it should resume helping.
    notify_waiter = (state_->pending > state_->closures.size());
  }
  if (notify_waiter) state_->cv_done.notify_all();
  scheduler_->Push(state_, state_->priority);
}

void Scheduler::TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(state_->mu);
  while (state_->pending != 0) {
    if (state_->closures.empty()) {
      // Everything claimed by workers; block until the in-flight
      // closures finish or a chain continuation adds new ones.
      state_->cv_done.wait(lock, [&] {
        return state_->pending == 0 || !state_->closures.empty();
      });
      continue;
    }
    // Help: run a queued closure on this thread. The scheduler is only
    // touched on this path, so a group whose work was fully drained by
    // ~Scheduler can be waited on (and destroyed) after the scheduler
    // is gone, as the shutdown contract promises.
    lock.unlock();
    RunClosure(state_, /*stale_counter=*/nullptr, &scheduler_->morsels_);
    lock.lock();
  }
  if (metrics_ != nullptr) {
    metrics_->stall_us.fetch_add(state_->stall_us, std::memory_order_relaxed);
    metrics_->busy_us.fetch_add(state_->busy_us, std::memory_order_relaxed);
    metrics_->morsels.fetch_add(state_->morsels, std::memory_order_relaxed);
    state_->stall_us = 0;
    state_->busy_us = 0;
    state_->morsels = 0;  // flushed; Wait may run again from the dtor
  }
}

void Scheduler::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                            const SchedContext& ctx) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  SchedContext local = ctx;
  local.scheduler = this;
  TaskGroup group(local);
  for (size_t i = 0; i < n; ++i) {
    group.Submit([&fn, i] { fn(i); });
  }
  group.Wait();
}

}  // namespace gumbo
