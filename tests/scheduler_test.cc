// Tests for the morsel-driven work-stealing scheduler (DESIGN.md §9):
// no lost tasks under concurrent submit + steal, priority ordering
// under contention, anti-starvation of the low class, clean shutdown
// with queued work, helping waits / nested groups, chain stealing, and
// the env-tunable options.
#include "common/scheduler.h"

#include <gtest/gtest.h>

#include "common/config.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gumbo {
namespace {

// Spins until `pred` holds (tests only; all uses are bounded by gtest's
// per-test timeout, so a scheduler bug shows up as a hung test, which
// is the failure mode we want to surface loudly).
template <typename Pred>
void SpinUntil(Pred pred) {
  while (!pred()) std::this_thread::yield();
}

TEST(SchedulerTest, ParallelForCoversEveryIndexExactlyOnce) {
  Scheduler scheduler(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  SchedContext ctx;
  scheduler.ParallelFor(
      kN, [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      ctx);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SchedulerTest, ParallelForEdgeCases) {
  Scheduler scheduler(2);
  SchedContext ctx;
  int calls = 0;
  scheduler.ParallelFor(0, [&](size_t) { ++calls; }, ctx);
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the calling thread.
  std::thread::id runner;
  scheduler.ParallelFor(1, [&](size_t) { runner = std::this_thread::get_id(); },
                        ctx);
  EXPECT_EQ(runner, std::this_thread::get_id());
}

// ISSUE satellite: no lost tasks under concurrent submit and steal.
// Eight submitter threads race their own groups; every closure chains a
// child (exercising worker-deque continuations, the steal targets), and
// the grand total must come out exact. Also checks the ticket ledger:
// every submitted closure is executed exactly once (morsels counter).
TEST(SchedulerTest, NoLostTasksUnderConcurrentSubmitAndSteal) {
  Scheduler scheduler(4);
  constexpr int kThreads = 8;
  constexpr int kParents = 200;  // each parent chains one child
  std::atomic<int> executed{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      SchedContext ctx;
      ctx.scheduler = &scheduler;
      Scheduler::TaskGroup group(ctx);
      for (int i = 0; i < kParents; ++i) {
        group.Submit([&executed, &group] {
          executed.fetch_add(1, std::memory_order_relaxed);
          group.Submit(
              [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
        });
      }
      group.Wait();
    });
  }
  for (auto& t : submitters) t.join();

  constexpr int kTotal = kThreads * kParents * 2;
  EXPECT_EQ(executed.load(), kTotal);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kTotal));
  // Every closure ran exactly once, whether a worker or a helping
  // waiter claimed it; tickets whose closure a waiter already drained
  // are accounted as stale, never re-run.
  EXPECT_EQ(stats.morsels, static_cast<uint64_t>(kTotal));
  EXPECT_LE(stats.stale_tickets, stats.submitted);
}

// ISSUE satellite: priority ordering under contention. A single worker
// is gated inside a closure while nine tickets pile up, submitted in
// *inverse* priority order (low first). Once the gate lifts the worker
// must drain them priority-major: all high, then all normal, then all
// low — regardless of arrival order.
TEST(SchedulerTest, PriorityOrderingUnderContention) {
  Scheduler scheduler(1);
  SchedContext gate_ctx;
  gate_ctx.scheduler = &scheduler;
  Scheduler::TaskGroup gate(gate_ctx);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> gate_running{false};
  gate.Submit([&] {
    gate_running.store(true);
    released.wait();
  });
  SpinUntil([&] { return gate_running.load(); });

  std::mutex order_mu;
  std::vector<int> order;
  auto make_group = [&](SchedPriority prio) {
    SchedContext ctx;
    ctx.scheduler = &scheduler;
    ctx.priority = prio;
    return std::make_unique<Scheduler::TaskGroup>(ctx);
  };
  auto submit_three = [&](Scheduler::TaskGroup* group, int tag) {
    for (int i = 0; i < 3; ++i) {
      group->Submit([&order_mu, &order, tag] {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(tag);
      });
    }
  };
  auto low = make_group(SchedPriority::kLow);
  auto normal = make_group(SchedPriority::kNormal);
  auto high = make_group(SchedPriority::kHigh);
  submit_three(low.get(), 2);
  submit_three(normal.get(), 1);
  submit_three(high.get(), 0);

  release.set_value();
  SpinUntil([&] {
    std::lock_guard<std::mutex> lock(order_mu);
    return order.size() == 9;
  });
  // Do not Wait() before the work is done: a helping waiter would run
  // closures on this thread and scramble the order we are asserting.
  high->Wait();
  normal->Wait();
  low->Wait();
  gate.Wait();

  ASSERT_EQ(order.size(), 9u);
  const std::vector<int> expected = {0, 0, 0, 1, 1, 1, 2, 2, 2};
  EXPECT_EQ(order, expected);
  // Dispatching high while normal/low sat queued is exactly the
  // inversion the old FIFO pool would have committed.
  EXPECT_GE(scheduler.stats().inversions_avoided, 1u);
}

// ISSUE satellite: anti-starvation. Forty high-priority tickets against
// two low ones on a gated single worker: strict priority would run the
// low pair dead last, but the periodic inverted scan must grant the low
// class a slot while high work still remains.
TEST(SchedulerTest, AntiStarvationGrantsLowClassUnderHighLoad) {
  Scheduler scheduler(1);
  SchedContext gate_ctx;
  gate_ctx.scheduler = &scheduler;
  Scheduler::TaskGroup gate(gate_ctx);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> gate_running{false};
  gate.Submit([&] {
    gate_running.store(true);
    released.wait();
  });
  SpinUntil([&] { return gate_running.load(); });

  std::mutex order_mu;
  std::vector<int> order;
  auto record = [&](int tag) {
    return [&order_mu, &order, tag] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };

  SchedContext low_ctx;
  low_ctx.scheduler = &scheduler;
  low_ctx.priority = SchedPriority::kLow;
  Scheduler::TaskGroup low(low_ctx);
  SchedContext high_ctx;
  high_ctx.scheduler = &scheduler;
  high_ctx.priority = SchedPriority::kHigh;
  Scheduler::TaskGroup high(high_ctx);

  constexpr int kHighTasks = 40;
  low.Submit(record(2));
  low.Submit(record(2));
  for (int i = 0; i < kHighTasks; ++i) high.Submit(record(0));

  release.set_value();
  SpinUntil([&] {
    std::lock_guard<std::mutex> lock(order_mu);
    return order.size() == kHighTasks + 2;
  });
  high.Wait();
  low.Wait();
  gate.Wait();

  size_t first_low = order.size();
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 2) {
      first_low = i;
      break;
    }
  }
  // The inverted scan fires every 13th dispatch, so the first low task
  // must land well before the 40 high tasks are exhausted.
  EXPECT_LT(first_low, static_cast<size_t>(kHighTasks))
      << "low class starved behind the high backlog";
  EXPECT_GE(scheduler.stats().starvation_grants, 1u);
}

// ISSUE satellite: clean shutdown with queued work. Both workers are
// parked inside gate closures while 100 tickets queue up; ~Scheduler
// then runs concurrently with the release. The destructor must drain
// every queued closure (not drop them) before joining, and the group
// must remain waitable after the scheduler is gone.
TEST(SchedulerTest, ShutdownDrainsQueuedWork) {
  auto scheduler = std::make_unique<Scheduler>(2);
  SchedContext ctx;
  ctx.scheduler = scheduler.get();
  Scheduler::TaskGroup group(ctx);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> gates_running{0};
  std::atomic<int> executed{0};
  for (int i = 0; i < 2; ++i) {
    group.Submit([&] {
      gates_running.fetch_add(1);
      released.wait();
    });
  }
  SpinUntil([&] { return gates_running.load() == 2; });

  constexpr int kQueued = 100;
  for (int i = 0; i < kQueued; ++i) {
    group.Submit([&executed] { executed.fetch_add(1); });
  }

  // Lift the gates from a side thread a beat after shutdown begins, so
  // the destructor really does observe a full queue.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    release.set_value();
  });
  scheduler.reset();  // ~Scheduler: drain everything, then join
  releaser.join();

  EXPECT_EQ(executed.load(), kQueued);
  // The group outlives its scheduler: Wait() (and the destructor's
  // implicit Wait) must complete without touching the dead scheduler.
  group.Wait();
}

// Nested groups on a single worker only complete because Wait() helps:
// the outer closures hold the lone worker, so the inner groups' work
// must run on the waiting threads themselves.
TEST(SchedulerTest, HelpingWaitCompletesNestedGroupsOnOneWorker) {
  Scheduler scheduler(1);
  std::atomic<int> inner_done{0};
  SchedContext ctx;
  scheduler.ParallelFor(
      8,
      [&](size_t) {
        SchedContext inner_ctx;
        inner_ctx.scheduler = &scheduler;
        Scheduler::TaskGroup inner(inner_ctx);
        for (int i = 0; i < 8; ++i) {
          inner.Submit([&inner_done] { inner_done.fetch_add(1); });
        }
        inner.Wait();
      },
      ctx);
  EXPECT_EQ(inner_done.load(), 64);
}

// A chain continuation lands on the submitting worker's own deque;
// while that worker is blocked, the only way the child can run is for
// the other worker to steal it. Deadlock here = a stealing bug.
TEST(SchedulerTest, IdleWorkerStealsChainContinuation) {
  Scheduler scheduler(2);
  SchedContext ctx;
  ctx.scheduler = &scheduler;
  Scheduler::TaskGroup group(ctx);

  std::atomic<bool> child_done{false};
  group.Submit([&] {
    group.Submit([&child_done] { child_done.store(true); });
    // Block the submitting worker until someone else runs the child.
    SpinUntil([&] { return child_done.load(); });
  });
  SpinUntil([&] { return child_done.load(); });
  group.Wait();
  EXPECT_GE(scheduler.stats().steals, 1u);
}

// Stall accounting (the sched_wait attribution source, DESIGN.md §9):
// work queued while no closure of the group runs counts as stall time,
// flushed into ctx.metrics at Wait().
TEST(SchedulerTest, GroupMetricsReportStallTime) {
  Scheduler scheduler(1);
  SchedContext gate_ctx;
  gate_ctx.scheduler = &scheduler;
  Scheduler::TaskGroup gate(gate_ctx);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> gate_running{false};
  gate.Submit([&] {
    gate_running.store(true);
    released.wait();
  });
  SpinUntil([&] { return gate_running.load(); });

  SchedGroupMetrics metrics;
  SchedContext ctx;
  ctx.scheduler = &scheduler;
  ctx.metrics = &metrics;
  Scheduler::TaskGroup group(ctx);
  std::atomic<int> executed{0};
  for (int i = 0; i < 4; ++i) {
    group.Submit([&executed] { executed.fetch_add(1); });
  }
  // The group is runnable but unserved while the worker sits in the
  // gate: that interval must surface as stall_us.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();
  group.Wait();
  gate.Wait();

  EXPECT_EQ(executed.load(), 4);
  EXPECT_EQ(metrics.morsels.load(), 4u);
  EXPECT_GE(metrics.stall_us.load(), 5000u);  // >= 5ms of the ~20ms gate
}

TEST(SchedOptionsTest, FromEnvParsesKnobs) {
  // The environment is parsed into common::RuntimeConfig exactly once
  // per process; tests inject configurations with ScopedOverride instead
  // of racing setenv against that parse.
  {
    // Defaults: no knobs engaged.
    common::RuntimeConfig::ScopedOverride ov{common::RuntimeConfig{}};
    SchedOptions defaults = SchedOptions::FromEnv();
    EXPECT_EQ(defaults.morsel_rows, 4096u);
  }
  {
    common::RuntimeConfig cfg;
    cfg.morsel_rows = 128;
    common::RuntimeConfig::ScopedOverride ov{std::move(cfg)};
    SchedOptions tuned = SchedOptions::FromEnv();
    EXPECT_EQ(tuned.morsel_rows, 128u);
  }
}

}  // namespace
}  // namespace gumbo
