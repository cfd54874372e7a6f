// FaultInjector: seeded, deterministic fault injection for chaos testing
// (DESIGN.md §11).
//
// The paper's GUMBO system runs on a MapReduce cluster whose defining
// robustness property is that tasks fail and are idempotently re-run;
// this injector gives the single-process reproduction the same
// adversary. A fault decision is a pure function of
// (seed, site, unit, attempt):
//
//     fail  <=>  SplitMix64(seed ⊕ site ⊕ unit ⊕ attempt) < rate · 2⁶⁴
//
// so the *set* of failing (site, unit, attempt) triples is fixed by the
// seed alone — independent of thread count, steal pattern, and morsel
// size — and a retried attempt (attempt + 1) re-rolls, so any rate < 1
// terminates. `unit` identifies the idempotent work unit (a map task, a
// reduce partition, a planning key); callers derive it from stable ids,
// never from pointers or timing, which is what makes a chaos failure
// reproducible from GUMBO_FAULT_SEED alone.
//
// Sites name the injection points the execution stack actually guards:
// map scans, shuffle sorts, reduce emits, the planner, and the plan
// cache. A site filter restricts injection for targeted chaos runs.
//
// Thread-safety: ShouldFail is pure apart from the monotonic injected
// counters (relaxed atomics); one injector is shared by every worker.
#ifndef GUMBO_COMMON_FAULT_H_
#define GUMBO_COMMON_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace gumbo {

/// Injection points, one per guarded phase of the stack.
enum class FaultSite : int {
  kMapScan = 0,     ///< a map task's morsel chain (mr/engine.cc)
  kShuffleSort = 1, ///< a partition sort (mr/shuffle.cc)
  kReduceEmit = 2,  ///< a reduce task's morsel chain (mr/engine.cc)
  kPlanner = 3,     ///< a single-flight planning run (serve/service.cc)
  kCache = 4,       ///< a query-cache lookup (serve/service.cc)
};
inline constexpr size_t kNumFaultSites = 5;

const char* FaultSiteName(FaultSite site);

class FaultInjector {
 public:
  /// `rate` in [0, 1] is the per-(site, unit, attempt) fault
  /// probability. `site_mask` selects sites (bit i = site i); the
  /// default enables all of them.
  explicit FaultInjector(uint64_t seed, double rate,
                         uint32_t site_mask = ~0u);

  /// Reads GUMBO_FAULT_SEED, GUMBO_FAULT_RATE, and GUMBO_FAULT_SITES (a
  /// comma-separated list of site names, e.g. "map-scan,reduce-emit";
  /// unset = all sites). Returns an inactive injector (rate 0) when
  /// GUMBO_FAULT_RATE is unset or 0 — the production configuration.
  static FaultInjector FromEnv();

  uint64_t seed() const { return seed_; }
  double rate() const { return rate_; }
  uint32_t site_mask() const { return site_mask_; }
  bool active() const { return rate_ > 0.0; }
  bool site_enabled(FaultSite site) const {
    return (site_mask_ & (1u << static_cast<int>(site))) != 0;
  }

  /// Deterministically decides whether attempt `attempt` of work unit
  /// `unit` fails at `site`, counting an injection when it does. Callers
  /// observing true must abandon the attempt with InjectedFault() —
  /// before adopting any of its output — and either retry (attempt + 1)
  /// or escalate.
  bool ShouldFail(FaultSite site, uint64_t unit, uint32_t attempt) const;

  /// The typed, retryable status an injected fault surfaces as.
  static Status InjectedFault(FaultSite site, uint64_t unit,
                              uint32_t attempt);

  /// Total injections so far, and the per-site split (relaxed monotonic
  /// counters; exact once the run quiesces).
  uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }
  uint64_t injected_at(FaultSite site) const {
    return per_site_[static_cast<size_t>(site)].load(
        std::memory_order_relaxed);
  }

 private:
  uint64_t seed_;
  double rate_;
  uint32_t site_mask_;
  uint64_t threshold_;  ///< rate scaled to the 64-bit hash range
  mutable std::atomic<uint64_t> injected_{0};
  mutable std::array<std::atomic<uint64_t>, kNumFaultSites> per_site_{};
};

}  // namespace gumbo

#endif  // GUMBO_COMMON_FAULT_H_
