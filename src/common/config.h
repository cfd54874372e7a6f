// RuntimeConfig: every GUMBO_* environment knob, parsed once in one
// place instead of scattered getenv calls across scheduler, fault
// injector, operator options, serve layer, soak harness, and benches.
//
// The contract is *layering*, not competition: programmatic options keep
// their struct defaults, and each knob here is a std::optional that is
// engaged only when its environment variable was set (and parsed) — the
// consuming code applies `cfg.knob.value_or(programmatic_default)`. That
// keeps the historical env-wins behavior while making the whole
// configuration injectable: tests install a ScopedOverride instead of
// mutating the process environment, and `--help` / `\stats` surfaces can
// print Describe() so a running binary can show which knobs are live.
#ifndef GUMBO_COMMON_CONFIG_H_
#define GUMBO_COMMON_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace gumbo::common {

struct RuntimeConfig {
  // ---- Morsel scheduler (DESIGN.md §9) ----
  std::optional<size_t> morsel_rows;    ///< GUMBO_MORSEL_ROWS (> 0)
  std::optional<size_t> sched_workers;  ///< GUMBO_SCHED_WORKERS (> 0)

  // ---- Operator ablations (DESIGN.md §5.4) ----
  std::optional<bool> disable_filters;  ///< GUMBO_DISABLE_FILTERS

  // ---- Fault injection (DESIGN.md §11) ----
  std::optional<uint64_t> fault_seed;    ///< GUMBO_FAULT_SEED
  std::optional<double> fault_rate;      ///< GUMBO_FAULT_RATE (> 0)
  std::optional<std::string> fault_sites;  ///< GUMBO_FAULT_SITES (site list)

  // ---- Serve layer (DESIGN.md §12) ----
  std::optional<bool> disable_delta;  ///< GUMBO_DISABLE_DELTA

  // ---- Soak harness ----
  std::optional<uint64_t> soak_seed;    ///< GUMBO_SOAK_SEED
  std::optional<uint64_t> soak_iters;   ///< GUMBO_SOAK_ITERS
  std::optional<uint64_t> soak_tuples;  ///< GUMBO_SOAK_TUPLES
  std::optional<uint64_t> soak_mutate;  ///< GUMBO_SOAK_MUTATE (0/1)

  // ---- Benchmarks ----
  std::optional<size_t> bench_tuples;  ///< GUMBO_BENCH_TUPLES (>= 100)
  std::optional<uint64_t> bench_seed;  ///< GUMBO_BENCH_SEED

  /// Fresh parse of the process environment. Unparseable values —
  /// including negative numbers, which strtoull would wrap to huge
  /// ones — leave their knob disengaged.
  static RuntimeConfig FromEnv();

  /// The effective process configuration: the innermost ScopedOverride
  /// when one is installed, otherwise the environment parsed exactly
  /// once (first call wins; later setenv calls are invisible — tests
  /// use ScopedOverride instead).
  static const RuntimeConfig& Get();

  /// One knob per line ("GUMBO_MORSEL_ROWS        = 4096" or "(unset)"),
  /// for --help output and the query server's \stats view.
  std::string Describe() const;

  /// RAII test injection: installs `cfg` as RuntimeConfig::Get()'s
  /// result until destruction (restores the previous override, if any).
  /// Readers racing an install see either config, never a torn one.
  class ScopedOverride {
   public:
    explicit ScopedOverride(RuntimeConfig cfg);
    ~ScopedOverride();
    ScopedOverride(const ScopedOverride&) = delete;
    ScopedOverride& operator=(const ScopedOverride&) = delete;

   private:
    std::unique_ptr<const RuntimeConfig> cfg_;
    const RuntimeConfig* prev_;
  };
};

}  // namespace gumbo::common

#endif  // GUMBO_COMMON_CONFIG_H_
