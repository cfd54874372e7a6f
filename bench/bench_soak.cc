// Standalone differential soak driver (DESIGN.md §10): random SGF
// queries over random skewed/correlated databases through every planner
// strategy and both serve paths, each result checked byte-identical
// against the naive reference evaluator. Exits nonzero on any
// divergence, printing a minimized reproduction (seed + query).
//
// Environment knobs:
//   GUMBO_SOAK_SEED    — base seed (default 7); iteration i uses seed+i
//   GUMBO_SOAK_ITERS   — (query, database) pairs to run (default 200)
//   GUMBO_SOAK_TUPLES  — materialized tuples per relation (default 240)
//   GUMBO_SOAK_MUTATE  — mutation mode: seeded inserts through the
//                        service between runs (DESIGN.md §12); exits
//                        nonzero if no response was delta-maintained
//                        after an insert into a conditional relation
//   GUMBO_FAULT_RATE   — chaos mode: per-(site, unit, attempt) fault
//                        probability (default 0 = off); OK results must
//                        stay byte-identical, failures must be typed
//                        clean errors (DESIGN.md §11)
//   GUMBO_FAULT_SEED   — chaos base seed (default 42)
//   GUMBO_FAULT_SITES  — comma-separated site filter (default all)
#include <cstdio>

#include "soak/soak.h"

int main() {
  gumbo::soak::SoakConfig config = gumbo::soak::SoakConfig::FromEnv();
  std::printf("gumbo differential soak: seed=%llu iters=%zu tuples=%zu\n",
              static_cast<unsigned long long>(config.seed),
              config.iterations, config.tuples);
  if (config.chaos()) {
    std::printf("chaos mode: fault_rate=%g fault_seed=%llu sites=0x%x\n",
                config.fault_rate,
                static_cast<unsigned long long>(config.fault_seed),
                config.fault_sites);
  }
  const gumbo::soak::SoakReport report = gumbo::soak::RunSoak(config);
  std::printf("%s\n", report.Summary().c_str());
  if (!report.ok()) return 1;
  if (report.checks == 0) {
    std::printf("soak ran zero checks — configuration error\n");
    return 1;
  }
  if (config.chaos() && report.faults_injected == 0) {
    std::printf("chaos mode injected zero faults — configuration error\n");
    return 1;
  }
  if (config.mutate && report.conditional_delta_hits == 0) {
    std::printf(
        "mutation mode delta-maintained no response after a conditional "
        "insert — configuration error\n");
    return 1;
  }
  return 0;
}
