// Shared harness for the paper-reproduction benchmarks (bench_fig*.cc,
// bench_table*.cc): workload sizing, strategy execution, and table
// formatting. Each bench binary regenerates one table/figure of the
// paper's §5 as console output (see EXPERIMENTS.md for the mapping).
//
// Environment knobs:
//   GUMBO_BENCH_TUPLES — materialized tuples per relation (default 100000)
//   GUMBO_BENCH_SEED   — generator seed (default 42)
//
// Relations always *represent* the paper's sizes (100M tuples, 4 GB
// guards) through the representation scale, so reported bytes and
// cost-model times are paper-scale regardless of the materialized sample.
#ifndef GUMBO_BENCH_BENCH_HARNESS_H_
#define GUMBO_BENCH_BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "common/table_printer.h"
#include "cost/constants.h"
#include "data/workloads.h"
#include "plan/executor.h"
#include "plan/planner.h"

namespace gumbo::bench {

struct BenchOptions {
  size_t tuples = 100000;
  uint64_t seed = 42;
  double selectivity = 0.5;
  /// Tuples each relation represents (the paper's 100M by default).
  double represented_tuples = 100e6;
  cost::ClusterConfig cluster;  // paper testbed defaults

  data::GeneratorConfig MakeGeneratorConfig() const {
    data::GeneratorConfig g;
    g.tuples = tuples;
    g.seed = seed;
    g.selectivity = selectivity;
    g.representation_scale =
        represented_tuples / static_cast<double>(tuples);
    return g;
  }

  /// Reads GUMBO_BENCH_* environment overrides.
  static BenchOptions FromEnv();
};

struct CellResult {
  bool ok = false;
  std::string error;
  plan::Metrics metrics;
};

/// Plans + executes `w.query` under a gumbo strategy.
CellResult RunStrategy(const data::Workload& w, plan::Strategy strategy,
                       const BenchOptions& options,
                       cost::CostModelVariant variant =
                           cost::CostModelVariant::kGumbo,
                       ops::OpOptions op = ops::OpOptions{});

/// Plans + executes `w.query` under a Pig/Hive baseline.
CellResult RunBaseline(const data::Workload& w, baselines::BaselineKind kind,
                       const BenchOptions& options);

/// "123" (seconds, rounded) for times; "--" on failure.
std::string FmtTime(const CellResult& r, double plan::Metrics::*field);
/// "12.3" GB from MB metrics.
std::string FmtGb(const CellResult& r, double plan::Metrics::*field);
/// "57%" relative to a base cell.
std::string FmtRel(const CellResult& r, const CellResult& base,
                   double plan::Metrics::*field);

/// Prints the standard four-metric block (net / total / input / comm),
/// absolute and relative to the first column.
void PrintMetricBlock(const std::string& title,
                      const std::vector<std::string>& col_names,
                      const std::vector<std::vector<CellResult>>& rows,
                      const std::vector<std::string>& row_names);

}  // namespace gumbo::bench

#endif  // GUMBO_BENCH_BENCH_HARNESS_H_
