// The four workloads of the benchmark (README.md says why each exists).
// A workload sets itself up, computes its correctness references off the
// clock, runs a timed untraced closed loop for at least the requested
// seconds, with more set-ups spread through it (setup_s is their median),
// and, when traced, a shorter traced run whose spans give the per-layer
// metrics.
#ifndef GUMBO_BENCHMARK_WORKLOADS_H_
#define GUMBO_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace gumbo::bm {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  uint64_t seed = 0;
  double seconds = 0.0;
};

/// Measured sizes (words and row fingerprints) of a workload's data.
struct DataSizes {
  double base_mb = 0.0;       ///< every base relation the workload holds
  double query_min_mb = 0.0;  ///< the smallest set of relations one query reads
  double query_max_mb = 0.0;  ///< the largest
};

struct WorkloadResult {
  DataSizes data;
  uint64_t attempted = 0;
  uint64_t failed = 0;         ///< non-OK statuses and wrong outputs
  std::vector<std::string> errors;  ///< the first few failures
  std::vector<Metric> end_to_end;   ///< from the untraced run
  std::vector<Metric> per_layer;    ///< traced runs only
};

const std::vector<std::string>& WorkloadNames();

/// Runs workload `name`; a non-null `tracer` adds the traced run.
WorkloadResult RunWorkload(const std::string& name, const RunOptions& options,
                           Tracer* tracer);

}  // namespace gumbo::bm

#endif  // GUMBO_BENCHMARK_WORKLOADS_H_
