// Operator-level options shared by the MSJ / EVAL / 1-ROUND / chain
// builders — the per-plan switchboard for the paper's §5.1 message
// optimizations and the shuffle-volume optimizations of DESIGN.md §5.
#ifndef GUMBO_OPS_OPTIONS_H_
#define GUMBO_OPS_OPTIONS_H_

#include "mr/filter.h"

namespace gumbo::ops {

/// Options every operator builder accepts.
struct OpOptions {
  /// Gumbo §5.1 optimization (2): ship guard tuple ids instead of tuples.
  bool tuple_id_refs = true;
  /// Gumbo §5.1 optimization (1): message packing.
  bool pack_messages = true;
  /// Bloom-filtered semi-join requests (DESIGN.md §5.2): guard tuples
  /// whose join key provably has no conditional match never emit a
  /// Request. Per-operator eligibility rules in docs/operators.md. The
  /// filters are sized for mr::BloomFilter::kDefaultFpp.
  bool bloom_filters = true;
};

/// Applies the GUMBO_DISABLE_FILTERS environment override (any non-empty
/// value other than "0" disables Bloom filters). The environment wins
/// over programmatic settings so CI and benches can force an ablation
/// without code changes (DESIGN.md §5.4); plan::Planner applies this to
/// every plan it builds.
OpOptions ApplyEnvOverrides(OpOptions options);

}  // namespace gumbo::ops

#endif  // GUMBO_OPS_OPTIONS_H_
