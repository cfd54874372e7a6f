// Building blocks of sequential (SEQ) query plans:
//
//  * ChainStep — one repartition semi-join (or anti-join, for negated
//    literals) applied to the *output of the previous step* (paper §5.2,
//    strategy SEQ; §4.1 describes the underlying one-semi-join job). Each
//    step shrinks the running guard set, which is exactly why SEQ has low
//    total time and high net time.
//  * Union/projection job — combines the outputs of the per-DNF-clause
//    chains and applies the SELECT projection (a set union; needed when
//    the condition has more than one DNF clause, e.g. query B2).
#ifndef GUMBO_OPS_CHAIN_H_
#define GUMBO_OPS_CHAIN_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "mr/job.h"
#include "ops/options.h"
#include "sgf/bsgf.h"

namespace gumbo::ops {

/// One semi-join / anti-join step of a sequential chain.
struct ChainStepSpec {
  /// Guard atom of the query (supplies the variable layout and, on the
  /// first step, the conformance pattern filter).
  sgf::Atom guard;
  /// Dataset holding the current guard set (full guard-arity tuples).
  std::string input_dataset;
  /// The conditional atom applied in this step.
  sgf::Atom conditional;
  std::string conditional_dataset;
  /// false => anti-join (keep tuples with NO matching conditional fact).
  bool positive = true;
  /// Apply the guard pattern filter (constants / repeated variables);
  /// set on the first step of a chain only.
  bool filter_guard_pattern = false;
  /// When set, this is the last step of the only chain: emit the SELECT
  /// projection (deduplicated) instead of full guard tuples.
  bool emit_projection = false;
  std::vector<std::string> select_vars;  // used when emit_projection
  std::string output_dataset;
};

/// Builds the MR job for one chain step. `options` controls the
/// shuffle-volume optimizations (DESIGN.md §5): Bloom-filtered requests
/// apply to *positive* steps only — an anti-join keeps exactly the guard
/// tuples with no conditional match, so dropping filter-negative requests
/// would invert its output (docs/operators.md, "Filter rules").
Result<mr::JobSpec> BuildChainStepJob(const ChainStepSpec& step,
                                      const OpOptions& options,
                                      const std::string& job_name);

/// Builds the union+projection job: reads the final dataset of each chain
/// (full guard tuples), projects onto `select_vars` of `guard`, dedupes.
Result<mr::JobSpec> BuildUnionProjectJob(
    const std::vector<std::string>& chain_outputs, const sgf::Atom& guard,
    const std::vector<std::string>& select_vars,
    const std::string& output_dataset, const std::string& job_name);

}  // namespace gumbo::ops

#endif  // GUMBO_OPS_CHAIN_H_
