// Canonical query signatures and stats-epoch vectors for the
// serving-layer query cache (DESIGN.md §8).
//
// Two queries that are alpha-equivalent — identical up to a consistent
// renaming of their (per-subquery-scoped) variables — lower to the same
// plan shape, so they must share one cache entry. The signature renames
// every variable to its first-occurrence index and serializes the query
// structurally; relation names, output names, constants, atom order, and
// condition structure all stay significant, because each of them changes
// the lowered plan.
#ifndef GUMBO_SERVE_SIGNATURE_H_
#define GUMBO_SERVE_SIGNATURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/relation.h"
#include "plan/planner.h"
#include "sgf/sgf.h"

namespace gumbo::serve {

/// Alpha-renaming-invariant canonical signature of `query`. Queries with
/// equal signatures produce byte-identical lowered plans under the same
/// planner options and database statistics.
std::string CanonicalQuerySignature(const sgf::SgfQuery& query);

/// Fingerprint of every planner knob that changes the lowered plan:
/// strategy, operator options (after the GUMBO_DISABLE_* environment
/// overrides the planner itself applies), cost variant, sample size, and
/// the brute-force grouping limit.
std::string PlannerFingerprint(const plan::PlannerOptions& options);

/// The full plan-cache key: CanonicalQuerySignature + PlannerFingerprint.
std::string PlanCacheKey(const sgf::SgfQuery& query,
                         const plan::PlannerOptions& options);

/// The relation names whose epochs validate a cache entry for `query`:
/// every name the query mentions (base relations AND produced names —
/// produced names shadow base relations if present), sorted and
/// deduplicated.
std::vector<std::string> EpochNamesOf(const sgf::SgfQuery& query);

/// The stats epoch of each of `names` (an EpochNamesOf vector) in `db`,
/// in that order: the epoch vector a cache entry must match.
std::vector<uint64_t> EpochsOf(const std::vector<std::string>& names,
                               const Database& db);

}  // namespace gumbo::serve

#endif  // GUMBO_SERVE_SIGNATURE_H_
