// Delta-evaluation eligibility and slice planning (DESIGN.md §12).
//
// A cached query result at epoch vector E_old can be *maintained* — not
// recomputed — when every relation whose epoch moved (a) moved by pure
// inserts with a retained watermark, and (b) occurs only in *guard*
// position in the query (transitively: an output produced from a delta'd
// guard is itself delta'd, so it too must avoid conditional position).
// A BSGF subquery's output distributes over its guard rows —
//   O = { pi(t) : t in Guard, C(t) } = O_old  UNION  f(DeltaGuard)
// — so re-running the cached plan with each delta'd relation shadowed by
// a slice of just its new rows yields exactly the new output rows, and
// cached UNION delta, canonically deduped, is byte-identical to a
// from-scratch run. Inserts into a conditional-position relation are NOT
// delta-expressible this way (a positive conditional grows the output
// without the guard changing; a negated one shrinks it), so they fall
// back to full invalidation, as do all destructive mutations
// (Put/Create/Erase/reshape).
#ifndef GUMBO_SERVE_DELTA_H_
#define GUMBO_SERVE_DELTA_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/relation.h"
#include "sgf/sgf.h"

namespace gumbo::serve {

/// Why a cached result could not be delta-maintained (fallback matrix,
/// DESIGN.md §12).
enum class DeltaFallback {
  kNone,             ///< eligible — no fallback
  kDestructive,      ///< a moved relation saw a non-insert mutation
  kNoWatermark,      ///< insert-only, but the old epoch's row count aged out
  kConditionalDelta, ///< a delta'd relation is read in conditional position
  kMissingRelation,  ///< a moved name is not resolvable in the database
};

const char* DeltaFallbackName(DeltaFallback f);

struct DeltaPlan {
  bool eligible = false;
  DeltaFallback fallback = DeltaFallback::kNone;
  /// An overlay over `db` in which each insert-moved base relation is
  /// shadowed by a materialized copy of exactly its delta rows
  /// [watermark, size) under the same name — the base a cached plan
  /// re-runs over (plan::ExecutePlanOnSnapshot). Borrows `db`.
  Database view;
  /// Names carrying delta (not full) contents in the re-run: the moved
  /// base relations plus, transitively, every output produced from a
  /// delta'd guard. Outputs in this set must be unioned with the cached
  /// result; outputs outside it are recomputed in full.
  std::set<std::string> dirty;
  uint64_t delta_rows = 0;  ///< total input delta rows across the slices
};

/// Decides whether the epoch movement from `cached_epochs` to
/// `current_epochs` (both parallel to `names`, the sorted
/// PlanCache::EpochNamesOf order) is delta-maintainable for `query` over
/// `db`, and builds the delta slices if so.
DeltaPlan PlanDelta(const sgf::SgfQuery& query, const Database& db,
                    const std::vector<std::string>& names,
                    const std::vector<uint64_t>& cached_epochs,
                    const std::vector<uint64_t>& current_epochs);

}  // namespace gumbo::serve

#endif  // GUMBO_SERVE_DELTA_H_
