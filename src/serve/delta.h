// Delta-evaluation eligibility and slice planning (DESIGN.md §12).
//
// A cached query result at epoch vector E_old can be *maintained*, not
// recomputed, when every relation whose epoch moved grew by pure inserts
// with a retained watermark and is read only positively (under an even
// number of NOTs). A BSGF subquery with guard G then only gains rows:
//   O_new = O_old  UNION  eval(S_G)
// for any slice S_G of G_new that holds every new guard row and every old
// guard row that newly qualifies. An old row newly qualifies only if some
// positive atom `a` over a moved relation C turned true for it, so
//   S_G = DeltaG  UNION  (G_new semi-join_a DeltaC), over every such atom
// of the subqueries G guards, is enough. PlanDelta re-runs the cached plan
// over a view in which each base guard is shadowed by its S_G (empty when
// nothing those subqueries read moved: their outputs come out empty and
// the cached value is the answer), while every relation read in
// conditional position stays whole. The caller unions each dirty output
// with its cached value and canonicalizes it.
//
// Fallbacks: destructive movement (Put/Create/Erase/reshape), an aged-out
// watermark, a moved relation read under NOT (an insert can remove output
// rows), and a relation the pass must read whole that would need a slice
// (nested programs only) all force a full run.
#ifndef GUMBO_SERVE_DELTA_H_
#define GUMBO_SERVE_DELTA_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/relation.h"
#include "sgf/sgf.h"

namespace gumbo::serve {

/// Why a cached result could not be delta-maintained (fallback table,
/// DESIGN.md §12).
enum class DeltaFallback {
  kNone,                ///< eligible — no fallback
  kDestructive,         ///< a moved relation saw a non-insert mutation
  kNoWatermark,         ///< insert-only, but the old epoch's row count aged out
  kMissingRelation,     ///< a moved name is not resolvable in the database
  kNegatedDelta,        ///< a moved relation sits under an odd number of NOTs
  kNeedsWholeRelation,  ///< a relation the pass must read whole needs a slice
};

struct DeltaPlan {
  bool eligible = false;
  DeltaFallback fallback = DeltaFallback::kNone;
  /// An overlay over `db` in which every base guard the pass may slice is
  /// shadowed, under its own name, by its slice S_G — the base a cached
  /// plan re-runs over (plan::ExecutePlanOnSnapshot). Borrows `db`.
  Database view;
  /// Names whose pass contents are a slice, not the whole relation: the
  /// shadowed base guards plus, transitively, the output of every
  /// subquery guarded by one. A dirty output holds only rows the cached
  /// value may lack, so the caller unions it with the cached value; an
  /// output outside this set was recomputed in full by the pass.
  std::set<std::string> dirty;
  /// Rows inserted since the cached epochs, over every moved relation.
  uint64_t delta_rows = 0;
};

/// Decides whether the epoch movement from `cached_epochs` to
/// `current_epochs` (both parallel to `names`, the sorted
/// serve::EpochNamesOf order) is delta-maintainable for `query` over
/// `db`, and builds the guard slices if so.
DeltaPlan PlanDelta(const sgf::SgfQuery& query, const Database& db,
                    const std::vector<std::string>& names,
                    const std::vector<uint64_t>& cached_epochs,
                    const std::vector<uint64_t>& current_epochs);

}  // namespace gumbo::serve

#endif  // GUMBO_SERVE_DELTA_H_
