#include "serve/delta.h"

namespace gumbo::serve {

const char* DeltaFallbackName(DeltaFallback f) {
  switch (f) {
    case DeltaFallback::kNone:
      return "none";
    case DeltaFallback::kDestructive:
      return "destructive-mutation";
    case DeltaFallback::kNoWatermark:
      return "watermark-aged-out";
    case DeltaFallback::kConditionalDelta:
      return "delta-in-conditional-position";
    case DeltaFallback::kMissingRelation:
      return "missing-relation";
  }
  return "unknown";
}

DeltaPlan PlanDelta(const sgf::SgfQuery& query, const Database& db,
                    const std::vector<std::string>& names,
                    const std::vector<uint64_t>& cached_epochs,
                    const std::vector<uint64_t>& current_epochs) {
  DeltaPlan plan;
  plan.view = Database(&db);
  auto fallback = [&plan](DeltaFallback f) {
    plan.eligible = false;
    plan.fallback = f;
    plan.view = Database();
    plan.dirty.clear();
    plan.delta_rows = 0;
    return plan;
  };
  if (names.size() != cached_epochs.size() ||
      names.size() != current_epochs.size()) {
    return fallback(DeltaFallback::kMissingRelation);
  }

  // The moved set: names whose stats epoch differs between the cached
  // result and now. Each must be an insert-only movement with a retained
  // watermark, or the whole lookup falls back to invalidation.
  struct Moved {
    const std::string* name;
    size_t from_rows;
  };
  std::vector<Moved> moved;
  for (size_t i = 0; i < names.size(); ++i) {
    if (cached_epochs[i] == current_epochs[i]) continue;
    const std::string& name = names[i];
    if (!db.InsertOnlySince(name, cached_epochs[i])) {
      return fallback(DeltaFallback::kDestructive);
    }
    std::optional<size_t> rows = db.RowsAtEpoch(name, cached_epochs[i]);
    if (!rows.has_value()) return fallback(DeltaFallback::kNoWatermark);
    moved.push_back(Moved{&name, *rows});
    plan.dirty.insert(name);
  }
  if (moved.empty()) {
    // No movement at all: the caller should have taken the pure-hit path;
    // report eligible-with-empty-delta so it degrades gracefully.
    plan.eligible = true;
    return plan;
  }

  // Dirty-set fixpoint over the subquery dependency graph: a subquery
  // whose guard relation is dirty produces a delta-only output, which is
  // itself dirty for any downstream consumer. (Subqueries may reference
  // earlier outputs in any order, so iterate to a fixpoint.)
  bool changed = true;
  while (changed) {
    changed = false;
    for (const sgf::BsgfQuery& q : query.subqueries()) {
      if (plan.dirty.count(q.guard().relation()) > 0 &&
          plan.dirty.insert(q.output()).second) {
        changed = true;
      }
    }
  }

  // Guard-only restriction: a dirty relation read in conditional position
  // is not delta-expressible (the subquery's output changes without its
  // guard delta changing — non-monotone under negation, and not
  // guard-distributive even without it).
  for (const sgf::BsgfQuery& q : query.subqueries()) {
    for (const sgf::Atom& a : q.conditional_atoms()) {
      if (plan.dirty.count(a.relation()) > 0) {
        return fallback(DeltaFallback::kConditionalDelta);
      }
    }
  }

  // Build the shadow slices: for each moved base relation, exactly its
  // arena tail past the cached watermark, materialized under the same
  // name (bulk copy of words + stored fingerprints, no re-hash).
  for (const Moved& m : moved) {
    Result<const Relation*> rel = db.Get(*m.name);
    if (!rel.ok()) return fallback(DeltaFallback::kMissingRelation);
    const size_t now = (*rel)->size();
    if (m.from_rows > now) {
      // Defensive: a watermark past the current size means the history
      // lied (should be impossible for insert-only movement).
      return fallback(DeltaFallback::kDestructive);
    }
    plan.delta_rows += now - m.from_rows;
    plan.view.Put((*rel)->CloneRange(m.from_rows, now));
  }
  plan.eligible = true;
  return plan;
}

}  // namespace gumbo::serve
