#include "serve/delta.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <unordered_set>

#include "ops/messages.h"

namespace gumbo::serve {

namespace {

DeltaPlan Fallback(DeltaFallback f) {
  DeltaPlan plan;
  plan.fallback = f;
  return plan;
}

// Applies `step` to every subquery until a whole sweep adds nothing:
// subqueries may name each other's outputs in any order.
void Fixpoint(const sgf::SgfQuery& query,
              const std::function<bool(const sgf::BsgfQuery&)>& step) {
  for (bool grew = true; grew;) {
    grew = false;
    for (const sgf::BsgfQuery& q : query.subqueries()) grew |= step(q);
  }
}

// Sets (*negated)[i] for every conditional atom i that occurs under an
// odd number of NOTs.
void MarkNegated(const sgf::Condition* c, bool odd,
                 std::vector<bool>* negated) {
  if (c == nullptr) return;
  switch (c->kind()) {
    case sgf::Condition::Kind::kAtom:
      if (odd) (*negated)[c->atom_index()] = true;
      return;
    case sgf::Condition::Kind::kNot:
      MarkNegated(c->child(), !odd, negated);
      return;
    case sgf::Condition::Kind::kAnd:
    case sgf::Condition::Kind::kOr:
      MarkNegated(c->lhs(), odd, negated);
      MarkNegated(c->rhs(), odd, negated);
      return;
  }
}

// One semi-join a guard slice takes: the guard rows that agree, on the
// variables `atom` shares with `guard`, with some inserted row of
// `atom`'s relation that conforms to `atom`.
struct Probe {
  const sgf::Atom* guard;
  const sgf::Atom* atom;
};

// S_G: the rows of `guard` from `from` on (its own inserts), plus
// G_new ⋉_a ΔC for every probe. ΔC holds a few rows, so each probe hashes
// their keys first; one scan of the older guard rows then probes every
// set, and the kept rows are copied in row order with their stored
// fingerprints.
Relation GuardSlice(const Relation& guard, size_t from,
                    const std::vector<Probe>& probes, const Database& db,
                    const std::map<std::string, size_t>& moved) {
  struct Keys {
    const sgf::Atom* guard;
    ops::KeyProjection at_guard;
    std::unordered_set<Tuple> inserted;
  };
  std::vector<Keys> sets;
  std::vector<uint64_t> buf;
  for (const Probe& p : probes) {
    const Relation& cond = **db.Get(p.atom->relation());
    const std::vector<std::string> shared = p.atom->SharedVariables(*p.guard);
    const auto at_atom = ops::KeyProjection::Of(*p.atom, shared);
    Keys keys{p.guard, ops::KeyProjection::Of(*p.guard, shared), {}};
    for (size_t i = moved.at(p.atom->relation()); i < cond.size(); ++i) {
      const RowView row = cond.view(i);
      if (p.atom->Conforms(row)) {
        keys.inserted.insert(at_atom.Gather(row, &buf).ToTuple());
      }
    }
    // With no shared variable the one key is (): every conforming guard
    // row qualifies.
    if (!keys.inserted.empty()) sets.push_back(std::move(keys));
  }
  std::vector<bool> keep(guard.size(), false);
  std::fill(keep.begin() + static_cast<std::ptrdiff_t>(from), keep.end(), true);
  for (size_t i = 0; i < from && !sets.empty(); ++i) {
    const RowView row = guard.view(i);
    keep[i] = std::any_of(sets.begin(), sets.end(), [&](const Keys& k) {
      return k.guard->Conforms(row) &&
             k.inserted.count(k.at_guard.Gather(row, &buf).ToTuple()) > 0;
    });
  }
  return guard.CloneRows(keep);
}

}  // namespace

DeltaPlan PlanDelta(const sgf::SgfQuery& query, const Database& db,
                    const std::vector<std::string>& names,
                    const std::vector<uint64_t>& cached_epochs,
                    const std::vector<uint64_t>& current_epochs) {
  if (names.size() != cached_epochs.size() ||
      names.size() != current_epochs.size()) {
    return Fallback(DeltaFallback::kMissingRelation);
  }
  DeltaPlan plan;

  // 1. Moved: relations whose epoch moved by inserts alone, each with its
  // row count at the cached epoch (the watermark its delta starts at).
  std::map<std::string, size_t> moved;
  for (size_t i = 0; i < names.size(); ++i) {
    if (cached_epochs[i] == current_epochs[i]) continue;
    const std::string& name = names[i];
    if (!db.InsertOnlySince(name, cached_epochs[i])) {
      return Fallback(DeltaFallback::kDestructive);
    }
    const std::optional<size_t> rows = db.RowsAtEpoch(name, cached_epochs[i]);
    if (!rows.has_value()) return Fallback(DeltaFallback::kNoWatermark);
    Result<const Relation*> rel = db.Get(name);
    if (!rel.ok()) return Fallback(DeltaFallback::kMissingRelation);
    // Defensive: a watermark past the current size means the history lied.
    if (*rows > (*rel)->size()) return Fallback(DeltaFallback::kDestructive);
    moved.emplace(name, *rows);
    plan.delta_rows += (*rel)->size() - *rows;
  }

  // Everything whose contents may differ from the cached run's: the moved
  // relations and every output computed from one.
  std::set<std::string> changed;
  for (const auto& entry : moved) changed.insert(entry.first);
  Fixpoint(query, [&changed](const sgf::BsgfQuery& q) {
    for (const std::string& in : q.InputRelations()) {
      if (changed.count(in) > 0) return changed.insert(q.output()).second;
    }
    return false;
  });

  // 2. An insert into a relation read under NOT can remove output rows.
  for (const sgf::BsgfQuery& q : query.subqueries()) {
    std::vector<bool> negated(q.num_conditional_atoms(), false);
    MarkNegated(q.condition(), /*odd=*/false, &negated);
    for (size_t i = 0; i < negated.size(); ++i) {
      if (negated[i] &&
          changed.count(q.conditional_atoms()[i].relation()) > 0) {
        return Fallback(DeltaFallback::kNegatedDelta);
      }
    }
  }

  // 3. Whole: what the pass must read complete — every relation in
  // conditional position and, transitively, the guard of a whole output.
  std::set<std::string> whole;
  for (const sgf::BsgfQuery& q : query.subqueries()) {
    for (const sgf::Atom& a : q.conditional_atoms()) whole.insert(a.relation());
  }
  Fixpoint(query, [&whole](const sgf::BsgfQuery& q) {
    return whole.count(q.output()) > 0 &&
           whole.insert(q.guard().relation()).second;
  });
  // The pass computes a changed output, not its delta, so no guard slice
  // can be cut by one read in conditional position (nested programs).
  for (const std::string& name : whole) {
    if (query.ProducerOf(name) >= 0 && changed.count(name) > 0) {
      return Fallback(DeltaFallback::kNeedsWholeRelation);
    }
  }

  // 4. Base guards and the semi-joins their slices take. A guard needs a
  // slice when it moved or a subquery it guards reads a moved relation;
  // a whole one cannot be given one.
  std::map<std::string, std::vector<Probe>> probes;
  for (const sgf::BsgfQuery& q : query.subqueries()) {
    const std::string& g = q.guard().relation();
    if (query.ProducerOf(g) >= 0) continue;
    std::vector<Probe>& p = probes[g];
    bool needs_slice = moved.count(g) > 0;
    for (const sgf::Atom& a : q.conditional_atoms()) {
      if (moved.count(a.relation()) == 0) continue;
      p.push_back(Probe{&q.guard(), &a});
      needs_slice = true;
    }
    if (needs_slice && whole.count(g) > 0) {
      return Fallback(DeltaFallback::kNeedsWholeRelation);
    }
  }

  // 5–6. Every base guard that is not whole is shadowed by its slice, even
  // an empty one; an output is dirty when its guard is shadowed or dirty.
  for (const auto& entry : probes) {
    if (whole.count(entry.first) == 0) plan.dirty.insert(entry.first);
  }
  Fixpoint(query, [&plan](const sgf::BsgfQuery& q) {
    return plan.dirty.count(q.guard().relation()) > 0 &&
           plan.dirty.insert(q.output()).second;
  });
  // A subquery guarded by a dirty output sees only that output's new
  // rows, not the old ones a moved conditional may newly qualify.
  for (const sgf::BsgfQuery& q : query.subqueries()) {
    const std::string& g = q.guard().relation();
    if (query.ProducerOf(g) < 0 || plan.dirty.count(g) == 0) continue;
    for (const sgf::Atom& a : q.conditional_atoms()) {
      if (moved.count(a.relation()) > 0) {
        return Fallback(DeltaFallback::kNeedsWholeRelation);
      }
    }
  }

  // The structure admits a pass: cut the slices.
  plan.view = Database(&db);
  for (const auto& [g, p] : probes) {
    if (whole.count(g) > 0) continue;
    Result<const Relation*> rel = db.Get(g);
    if (!rel.ok()) return Fallback(DeltaFallback::kMissingRelation);
    const auto m = moved.find(g);
    const size_t from = m != moved.end() ? m->second : (*rel)->size();
    plan.view.Put(GuardSlice(**rel, from, p, db, moved));
  }
  plan.eligible = true;
  return plan;
}

}  // namespace gumbo::serve
