#include "serve/signature.h"

#include <algorithm>
#include <map>

#include "common/str_util.h"
#include "ops/options.h"

namespace gumbo::serve {

namespace {

// Maps variable names to dense first-occurrence indices. Variables are
// scoped per BSGF subquery (paper §3.1), so each subquery gets a fresh
// canonicalizer.
class VarCanon {
 public:
  void Append(const std::string& var, std::string* out) {
    auto [it, inserted] = ids_.emplace(var, ids_.size());
    (void)inserted;
    *out += 'v';
    *out += std::to_string(it->second);
  }

 private:
  std::map<std::string, size_t> ids_;
};

void AppendTerm(const sgf::Term& t, VarCanon* vars, std::string* out) {
  if (t.is_variable()) {
    vars->Append(t.var(), out);
    return;
  }
  // Constants serialize by raw payload: ints by value, strings by interned
  // id (stable for the lifetime of the process dictionary).
  const Value v = t.value();
  if (v.is_int()) {
    *out += '#';
    *out += std::to_string(v.AsInt());
  } else {
    *out += '$';
    *out += std::to_string(v.string_id());
  }
}

void AppendAtom(const sgf::Atom& atom, VarCanon* vars, std::string* out) {
  *out += atom.relation();
  *out += '(';
  const auto& terms = atom.terms();
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) *out += ',';
    AppendTerm(terms[i], vars, out);
  }
  *out += ')';
}

}  // namespace

std::string CanonicalQuerySignature(const sgf::SgfQuery& query) {
  std::string out;
  for (const sgf::BsgfQuery& q : query.subqueries()) {
    VarCanon vars;
    out += q.output();
    out += "<-sel(";
    const auto& sel = q.select_vars();
    for (size_t i = 0; i < sel.size(); ++i) {
      if (i > 0) out += ',';
      vars.Append(sel[i], &out);
    }
    out += ")from:";
    AppendAtom(q.guard(), &vars, &out);
    for (const sgf::Atom& atom : q.conditional_atoms()) {
      out += ";c:";
      AppendAtom(atom, &vars, &out);
    }
    if (q.has_condition()) {
      out += ";where:";
      out += q.condition()->ToString(
          [](size_t i) { return "a" + std::to_string(i); });
    }
    out += '\n';
  }
  return out;
}

std::string PlannerFingerprint(const plan::PlannerOptions& options) {
  // The planner applies the environment ablation overrides to every plan
  // it builds (DESIGN.md §5.4); the fingerprint must see the same
  // effective options or a cached plan could outlive a knob flip.
  const ops::OpOptions op = ops::ApplyEnvOverrides(options.op);
  return StrFormat("%s|tid=%d|pack=%d|bloom=%d|fpp=%g|cv=%d|ss=%zu|on=%zu",
                   plan::StrategyName(options.strategy), op.tuple_id_refs ? 1 : 0,
                   op.pack_messages ? 1 : 0, op.bloom_filters ? 1 : 0,
                   op.filter_fpp,
                   static_cast<int>(options.cost_variant), options.sample_size,
                   options.opt_max_n);
}

std::string PlanCacheKey(const sgf::SgfQuery& query,
                         const plan::PlannerOptions& options) {
  return PlannerFingerprint(options) + "\n" + CanonicalQuerySignature(query);
}

std::vector<std::string> EpochNamesOf(const sgf::SgfQuery& query) {
  // Sorted and deduplicated, so the vector is independent of mention
  // order. Produced names are included too: they normally do not exist in
  // the base database (epoch 0), but if a caller pre-populated one, its
  // mutations must invalidate just like a base relation's.
  std::vector<std::string> names = query.BaseRelations();
  for (const std::string& n : query.ProducedNames()) names.push_back(n);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::vector<uint64_t> EpochsOf(const std::vector<std::string>& names,
                               const Database& db) {
  std::vector<uint64_t> epochs;
  epochs.reserve(names.size());
  for (const std::string& n : names) epochs.push_back(db.StatsEpochOf(n));
  return epochs;
}

}  // namespace gumbo::serve
