#include "sgf/query_gen.h"

#include <cstdio>
#include <cstdlib>

#include "common/dictionary.h"
#include "common/rng.h"

namespace gumbo::sgf {

namespace {

// The fixed relation pools. Guard G is 3-ary over (x, y, z); conditional
// base relations S/T/U/V are binary. Chain intermediates are binary
// (SELECT (x, y)), so a chain step's guard vars are {x, y}.
constexpr const char* kGuardVars[3] = {"x", "y", "z"};
constexpr const char* kCondRels[4] = {"S", "T", "U", "V"};

struct Builder {
  const QueryGenConfig* config;
  Xoshiro256 rng;
  GeneratedQuery out;
  /// Outputs produced so far (name -> arity), usable as later guards or
  /// conditional atoms.
  std::vector<std::pair<std::string, uint32_t>> produced;

  explicit Builder(const QueryGenConfig* c, uint64_t seed)
      : config(c), rng(SplitMix64::Mix(seed ^ 0x5f9e1ULL)) {}

  /// A term for a conditional atom: guard variable, fresh existential, or
  /// small constant.
  std::string Term(const std::vector<std::string>& guard_vars, size_t atom_i,
                   size_t pos) {
    switch (rng.Uniform(4)) {
      case 0:
      case 1:
        return guard_vars[rng.Uniform(guard_vars.size())];
      case 2:
        return "e" + std::to_string(atom_i) + "_" + std::to_string(pos);
      default:
        return std::to_string(rng.Uniform(config->max_constant));
    }
  }

  /// Renders one conditional atom over a binary relation. Only guard
  /// variables, per-atom existentials, and constants appear, so the
  /// guardedness restriction (shared variables between two conditional
  /// atoms must occur in the guard) holds by construction.
  std::string CondAtom(const std::vector<std::string>& guard_vars,
                       size_t atom_i) {
    std::string rel;
    uint32_t arity = 2;
    // Mixed shapes may probe an earlier output as a conditional atom.
    if (!produced.empty() && rng.Bernoulli(0.2)) {
      const auto& p = produced[rng.Uniform(produced.size())];
      rel = p.first;
      arity = p.second;
    } else {
      rel = kCondRels[rng.Uniform(4)];
      out.base_relations.emplace(rel, 2);
    }
    // First term is a guard variable (guarantees a nonempty join key so
    // the atom is a genuine semi-join, not a cross-product filter).
    std::string atom = rel + "(" + guard_vars[rng.Uniform(guard_vars.size())];
    for (uint32_t pos = 1; pos < arity; ++pos) {
      atom += ", " + Term(guard_vars, atom_i, pos);
    }
    return atom + ")";
  }

  /// Random right-assoc fold of `leaves` into one condition string, with
  /// per-shape NOT/AND biases.
  std::string Fold(std::vector<std::string> leaves, double p_not,
                   double p_and) {
    for (std::string& leaf : leaves) {
      if (rng.Bernoulli(p_not)) leaf = "NOT " + leaf;
    }
    while (leaves.size() > 1) {
      const size_t i = rng.Uniform(leaves.size() - 1);
      leaves[i] = "(" + leaves[i] +
                  (rng.Bernoulli(p_and) ? " AND " : " OR ") + leaves[i + 1] +
                  ")";
      leaves.erase(leaves.begin() + static_cast<long>(i) + 1);
    }
    return leaves[0];
  }

  std::string SelectList(const std::vector<std::string>& vars) {
    if (vars.size() == 1) return vars[0];
    std::string s = "(";
    for (size_t i = 0; i < vars.size(); ++i) {
      if (i > 0) s += ", ";
      s += vars[i];
    }
    return s + ")";
  }

  /// Appends one subquery statement: output := SELECT sel FROM
  /// guard(guard_vars) WHERE <natoms atoms folded with p_not/p_and>.
  void AddSubquery(const std::string& output, const std::string& guard_rel,
                   const std::vector<std::string>& guard_vars,
                   const std::vector<std::string>& select_vars, size_t natoms,
                   double p_not, double p_and) {
    std::vector<std::string> leaves;
    leaves.reserve(natoms);
    for (size_t i = 0; i < natoms; ++i) {
      leaves.push_back(CondAtom(guard_vars, out.statements.size() * 97 + i));
    }
    std::string stmt = output + " := SELECT " + SelectList(select_vars) +
                       " FROM " + guard_rel + "(";
    for (size_t i = 0; i < guard_vars.size(); ++i) {
      if (i > 0) stmt += ", ";
      stmt += guard_vars[i];
    }
    stmt += ")";
    if (!leaves.empty()) stmt += " WHERE " + Fold(std::move(leaves), p_not, p_and);
    stmt += ";";
    out.statements.push_back(std::move(stmt));
    produced.emplace_back(output,
                          static_cast<uint32_t>(select_vars.size()));
  }

  /// Random non-empty subset of `vars`, preserving order.
  std::vector<std::string> RandomSelect(const std::vector<std::string>& vars) {
    std::vector<std::string> sel;
    for (const std::string& v : vars) {
      if (rng.Bernoulli(0.5)) sel.push_back(v);
    }
    if (sel.empty()) sel.push_back(vars[rng.Uniform(vars.size())]);
    return sel;
  }
};

}  // namespace

const char* QueryShapeName(QueryShape shape) {
  switch (shape) {
    case QueryShape::kWideFanout:
      return "wide-fanout";
    case QueryShape::kDeepChain:
      return "deep-chain";
    case QueryShape::kAntiJoinHeavy:
      return "anti-join-heavy";
    case QueryShape::kMixed:
      return "mixed";
  }
  return "?";
}

std::string GeneratedQuery::Text() const {
  std::string text;
  for (const std::string& s : statements) {
    if (!text.empty()) text += "\n";
    text += s;
  }
  return text;
}

GeneratedQuery QueryGenerator::Generate(uint64_t seed) const {
  Builder b(&config_, seed);
  b.out.shape = config_.shape;
  const std::vector<std::string> gvars = {kGuardVars[0], kGuardVars[1],
                                          kGuardVars[2]};
  b.out.base_relations.emplace("G", 3);

  switch (config_.shape) {
    case QueryShape::kWideFanout: {
      // One guard, many conditionals: the 1-ROUND-vs-multi-round
      // discrimination gets harder as fan-out grows (more X_i
      // intermediates, more upper-bound estimation error).
      const size_t natoms = config_.fanout + b.rng.Uniform(3);
      b.AddSubquery("Z", "G", gvars, b.RandomSelect(gvars), natoms,
                    /*p_not=*/0.25, /*p_and=*/0.6);
      break;
    }
    case QueryShape::kDeepChain: {
      // Z1 over G selects (x, y); each further step guards on the
      // previous output — the regime where catalog upper bounds compound
      // round over round.
      const std::vector<std::string> chain_vars = {kGuardVars[0],
                                                   kGuardVars[1]};
      b.AddSubquery("Z1", "G", gvars, chain_vars, 1 + b.rng.Uniform(3),
                    /*p_not=*/0.25, /*p_and=*/0.6);
      for (size_t d = 2; d <= config_.chain_depth; ++d) {
        b.AddSubquery("Z" + std::to_string(d), "Z" + std::to_string(d - 1),
                      chain_vars, chain_vars, 1 + b.rng.Uniform(3),
                      /*p_not=*/0.25, /*p_and=*/0.6);
      }
      break;
    }
    case QueryShape::kAntiJoinHeavy: {
      // Mostly negated atoms under AND: anti-join requests cannot be
      // Bloom-filtered (only asserts are), so this shape stresses the
      // filter accounting as well as NOT-semantics.
      const size_t natoms = 3 + b.rng.Uniform(4);
      b.AddSubquery("Z", "G", gvars, b.RandomSelect(gvars), natoms,
                    /*p_not=*/0.8, /*p_and=*/0.85);
      break;
    }
    case QueryShape::kMixed: {
      const size_t subqueries = 1 + b.rng.Uniform(3);
      std::vector<std::string> prev_vars = gvars;
      std::string prev_out;
      for (size_t s = 1; s <= subqueries; ++s) {
        const std::string output = "Z" + std::to_string(s);
        std::string guard = "G";
        std::vector<std::string> guard_vars = gvars;
        if (!prev_out.empty() && b.rng.Bernoulli(0.5)) {
          guard = prev_out;
          guard_vars = prev_vars;
        }
        std::vector<std::string> sel = b.RandomSelect(guard_vars);
        b.AddSubquery(output, guard, guard_vars, sel, 1 + b.rng.Uniform(4),
                      /*p_not=*/0.35, /*p_and=*/0.55);
        prev_out = output;
        prev_vars = sel;
      }
      break;
    }
  }

  Result<SgfQuery> parsed =
      ParseSgf(b.out.Text(), &Dictionary::Global());
  if (!parsed.ok()) {
    // A generated query failing to parse is a generator bug, not an input
    // problem — fail loudly with the repro.
    std::fprintf(stderr,
                 "QueryGenerator produced an unparseable query (seed %llu):\n"
                 "%s\n%s\n",
                 static_cast<unsigned long long>(seed), b.out.Text().c_str(),
                 parsed.status().ToString().c_str());
    std::abort();
  }
  b.out.query = std::move(*parsed);
  return b.out;
}

}  // namespace gumbo::sgf
