#include "sgf/atom.h"

#include <algorithm>

namespace gumbo::sgf {

std::vector<std::string> Atom::Variables() const {
  std::vector<std::string> out;
  for (const Term& t : terms_) {
    if (t.is_variable() &&
        std::find(out.begin(), out.end(), t.var()) == out.end()) {
      out.push_back(t.var());
    }
  }
  return out;
}

bool Atom::UsesVariable(const std::string& var) const {
  for (const Term& t : terms_) {
    if (t.is_variable() && t.var() == var) return true;
  }
  return false;
}

void Atom::CompileConformance() {
  for (uint32_t i = 0; i < terms_.size(); ++i) {
    const Term& t = terms_[i];
    if (t.is_constant()) {
      constants_.emplace_back(i, t.value().raw());
      continue;
    }
    // A later occurrence of a variable must equal its first occurrence.
    const int first = PositionOf(t.var());
    if (first >= 0 && static_cast<uint32_t>(first) < i) {
      repeats_.emplace_back(i, static_cast<uint32_t>(first));
    }
  }
}

Tuple Atom::Project(TupleView fact,
                    const std::vector<std::string>& vars) const {
  Tuple out;
  for (const std::string& v : vars) {
    int pos = PositionOf(v);
    assert(pos >= 0 && "projection variable not in atom");
    out.PushBack(fact[static_cast<uint32_t>(pos)]);
  }
  return out;
}

int Atom::PositionOf(const std::string& var) const {
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (terms_[i].is_variable() && terms_[i].var() == var) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<std::string> Atom::SharedVariables(const Atom& guard) const {
  std::vector<std::string> out;
  for (const std::string& v : Variables()) {
    if (guard.UsesVariable(v)) out.push_back(v);
  }
  return out;
}

std::string Atom::ConditionSignature(
    const std::vector<std::string>& key_vars) const {
  std::string sig = relation_ + "/" + std::to_string(terms_.size()) + ":";
  // First-occurrence indices for existential (non-key) variables.
  std::vector<std::string> existentials;
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) sig += ",";
    const Term& t = terms_[i];
    if (t.is_constant()) {
      sig += "C" + std::to_string(t.value().raw());
      continue;
    }
    auto key_it = std::find(key_vars.begin(), key_vars.end(), t.var());
    if (key_it != key_vars.end()) {
      sig += "K" + std::to_string(key_it - key_vars.begin());
      continue;
    }
    auto ex_it = std::find(existentials.begin(), existentials.end(), t.var());
    if (ex_it == existentials.end()) {
      existentials.push_back(t.var());
      ex_it = existentials.end() - 1;
    }
    sig += "E" + std::to_string(ex_it - existentials.begin());
  }
  return sig;
}

std::string Atom::ToString(const Dictionary* dict) const {
  std::string out = relation_ + "(";
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) out += ", ";
    out += terms_[i].ToString(dict);
  }
  out += ")";
  return out;
}

}  // namespace gumbo::sgf
