#include "sgf/sgf.h"

#include <algorithm>
#include <set>

namespace gumbo::sgf {

void DependencyGraph::AddEdge(size_t from, size_t to) {
  if (HasEdge(from, to)) return;
  succ_[from].push_back(to);
  pred_[to].push_back(from);
}

bool DependencyGraph::HasEdge(size_t from, size_t to) const {
  return std::find(succ_[from].begin(), succ_[from].end(), to) !=
         succ_[from].end();
}

bool DependencyGraph::IsAcyclic() const {
  // Kahn's algorithm.
  std::vector<size_t> indeg(size(), 0);
  for (size_t i = 0; i < size(); ++i) indeg[i] = pred_[i].size();
  std::vector<size_t> ready;
  for (size_t i = 0; i < size(); ++i) {
    if (indeg[i] == 0) ready.push_back(i);
  }
  size_t seen = 0;
  while (!ready.empty()) {
    size_t u = ready.back();
    ready.pop_back();
    ++seen;
    for (size_t v : succ_[u]) {
      if (--indeg[v] == 0) ready.push_back(v);
    }
  }
  return seen == size();
}

int SgfQuery::ProducerOf(const std::string& name) const {
  for (size_t i = 0; i < subqueries_.size(); ++i) {
    if (subqueries_[i].output() == name) return static_cast<int>(i);
  }
  return -1;
}

DependencyGraph SgfQuery::BuildDependencyGraph() const {
  DependencyGraph g(subqueries_.size());
  for (size_t j = 0; j < subqueries_.size(); ++j) {
    for (const std::string& rel : subqueries_[j].InputRelations()) {
      int i = ProducerOf(rel);
      if (i >= 0 && static_cast<size_t>(i) != j) {
        g.AddEdge(static_cast<size_t>(i), j);
      }
    }
  }
  return g;
}

std::vector<std::string> SgfQuery::ProducedNames() const {
  std::vector<std::string> out;
  out.reserve(subqueries_.size());
  for (const auto& q : subqueries_) out.push_back(q.output());
  return out;
}

std::vector<std::string> SgfQuery::BaseRelations() const {
  std::set<std::string> produced;
  for (const auto& q : subqueries_) produced.insert(q.output());
  std::vector<std::string> out;
  for (const auto& q : subqueries_) {
    for (const std::string& rel : q.InputRelations()) {
      if (produced.count(rel) == 0 &&
          std::find(out.begin(), out.end(), rel) == out.end()) {
        out.push_back(rel);
      }
    }
  }
  return out;
}

std::string SgfQuery::ToString(const Dictionary* dict) const {
  std::string out;
  for (const auto& q : subqueries_) {
    out += q.ToString(dict);
    out += ";\n";
  }
  return out;
}

}  // namespace gumbo::sgf
