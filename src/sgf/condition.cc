#include "sgf/condition.h"

namespace gumbo::sgf {

ConditionPtr Condition::MakeAtom(size_t atom_index) {
  auto c = ConditionPtr(new Condition());
  c->kind_ = Kind::kAtom;
  c->atom_index_ = atom_index;
  return c;
}

ConditionPtr Condition::MakeAnd(ConditionPtr lhs, ConditionPtr rhs) {
  auto c = ConditionPtr(new Condition());
  c->kind_ = Kind::kAnd;
  c->lhs_ = std::move(lhs);
  c->rhs_ = std::move(rhs);
  return c;
}

ConditionPtr Condition::MakeOr(ConditionPtr lhs, ConditionPtr rhs) {
  auto c = ConditionPtr(new Condition());
  c->kind_ = Kind::kOr;
  c->lhs_ = std::move(lhs);
  c->rhs_ = std::move(rhs);
  return c;
}

ConditionPtr Condition::MakeNot(ConditionPtr child) {
  auto c = ConditionPtr(new Condition());
  c->kind_ = Kind::kNot;
  c->lhs_ = std::move(child);
  return c;
}

ConditionPtr Condition::Clone() const {
  switch (kind_) {
    case Kind::kAtom:
      return MakeAtom(atom_index_);
    case Kind::kAnd:
      return MakeAnd(lhs_->Clone(), rhs_->Clone());
    case Kind::kOr:
      return MakeOr(lhs_->Clone(), rhs_->Clone());
    case Kind::kNot:
      return MakeNot(lhs_->Clone());
  }
  return nullptr;
}

bool Condition::Evaluate(
    const std::function<bool(size_t)>& atom_truth) const {
  switch (kind_) {
    case Kind::kAtom:
      return atom_truth(atom_index_);
    case Kind::kAnd:
      return lhs_->Evaluate(atom_truth) && rhs_->Evaluate(atom_truth);
    case Kind::kOr:
      return lhs_->Evaluate(atom_truth) || rhs_->Evaluate(atom_truth);
    case Kind::kNot:
      return !lhs_->Evaluate(atom_truth);
  }
  return false;
}

void Condition::CollectAtomIndices(std::vector<size_t>* out) const {
  switch (kind_) {
    case Kind::kAtom:
      out->push_back(atom_index_);
      return;
    case Kind::kAnd:
    case Kind::kOr:
      lhs_->CollectAtomIndices(out);
      rhs_->CollectAtomIndices(out);
      return;
    case Kind::kNot:
      lhs_->CollectAtomIndices(out);
      return;
  }
}

bool Condition::IsDisjunctionOfLiterals() const {
  switch (kind_) {
    case Kind::kAtom:
      return true;
    case Kind::kNot:
      return lhs_->kind_ == Kind::kAtom;
    case Kind::kOr:
      return lhs_->IsDisjunctionOfLiterals() &&
             rhs_->IsDisjunctionOfLiterals();
    case Kind::kAnd:
      return false;
  }
  return false;
}

namespace {

// DNF of a subtree under `negated`, as clauses of signed (index+1) ints.
Status DnfRec(const Condition* c, bool negated, size_t max_clauses,
              std::vector<std::vector<int>>* out) {
  switch (c->kind()) {
    case Condition::Kind::kAtom: {
      int lit = static_cast<int>(c->atom_index()) + 1;
      out->push_back({negated ? -lit : lit});
      return Status::Ok();
    }
    case Condition::Kind::kNot:
      return DnfRec(c->child(), !negated, max_clauses, out);
    case Condition::Kind::kOr:
    case Condition::Kind::kAnd: {
      // OR under no negation (or AND under negation) = union of clauses;
      // AND under no negation (or OR under negation) = cross product.
      bool is_union = (c->kind() == Condition::Kind::kOr) != negated;
      std::vector<std::vector<int>> left, right;
      GUMBO_RETURN_IF_ERROR(DnfRec(c->lhs(), negated, max_clauses, &left));
      GUMBO_RETURN_IF_ERROR(DnfRec(c->rhs(), negated, max_clauses, &right));
      if (is_union) {
        for (auto& cl : left) out->push_back(std::move(cl));
        for (auto& cl : right) out->push_back(std::move(cl));
      } else {
        if (left.size() * right.size() > max_clauses) {
          return Status::OutOfRange("DNF clause blowup beyond limit");
        }
        for (const auto& a : left) {
          for (const auto& b : right) {
            std::vector<int> merged = a;
            merged.insert(merged.end(), b.begin(), b.end());
            out->push_back(std::move(merged));
          }
        }
      }
      if (out->size() > max_clauses) {
        return Status::OutOfRange("DNF clause blowup beyond limit");
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable condition kind");
}

}  // namespace

Status Condition::ToDnf(std::vector<std::vector<int>>* clauses,
                        size_t max_clauses) const {
  clauses->clear();
  return DnfRec(this, /*negated=*/false, max_clauses, clauses);
}

std::string Condition::ToString(
    const std::function<std::string(size_t)>& atom_name) const {
  switch (kind_) {
    case Kind::kAtom:
      return atom_name(atom_index_);
    case Kind::kAnd:
      return "(" + lhs_->ToString(atom_name) + " AND " +
             rhs_->ToString(atom_name) + ")";
    case Kind::kOr:
      return "(" + lhs_->ToString(atom_name) + " OR " +
             rhs_->ToString(atom_name) + ")";
    case Kind::kNot:
      return "NOT " + lhs_->ToString(atom_name);
  }
  return "?";
}

}  // namespace gumbo::sgf
