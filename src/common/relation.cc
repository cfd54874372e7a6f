#include "common/relation.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/scheduler.h"

namespace gumbo {

namespace {

/// Lexicographic order of two flat rows of `arity` words — identical to
/// Tuple::operator< of the decoded rows (Value order is raw-word order).
inline bool RowLess(const uint64_t* a, const uint64_t* b, uint32_t arity) {
  for (uint32_t i = 0; i < arity; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

inline bool RowEquals(const uint64_t* a, const uint64_t* b, uint32_t arity) {
  return arity == 0 ||
         std::memcmp(a, b, arity * sizeof(uint64_t)) == 0;
}

/// Sorts `idx` by the comparator, in parallel when a scheduler is given:
/// power-of-two chunked sorts followed by pairwise in-place merge rounds,
/// each chunk/pair one morsel at the context's priority. The result is a
/// plain sorted permutation, so it is byte-identical for any scheduler
/// (including nullptr).
template <class T, class Less>
void SortIndices(std::vector<T>* idx, Scheduler* scheduler,
                 const SchedContext& ctx, Less less) {
  const size_t n = idx->size();
  constexpr size_t kParallelMin = 1 << 14;  // below this, one sort wins
  if (scheduler == nullptr || n < kParallelMin) {
    std::sort(idx->begin(), idx->end(), less);
    return;
  }
  size_t chunks = 1;
  while (chunks < 64 && n / (chunks * 2) >= (1 << 13)) chunks *= 2;
  if (chunks == 1) {
    std::sort(idx->begin(), idx->end(), less);
    return;
  }
  auto bound = [&](size_t c) { return n * c / chunks; };
  scheduler->ParallelFor(
      chunks,
      [&](size_t c) {
        std::sort(idx->begin() + bound(c), idx->begin() + bound(c + 1), less);
      },
      ctx);
  for (size_t width = 1; width < chunks; width *= 2) {
    const size_t pairs = chunks / (width * 2);
    scheduler->ParallelFor(
        pairs,
        [&](size_t p) {
          const size_t lo = bound(p * width * 2);
          const size_t mid = bound(p * width * 2 + width);
          const size_t hi = bound((p + 1) * width * 2);
          std::inplace_merge(idx->begin() + lo, idx->begin() + mid,
                             idx->begin() + hi, less);
        },
        ctx);
  }
}

}  // namespace

void Relation::Adopt(RelationBuilder&& b) {
  assert(b.arity_ == arity_ && "builder arity mismatch");
  if (!b.empty()) {
    if (empty()) {
      words_ = std::move(b.words_);
      fingerprints_ = std::move(b.fingerprints_);
    } else {
      words_.insert(words_.end(), b.words_.begin(), b.words_.end());
      fingerprints_.insert(fingerprints_.end(), b.fingerprints_.begin(),
                           b.fingerprints_.end());
    }
    ++append_version_;
  }
  b.words_.clear();
  b.fingerprints_.clear();
}

Relation Relation::CloneRows(const std::vector<bool>& keep) const {
  assert(keep.size() == size());
  Relation out(name_, arity_);
  for (size_t i = 0; i < keep.size(); ++i) {
    if (!keep[i]) continue;
    const auto row = words_.begin() + static_cast<std::ptrdiff_t>(i * arity_);
    out.words_.insert(out.words_.end(), row, row + arity_);
    out.fingerprints_.push_back(fingerprints_[i]);
  }
  out.bytes_per_tuple_ = bytes_per_tuple_;
  out.representation_scale_ = representation_scale_;
  return out;
}

void Relation::AppendFrom(const Relation& other) {
  assert(other.arity_ == arity_ && "AppendFrom arity mismatch");
  if (other.empty()) return;
  words_.insert(words_.end(), other.words_.begin(), other.words_.end());
  fingerprints_.insert(fingerprints_.end(), other.fingerprints_.begin(),
                       other.fingerprints_.end());
  ++append_version_;
}

void Relation::AppendRaw(const uint64_t* words, const uint64_t* fps,
                         size_t rows) {
  if (rows == 0) return;
  assert(fps[0] == TupleFingerprint(words, arity_) &&
         "AppendRaw fed a fingerprint that does not match its row");
  words_.insert(words_.end(), words, words + rows * arity_);
  fingerprints_.insert(fingerprints_.end(), fps, fps + rows);
  ++append_version_;
}

std::vector<Tuple> Relation::ToTuples() const {
  std::vector<Tuple> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back(TupleAt(i));
  return out;
}

void Relation::SortAndDedupe(Scheduler* scheduler, const SchedContext* ctx) {
  const size_t n = size();
  if (n <= 1) return;
  // Rows may move or vanish below: any held row index or delta watermark
  // into the old arena is void (Database::SettleLoans classifies this as
  // a destructive write).
  ++shape_version_;
  if (arity_ == 0) {
    // All zero-arity rows are equal: the set is a single empty tuple.
    fingerprints_.resize(1);
    return;
  }
  const uint64_t* words = words_.data();
  const uint32_t arity = arity_;
  // 24-byte sort refs with the first two key words inlined (the same
  // trick as the shuffle's RecordRef): for the paper's arities (<= 4)
  // nearly every comparison resolves without an indirection into the
  // arena, and the sort moves 24-byte refs instead of 48-byte Tuples.
  struct SortRef {
    uint64_t word0;
    uint64_t word1;  ///< 0 when arity == 1 (ties then mean equal rows)
    uint32_t idx;
  };
  std::vector<SortRef> refs(n);
  for (size_t i = 0; i < n; ++i) {
    refs[i].word0 = words[i * arity];
    refs[i].word1 = arity > 1 ? words[i * arity + 1] : 0;
    refs[i].idx = static_cast<uint32_t>(i);
  }
  auto less = [words, arity](const SortRef& a, const SortRef& b) {
    if (a.word0 != b.word0) return a.word0 < b.word0;
    if (a.word1 != b.word1) return a.word1 < b.word1;
    for (uint32_t i = 2; i < arity; ++i) {
      const uint64_t wa = words[static_cast<size_t>(a.idx) * arity + i];
      const uint64_t wb = words[static_cast<size_t>(b.idx) * arity + i];
      if (wa != wb) return wa < wb;
    }
    return false;
  };
  SortIndices(&refs, scheduler, ctx != nullptr ? *ctx : SchedContext{}, less);
  // Rebuild the arenas in sorted order, skipping duplicates (adjacent
  // after the sort; equal rows have equal words by definition). Stored
  // fingerprints are permuted along — a row is hashed once in its
  // lifetime, at add time.
  std::vector<uint64_t> new_words(n * arity);
  std::vector<uint64_t> new_fps(n);
  uint64_t* dst = new_words.data();
  size_t kept = 0;
  const uint64_t* prev = nullptr;
  for (size_t k = 0; k < n; ++k) {
    const uint64_t* row = words + static_cast<size_t>(refs[k].idx) * arity;
    if (prev != nullptr && prev[0] == refs[k].word0 &&
        RowEquals(prev, row, arity)) {
      continue;
    }
    std::memcpy(dst + kept * arity, row, arity * sizeof(uint64_t));
    new_fps[kept] = fingerprints_[refs[k].idx];
    ++kept;
    prev = row;
  }
  new_words.resize(kept * arity);
  new_fps.resize(kept);
  words_ = std::move(new_words);
  fingerprints_ = std::move(new_fps);
}

bool Relation::SetEquals(const Relation& other) const {
  if (arity_ != other.arity_) return false;
  if (arity_ == 0) return empty() == other.empty();
  // Fingerprint-bucketed canonicalization: order rows by (fingerprint,
  // words) — the word compare only runs when fingerprints collide — then
  // walk both deduped sequences in lockstep. No arena is copied.
  auto sorted_indices = [](const Relation& r) {
    std::vector<uint32_t> idx(r.size());
    std::iota(idx.begin(), idx.end(), 0u);
    const uint64_t* words = r.words_.data();
    const uint64_t* fps = r.fingerprints_.data();
    const uint32_t arity = r.arity_;
    std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
      if (fps[a] != fps[b]) return fps[a] < fps[b];
      return RowLess(words + static_cast<size_t>(a) * arity,
                     words + static_cast<size_t>(b) * arity, arity);
    });
    return idx;
  };
  std::vector<uint32_t> ia = sorted_indices(*this);
  std::vector<uint32_t> ib = sorted_indices(other);
  const uint32_t arity = arity_;
  auto row_of = [arity](const Relation& r, uint32_t i) {
    return r.words_.data() + static_cast<size_t>(i) * arity;
  };
  size_t a = 0;
  size_t b = 0;
  while (a < ia.size() && b < ib.size()) {
    const uint64_t* ra = row_of(*this, ia[a]);
    const uint64_t* rb = row_of(other, ib[b]);
    if (fingerprints_[ia[a]] != other.fingerprints_[ib[b]] ||
        !RowEquals(ra, rb, arity)) {
      return false;
    }
    // Skip duplicates of the matched row on both sides.
    do {
      ++a;
    } while (a < ia.size() && RowEquals(ra, row_of(*this, ia[a]), arity));
    do {
      ++b;
    } while (b < ib.size() && RowEquals(rb, row_of(other, ib[b]), arity));
  }
  return a == ia.size() && b == ib.size();
}

}  // namespace gumbo
