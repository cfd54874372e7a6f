// Tuple: an ordered sequence of Values with small-size-optimized storage.
//
// Relations in the paper's experiments have arity at most four, so tuples
// store up to four values inline and spill to the heap only beyond that
// (e.g. composite shuffle keys). Value semantics throughout.
#ifndef GUMBO_COMMON_TUPLE_H_
#define GUMBO_COMMON_TUPLE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/value.h"

namespace gumbo {

class Dictionary;

/// SplitMix64-style mixing step shared by Tuple::Hash and the shuffle's
/// flat-key fingerprints (mr/map_output.h). Folding `word` into the
/// running state `h` here — instead of each caller rolling its own — is
/// what guarantees fingerprint == Tuple::Hash() bit for bit, which the
/// shuffle relies on for byte-identical partitioning.
inline uint64_t FingerprintMix(uint64_t h, uint64_t word) {
  uint64_t z = word + h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The running state a fingerprint of `arity` words starts from; fold
/// the words in with FingerprintMix to fingerprint a key word by word.
inline uint64_t FingerprintSeed(uint32_t arity) {
  return 0x9e3779b97f4a7c15ULL ^ arity;
}

/// 64-bit fingerprint of a flat-encoded tuple (`arity` raw Value words).
/// Equal to Tuple::Hash() of the decoded tuple by construction.
inline uint64_t TupleFingerprint(const uint64_t* words, uint32_t arity) {
  uint64_t h = FingerprintSeed(arity);
  for (uint32_t i = 0; i < arity; ++i) h = FingerprintMix(h, words[i]);
  return h;
}

/// A fixed-arity row of Values. Cheap to copy at small arity; ordered and
/// hashable so it can serve as a shuffle key.
class Tuple {
 public:
  static constexpr uint32_t kInlineCapacity = 4;

  Tuple() : size_(0), capacity_(kInlineCapacity) {}

  Tuple(std::initializer_list<Value> vals) : Tuple() {
    for (const Value& v : vals) PushBack(v);
  }

  /// Convenience: builds a tuple of integer values.
  static Tuple Ints(std::initializer_list<int64_t> vals) {
    Tuple t;
    for (int64_t v : vals) t.PushBack(Value::Int(v));
    return t;
  }

  Tuple(const Tuple& o) : Tuple() { CopyFrom(o); }
  Tuple(Tuple&& o) noexcept : Tuple() { MoveFrom(std::move(o)); }
  Tuple& operator=(const Tuple& o) {
    if (this != &o) {
      Clear();
      CopyFrom(o);
    }
    return *this;
  }
  Tuple& operator=(Tuple&& o) noexcept {
    if (this != &o) {
      Clear();
      MoveFrom(std::move(o));
    }
    return *this;
  }
  ~Tuple() { Clear(); }

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Value& operator[](uint32_t i) const {
    assert(i < size_);
    return data()[i];
  }
  Value& operator[](uint32_t i) {
    assert(i < size_);
    return data()[i];
  }

  const Value* begin() const { return data(); }
  const Value* end() const { return data() + size_; }

  void PushBack(Value v) {
    if (size_ == capacity_) Grow();
    data()[size_++] = v;
  }

  void Clear() {
    if (!IsInline()) delete[] heap_;
    size_ = 0;
    capacity_ = kInlineCapacity;
  }

  bool operator==(const Tuple& o) const {
    if (size_ != o.size_) return false;
    const Value* a = data();
    const Value* b = o.data();
    for (uint32_t i = 0; i < size_; ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
  bool operator!=(const Tuple& o) const { return !(*this == o); }

  /// Lexicographic order (by raw value), used for deterministic sorting.
  bool operator<(const Tuple& o) const {
    uint32_t n = std::min(size_, o.size_);
    for (uint32_t i = 0; i < n; ++i) {
      if (data()[i] < o.data()[i]) return true;
      if (o.data()[i] < data()[i]) return false;
    }
    return size_ < o.size_;
  }

  uint64_t Hash() const {
    uint64_t h = FingerprintSeed(size_);
    for (uint32_t i = 0; i < size_; ++i) h = FingerprintMix(h, data()[i].raw());
    return h;
  }

  // ---- Flat encoding (the shuffle's wire form, DESIGN.md §3) ----
  // A tuple's flat form is its size() raw Value words; the arity travels
  // out of band (in the shuffle's key/group headers).

  /// Appends the tuple's raw words to `out`; returns the starting word
  /// offset within `out`.
  size_t EncodeTo(std::vector<uint64_t>* out) const {
    size_t pos = out->size();
    for (uint32_t i = 0; i < size_; ++i) out->push_back(data()[i].raw());
    return pos;
  }

  /// Rebuilds a tuple from `arity` flat words. Round-trips with EncodeTo
  /// for every Value kind (ints incl. negatives, interned strings) and
  /// every arity, including heap-spilled tuples beyond kInlineCapacity.
  static Tuple DecodeFrom(const uint64_t* words, uint32_t arity) {
    Tuple t;
    for (uint32_t i = 0; i < arity; ++i) t.PushBack(Value::FromRaw(words[i]));
    return t;
  }

  /// Renders as "(v1, v2, ...)" resolving strings through `dict` if given.
  std::string ToString(const Dictionary* dict = nullptr) const;

  /// The tuple's values as raw 64-bit words, without copying. A Value is
  /// exactly its raw word (static_assert below), so the value array IS
  /// the flat encoding — this is what makes Tuple → TupleView conversion
  /// free.
  const uint64_t* raw_words() const {
    return reinterpret_cast<const uint64_t*>(data());
  }

 private:
  bool IsInline() const { return capacity_ == kInlineCapacity; }
  Value* data() { return IsInline() ? inline_ : heap_; }
  const Value* data() const { return IsInline() ? inline_ : heap_; }

  void Grow() {
    uint32_t new_cap = capacity_ * 2;
    Value* heap = new Value[new_cap];
    std::copy(data(), data() + size_, heap);
    if (!IsInline()) delete[] heap_;
    heap_ = heap;
    capacity_ = new_cap;
  }

  void CopyFrom(const Tuple& o) {
    for (uint32_t i = 0; i < o.size_; ++i) PushBack(o.data()[i]);
  }

  void MoveFrom(Tuple&& o) {
    if (o.IsInline()) {
      std::copy(o.inline_, o.inline_ + o.size_, inline_);
      size_ = o.size_;
    } else {
      heap_ = o.heap_;
      size_ = o.size_;
      capacity_ = o.capacity_;
      o.capacity_ = kInlineCapacity;
    }
    o.size_ = 0;
  }

  union {
    Value inline_[kInlineCapacity];
    Value* heap_;
  };
  uint32_t size_;
  uint32_t capacity_;
};

static_assert(sizeof(Value) == sizeof(uint64_t),
              "Value must stay a bare word: flat storage and raw_words() "
              "reinterpret Value arrays as uint64_t arrays");

/// A borrowed, zero-copy view of one flat-encoded tuple: a span of raw
/// Value words plus an arity (DESIGN.md §7). This is the scan currency of
/// the flat relation storage — map tasks, filter builders, and reducers
/// all read TupleViews; a heap Tuple is materialized only when a caller
/// genuinely needs an owning copy (ToTuple).
///
/// Comparison and hashing match Tuple exactly: Value order is raw-word
/// order, so lexicographic word compare == Tuple::operator<, and
/// Fingerprint() == Tuple::Hash() of the decoded tuple.
class TupleView {
 public:
  constexpr TupleView() : words_(nullptr), arity_(0) {}
  constexpr TupleView(const uint64_t* words, uint32_t arity)
      : words_(words), arity_(arity) {}
  /// Implicit: a Tuple's value array already is its flat encoding. The
  /// view borrows — it is valid only while the tuple lives.
  TupleView(const Tuple& t) : words_(t.raw_words()), arity_(t.size()) {}

  uint32_t size() const { return arity_; }
  bool empty() const { return arity_ == 0; }
  const uint64_t* words() const { return words_; }

  Value operator[](uint32_t i) const {
    assert(i < arity_);
    return Value::FromRaw(words_[i]);
  }

  /// Materializes an owning Tuple (the only copying operation here).
  Tuple ToTuple() const { return Tuple::DecodeFrom(words_, arity_); }

  /// Equal to Tuple::Hash() of the decoded tuple.
  uint64_t Fingerprint() const { return TupleFingerprint(words_, arity_); }

  bool operator==(TupleView o) const {
    if (arity_ != o.arity_) return false;
    for (uint32_t i = 0; i < arity_; ++i) {
      if (words_[i] != o.words_[i]) return false;
    }
    return true;
  }
  bool operator!=(TupleView o) const { return !(*this == o); }

  /// Lexicographic raw-word order — identical to Tuple::operator< because
  /// Value order is raw order.
  bool operator<(TupleView o) const {
    const uint32_t n = arity_ < o.arity_ ? arity_ : o.arity_;
    for (uint32_t i = 0; i < n; ++i) {
      if (words_[i] != o.words_[i]) return words_[i] < o.words_[i];
    }
    return arity_ < o.arity_;
  }

  std::string ToString(const Dictionary* dict = nullptr) const;

 private:
  const uint64_t* words_;
  uint32_t arity_;
};

}  // namespace gumbo

namespace std {
template <>
struct hash<gumbo::Tuple> {
  size_t operator()(const gumbo::Tuple& t) const noexcept {
    return static_cast<size_t>(t.Hash());
  }
};
}  // namespace std

#endif  // GUMBO_COMMON_TUPLE_H_
