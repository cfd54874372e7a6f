// Shuffle message vocabulary of the gumbo operators, with wire sizes.
//
// Wire sizes follow a compact Hadoop serialization: 1 tag byte, 2 bytes
// for small ids, 8 bytes for a tuple id, and 10 bytes per attribute of a
// tuple payload (the paper's data density). The tuple-id optimization
// (paper §5.1, optimization (2)) replaces a guard-tuple payload by its
// 8-byte id; the EVAL job then re-reads the guard relation to resolve ids.
#ifndef GUMBO_OPS_MESSAGES_H_
#define GUMBO_OPS_MESSAGES_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/relation.h"
#include "mr/message.h"
#include "sgf/atom.h"

namespace gumbo::ops {

/// A projection pi_{atom;vars} resolved to fact positions once per job:
/// `positions[i]` is the first-occurrence position of vars[i] in the
/// atom, so projecting a fact is a word gather with no string work
/// (DESIGN.md §7). `identity` marks projections that reproduce the fact
/// verbatim (every position a distinct variable, listed in term order),
/// whose key fingerprint is the fact's stored one.
struct KeyProjection {
  std::vector<uint32_t> positions;
  bool identity = false;

  /// Resolves `vars`, each of which must occur in `atom`.
  static KeyProjection Of(const sgf::Atom& atom,
                          const std::vector<std::string>& vars) {
    KeyProjection p;
    p.positions.reserve(vars.size());
    p.identity = vars.size() == atom.arity();
    for (const std::string& v : vars) {
      const int pos = atom.PositionOf(v);
      assert(pos >= 0 && "projection variable not in atom");
      if (pos != static_cast<int>(p.positions.size())) p.identity = false;
      p.positions.push_back(static_cast<uint32_t>(pos));
    }
    return p;
  }

  /// Gathers fact's projected words into `*out` (reused across calls)
  /// and returns a view of them, valid until the next call.
  TupleView Gather(TupleView fact, std::vector<uint64_t>* out) const {
    out->clear();
    for (uint32_t pos : positions) out->push_back(fact.words()[pos]);
    return TupleView(out->data(), static_cast<uint32_t>(out->size()));
  }
};

/// The shuffle key of one fact under one key layout, plus its
/// fingerprint — THE invariant of the flat hot path: `hash` always
/// equals `TupleFingerprint(key.words(), key.size())` (== Tuple::Hash of
/// the key), whether it came from the stored row or a fresh projection.
/// Every mapper emission and every Bloom insert/probe must agree on it,
/// so the selection logic lives here, once. Projected keys are gathered
/// into a reused word buffer; no Tuple is built.
class ShuffleKey {
 public:
  TupleView key;
  uint64_t hash = 0;

  /// Selects fact projected on `proj`: on an identity projection the
  /// fact itself with its stored row fingerprint — the tuple is never
  /// hashed after load (DESIGN.md §7) — otherwise the gathered words.
  void Select(const KeyProjection& proj, RowView fact) {
    if (proj.identity) {
      key = fact;
      hash = fact.fingerprint();
      return;
    }
    Compose({}, proj, fact);
  }

  /// Key = `prefix` words followed by fact projected on `proj`.
  void Compose(std::initializer_list<uint64_t> prefix,
               const KeyProjection& proj, TupleView fact) {
    Begin(prefix, static_cast<uint32_t>(proj.positions.size()));
    for (uint32_t pos : proj.positions) Push(fact.words()[pos]);
    key = TupleView(words_.data(), static_cast<uint32_t>(words_.size()));
  }

  /// Key = `prefix` words followed by every word of `tail`.
  void Compose(std::initializer_list<uint64_t> prefix, TupleView tail) {
    Begin(prefix, tail.size());
    for (uint32_t i = 0; i < tail.size(); ++i) Push(tail.words()[i]);
    key = TupleView(words_.data(), static_cast<uint32_t>(words_.size()));
  }

 private:
  void Begin(std::initializer_list<uint64_t> prefix, uint32_t rest) {
    words_.clear();
    hash = FingerprintSeed(static_cast<uint32_t>(prefix.size()) + rest);
    for (uint64_t w : prefix) Push(w);
  }
  void Push(uint64_t w) {
    words_.push_back(w);
    hash = FingerprintMix(hash, w);
  }

  std::vector<uint64_t> words_;
};

/// Hash-only variant for Bloom-filter build passes: the figure a probe of
/// the same (projection, fact) via ShuffleKey::Select would use.
inline uint64_t ShuffleKeyHash(const KeyProjection& proj, RowView fact) {
  if (proj.identity) return fact.fingerprint();
  uint64_t h = FingerprintSeed(static_cast<uint32_t>(proj.positions.size()));
  for (uint32_t pos : proj.positions) h = FingerprintMix(h, fact.words()[pos]);
  return h;
}

/// The key function of a filter pass (mr::FilterPass): facts conforming
/// to `*atom` (every fact when `atom` is null) yield the ShuffleKeyHash
/// of `*proj`. `owner` is the compiled job state both point into; the
/// function keeps it alive.
inline std::function<bool(RowView, uint64_t*)> ConformingKeyHash(
    std::shared_ptr<const void> owner, const sgf::Atom* atom,
    const KeyProjection* proj) {
  return [owner = std::move(owner), atom, proj](RowView fact, uint64_t* h) {
    if (atom != nullptr && !atom->Conforms(fact)) return false;
    *h = ShuffleKeyHash(*proj, fact);
    return true;
  };
}

/// Message tags used by MSJ / EVAL / 1-ROUND / chain jobs.
enum MsgTag : uint32_t {
  /// Guard-side request: "does a conditional fact with my key exist?"
  /// aux = equation index; payload = guard tuple, its id, or an output
  /// projection (operator-dependent).
  kTagRequest = 1,
  /// Conditional-side assertion of existence. aux = condition id.
  kTagAssert = 2,
  /// EVAL: the guard fact itself (X0 membership). payload = guard tuple
  /// when ids are in use, empty otherwise (the key carries the tuple).
  kTagGuard = 3,
  /// EVAL: membership of the key in semi-join output X_aux.
  kTagX = 4,
};

inline constexpr double kTagBytes = 1.0;
inline constexpr double kSmallIdBytes = 2.0;
inline constexpr double kTupleIdBytes = 8.0;

/// Request message wire size (excluding key): tag + equation id + payload.
inline double RequestWireBytes(double payload_bytes) {
  return kTagBytes + kSmallIdBytes + payload_bytes;
}

/// Assert message wire size (excluding key): tag + condition id.
inline double AssertWireBytes() { return kTagBytes + kSmallIdBytes; }

}  // namespace gumbo::ops

#endif  // GUMBO_OPS_MESSAGES_H_
