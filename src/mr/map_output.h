// MapOutputBuffer: the flat map-side emission buffer of the shuffle hot
// path (DESIGN.md §3). Operators write key/message pairs straight into
// it — there is no intermediate vector of (Tuple, Message) pairs.
//
// Layout: keys are flat-encoded (8 bytes per Value, common/tuple.h) into
// one contiguous word arena, deduplicated on the fly through an
// open-addressing table over 64-bit fingerprints (full-key memcmp only
// when fingerprints collide); messages are POD structs appended in
// emission order to one flat array, linked into per-key chains so the
// shuffle can later lay each key group out contiguously in a single
// pass. Small message payloads live inline in the Message struct; larger
// ones spill to a shared payload arena.
//
// One MapOutputBuffer belongs to one map task; no synchronization.
#ifndef GUMBO_MR_MAP_OUTPUT_H_
#define GUMBO_MR_MAP_OUTPUT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/tuple.h"
#include "mr/message.h"

namespace gumbo::mr {

class MapOutputBuffer {
 public:
  /// Fingerprint of a flat-encoded key. Injectable so tests can force
  /// collisions (grouping must stay exact via the full-key compare);
  /// production code always uses TupleFingerprint == Tuple::Hash.
  using FingerprintFn = uint64_t (*)(const uint64_t* words, uint32_t arity);

  MapOutputBuffer() : MapOutputBuffer(&TupleFingerprint) {}
  explicit MapOutputBuffer(FingerprintFn fingerprint);

  // ---- Emission (the operator-facing hot path) ----
  //
  // Keys and payloads arrive as zero-copy TupleViews (owning Tuples
  // convert implicitly): a key is a span of flat words wherever it lives
  // — a stored relation row, a stack-built projection, or a shuffle
  // payload — and its words are copied at most once, into the key arena
  // when first seen.

  /// Emits a message without payload for `key`.
  void Emit(TupleView key, uint32_t tag, uint32_t aux, double wire_bytes) {
    EmitImpl(key, /*prehashed=*/false, 0, tag, aux, TupleView(), wire_bytes);
  }
  /// Emits a message carrying `payload` for `key`.
  void Emit(TupleView key, uint32_t tag, uint32_t aux, TupleView payload,
            double wire_bytes) {
    EmitImpl(key, /*prehashed=*/false, 0, tag, aux, payload, wire_bytes);
  }
  /// Emit variants reusing a fingerprint the caller already computed — a
  /// Bloom-probe hash, or the relation's stored row fingerprint when the
  /// key is the fact itself (identity projection, DESIGN.md §7).
  /// `fingerprint` MUST equal key.Fingerprint(); anything else breaks
  /// grouping and partitioning.
  void EmitPrehashed(TupleView key, uint64_t fingerprint, uint32_t tag,
                     uint32_t aux, double wire_bytes) {
    EmitImpl(key, /*prehashed=*/true, fingerprint, tag, aux, TupleView(),
             wire_bytes);
  }
  void EmitPrehashed(TupleView key, uint64_t fingerprint, uint32_t tag,
                     uint32_t aux, TupleView payload, double wire_bytes) {
    EmitImpl(key, /*prehashed=*/true, fingerprint, tag, aux, payload,
             wire_bytes);
  }

  size_t num_messages() const { return messages_.size(); }
  size_t num_keys() const { return groups_.size(); }
  bool empty() const { return messages_.empty(); }
  /// Distinct keys inserted despite sharing a fingerprint with an
  /// earlier, different key (true 64-bit collisions, counted once per
  /// inserted key); surfaces in JobStats.
  uint64_t fingerprint_collisions() const { return fingerprint_collisions_; }

  /// Wire-byte / record accounting the way the shuffle will see it:
  /// packed, every distinct key pays one key header; unpacked, every
  /// message pays its own. Used by the sampling cost estimator, which
  /// must agree with the engine's accounting.
  void AccountWire(bool packed, double* wire_bytes, size_t* records) const;

 private:
  friend class Shuffle;

  static constexpr uint32_t kNone = UINT32_MAX;

  /// One distinct key with its chained message list, in first-seen order.
  struct Group {
    uint32_t key_pos = 0;    ///< word offset into key_arena_
    uint32_t key_arity = 0;  ///< values in the key
    uint64_t fingerprint = 0;
    uint32_t head = kNone;   ///< first message of the chain
    uint32_t tail = kNone;   ///< last message of the chain
    uint32_t count = 0;      ///< chain length
  };

  void EmitImpl(TupleView key, bool prehashed, uint64_t fingerprint,
                uint32_t tag, uint32_t aux, TupleView payload,
                double wire_bytes);
  /// Returns the group index for the key `words[0..arity)`, appending the
  /// words to the key arena when the key is new.
  uint32_t FindOrAddGroup(const uint64_t* words, uint32_t arity,
                          uint64_t fingerprint);
  void GrowTable();

  FingerprintFn fingerprint_;
  std::vector<uint64_t> key_arena_;      ///< flat words of all distinct keys
  std::vector<uint64_t> payload_arena_;  ///< spilled message payload words
  std::vector<Group> groups_;            ///< distinct keys, first-seen order
  std::vector<Message> messages_;        ///< all messages, emission order
  std::vector<uint32_t> next_;           ///< per-message chain link
  std::vector<uint32_t> group_of_;       ///< per-message owning group
  std::vector<uint32_t> table_;          ///< open addressing: group indices
  size_t table_mask_ = 0;
  uint64_t fingerprint_collisions_ = 0;
};

/// The sink handed to Mapper::Map. A concrete class, not an interface:
/// the emission path is the hottest loop in the engine and must not pay
/// a virtual dispatch per key/value.
using Emitter = MapOutputBuffer;

}  // namespace gumbo::mr

#endif  // GUMBO_MR_MAP_OUTPUT_H_
