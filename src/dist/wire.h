// Wire format of the sharded runtime (DESIGN.md §13): every byte that
// crosses a shard boundary travels in a *frame* — a fixed 32-byte header
// followed by a typed, length-prefixed body, checksummed end to end.
//
// Frame layout:
//   magic      u32   'GMB0' — rejects foreign files/streams outright
//   version    u16   kWireVersion; readers reject anything else
//   type       u16   FrameType discriminator
//   src_shard  u32   sender's shard index
//   aux        u32   frame-type specific (e.g. program job index)
//   body_bytes u64   length of the body that follows
//   checksum   u64   FNV-1a over the body bytes
//
// The body is a flat little-endian byte stream written by FrameWriter
// and read back by FrameReader with bounds-checked, memcpy-based
// accessors (no alignment assumptions). Values that already live in the
// engine's flat buffers — key/payload word arenas, relation word arenas,
// cached row fingerprints — are copied into the body verbatim, 8 bytes
// per word, and adopted verbatim on the far side: nothing is re-encoded
// or re-hashed, which is what makes a sharded run byte-identical to the
// single-process runtime (tests/dist_test.cc).
//
// Doubles (wire-byte accounting) ship as their IEEE-754 bit patterns, so
// accounting survives the wire bit-for-bit too.
#ifndef GUMBO_DIST_WIRE_H_
#define GUMBO_DIST_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "mr/stats.h"

namespace gumbo::dist {

inline constexpr uint32_t kWireMagic = 0x30424D47u;  // "GMB0" little-endian
/// 2: kJobStats bodies open with the mr::JobCounters block.
inline constexpr uint16_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 32;

/// Frame discriminators of the shard protocol (src/dist/sharded.cc).
enum class FrameType : uint16_t {
  kMapStats = 1,        ///< worker -> coordinator: owned intermediate MB
  kReduceAlloc = 2,     ///< coordinator -> workers: global reducer count
  kShuffleChunk = 3,    ///< shard -> shard: records for owned partitions
  kJobStats = 4,        ///< worker -> coordinator: owned-subset job stats
  kOutputFragment = 5,  ///< worker -> coordinator: owned partitions' rows
  kCommit = 6,          ///< coordinator -> workers: round's committed relations
  kError = 7,           ///< any -> any: abort the protocol with a Status
  kRelation = 8,        ///< standalone: one whole relation (worker output)
};

/// FNV-1a 64 over `size` bytes — the frame body checksum.
uint64_t WireChecksum(const uint8_t* data, size_t size);

/// Appends typed values to a frame body, then seals it with a header.
class FrameWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  /// `n` flat 64-bit words, verbatim.
  void Words(const uint64_t* w, size_t n) { Raw(w, n * sizeof(uint64_t)); }

  size_t body_bytes() const { return body_.size(); }

  /// Seals the body: returns header + body as one sendable frame and
  /// leaves the writer empty for reuse.
  std::vector<uint8_t> Finish(FrameType type, uint32_t src_shard,
                              uint32_t aux = 0);

 private:
  void Raw(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    body_.insert(body_.end(), b, b + n);
  }
  std::vector<uint8_t> body_;
};

/// Validates a frame (magic, version, length, checksum) and reads the
/// body back with bounds-checked typed accessors. Borrows the frame
/// bytes — they must outlive the reader.
class FrameReader {
 public:
  /// Rejects truncated, foreign, version-skewed, and corrupted frames
  /// with Status::ParseError before any field is readable.
  static Result<FrameReader> Parse(const std::vector<uint8_t>& frame);

  FrameType type() const { return type_; }
  uint32_t src_shard() const { return src_shard_; }
  uint32_t aux() const { return aux_; }

  Status ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }
  Status ReadF64(double* v) { return Read(v, sizeof(*v)); }
  Status ReadStr(std::string* s);
  /// Reads `n` flat words into `out` (resized to exactly `n`).
  Status ReadWords(size_t n, std::vector<uint64_t>* out);

  /// Bytes of body not yet consumed.
  size_t remaining() const { return end_ - pos_; }

 private:
  FrameReader(const uint8_t* body, size_t size)
      : pos_(body), end_(body + size) {}
  Status Read(void* v, size_t n) {
    if (static_cast<size_t>(end_ - pos_) < n) {
      return Status::ParseError("wire: frame body over-read");
    }
    // An empty read may come with a null `v` (the data() of an empty
    // vector), and memcpy requires valid pointers even for zero bytes.
    if (n > 0) std::memcpy(v, pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  FrameType type_ = FrameType::kError;
  uint32_t src_shard_ = 0;
  uint32_t aux_ = 0;
  const uint8_t* pos_ = nullptr;
  const uint8_t* end_ = nullptr;
};

/// Encodes one whole relation — name, arity, size-accounting knobs, and
/// the word + fingerprint arenas verbatim — as a kRelation body (the
/// same layout kCommit and kOutputFragment embed per relation).
void EncodeRelationBody(const Relation& rel, FrameWriter* w);
std::vector<uint8_t> EncodeRelationFrame(const Relation& rel,
                                         uint32_t src_shard);

/// Decodes a relation encoded by EncodeRelationBody from `r`'s current
/// position. Fingerprints are adopted verbatim (Relation::AppendRaw).
Result<Relation> DecodeRelationBody(FrameReader* r);

/// Encodes / decodes the summed job counters of a kJobStats body: every
/// mr::JobCounters field in ForEachField order, 8 bytes each (doubles as
/// their bit patterns).
void EncodeJobCounters(const mr::JobCounters& c, FrameWriter* w);
Status DecodeJobCounters(FrameReader* r, mr::JobCounters* c);

/// Encodes / decodes a Status as a kError body.
std::vector<uint8_t> EncodeErrorFrame(const Status& s, uint32_t src_shard);
Status DecodeErrorBody(FrameReader* r);

}  // namespace gumbo::dist

#endif  // GUMBO_DIST_WIRE_H_
