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
//   checksum   u64   WireChecksum (XXH64, seed 0) over the body bytes
//
// The body is a flat little-endian byte stream. FrameWriter writes it
// behind 32 reserved header bytes and Finish seals the frame in place —
// header and checksum filled in, the buffer moved out, the body never
// copied. FrameReader::Parse verifies a received frame once (magic,
// version, length, checksum) and then reads the body back with
// bounds-checked, memcpy-based accessors (no alignment assumptions).
// Values that already live in the engine's flat buffers — key/payload
// word arenas, relation word arenas, cached row fingerprints — are copied
// into the body verbatim, 8 bytes per word, and adopted verbatim on the
// far side: nothing is re-encoded or re-hashed, which is what makes a
// sharded run byte-identical to the single-process runtime
// (tests/dist_test.cc).
//
// Body layouts of the codecs below (str = u32 length + bytes):
//   row block      rows u64 | rows × arity words | rows fingerprints
//   relation       name str | arity u32 | bytes_per_tuple f64 |
//                  representation_scale f64 | row block
//   shuffle record task u32 | key_arity u32 | fingerprint u64 |
//                  wire_bytes f64 | msg_count u32 | key_arity key words |
//                  msg_count × (tag u32 | aux u32 | payload_size u32 |
//                               wire_bytes f64 | payload_size words)
// Bodies of the shard protocol's frames (src/dist/sharded.cc), whose aux
// is the program job index; "owned" means index % shards == src_shard:
//   kMapStats      intermediate_mb f64 (of the sender's owned map tasks)
//   kShuffleChunk  shuffle records back to back
//   kEpilogue      sent_bytes u64 | task_retries u64 |
//                  faults_injected u64 | retry_us u64 |
//                  per owned map task, ascending: output_mb f64 |
//                    metadata_mb f64 | wire_bytes f64 | records u64 |
//                    messages u64 | fingerprint_collisions u64 |
//                    filtered u64 |
//                  per owned reduce partition, ascending: partition u32 |
//                    shuffle_mb f64 | output_mb f64 |
//                    one row block per job output
//   kError         code u32 | message str
// A kRelation body is one relation (the worker binary's output files).
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
#include "mr/shuffle.h"

namespace gumbo::dist {

inline constexpr uint32_t kWireMagic = 0x30424D47u;  // "GMB0" little-endian
/// 2: kJobStats bodies open with the mr::JobCounters block.
/// 3: the body checksum is XXH64 instead of FNV-1a; same layout.
/// 4: no coordinator. kEpilogue, sent to every peer, replaces kJobStats
///    and kOutputFragment; kReduceAlloc and kCommit are gone.
inline constexpr uint16_t kWireVersion = 4;
inline constexpr size_t kFrameHeaderBytes = 32;

/// Frame discriminators of the shard protocol (src/dist/sharded.cc).
/// Values 2, 4, 5 and 6 belonged to frames of earlier versions.
enum class FrameType : uint16_t {
  kMapStats = 1,      ///< shard -> every peer: owned intermediate MB
  kShuffleChunk = 3,  ///< shard -> shard: records for its partitions
  kError = 7,         ///< any -> any: abort the protocol with a Status
  kRelation = 8,      ///< standalone: one whole relation (worker output)
  kEpilogue = 9,      ///< shard -> every peer: its units' records and rows
};

/// XXH64 (seed 0) over `size` bytes — the frame body checksum: four
/// 8-byte lanes per 32-byte stripe, then the 8/4/1-byte tails and the
/// avalanche, over unaligned memcpy loads.
uint64_t WireChecksum(const uint8_t* data, size_t size);

/// Appends typed values to a frame body, then seals it with a header.
class FrameWriter {
 public:
  FrameWriter() : buf_(kFrameHeaderBytes) {}

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  /// `n` flat 64-bit words, verbatim.
  void Words(const uint64_t* w, size_t n) { Raw(w, n * sizeof(uint64_t)); }

  /// Grows the body by `n` bytes and returns where they start, so a
  /// codec can write a whole record with one extension. Valid until the
  /// next append or Finish.
  uint8_t* Extend(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  size_t body_bytes() const { return buf_.size() - kFrameHeaderBytes; }

  /// Seals the body in place: fills in the header and checksum, returns
  /// header + body as one sendable frame without copying the body, and
  /// leaves the writer empty for reuse.
  std::vector<uint8_t> Finish(FrameType type, uint32_t src_shard,
                              uint32_t aux = 0);

 private:
  void Raw(const void* p, size_t n) {
    // An empty append may come with a null `p` (the data() of an empty
    // vector), and memcpy requires valid pointers even for zero bytes.
    if (n > 0) std::memcpy(Extend(n), p, n);
  }
  std::vector<uint8_t> buf_;  ///< header bytes (written by Finish), body
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
  /// Borrows the next `n` body bytes in place (unaligned; load them with
  /// memcpy) and advances past them.
  Status ReadBytes(size_t n, const uint8_t** bytes) {
    if (remaining() < n) {
      return Status::ParseError("wire: frame body over-read");
    }
    *bytes = pos_;
    pos_ += n;
    return Status::Ok();
  }

  /// Bytes of body not yet consumed.
  size_t remaining() const { return end_ - pos_; }

 private:
  FrameReader(const uint8_t* body, size_t size)
      : pos_(body), end_(body + size) {}
  Status Read(void* v, size_t n) {
    const uint8_t* p = nullptr;
    GUMBO_RETURN_IF_ERROR(ReadBytes(n, &p));
    // An empty read may come with a null `v` (the data() of an empty
    // vector), and memcpy requires valid pointers even for zero bytes.
    if (n > 0) std::memcpy(v, p, n);
    return Status::Ok();
  }

  FrameType type_ = FrameType::kError;
  uint32_t src_shard_ = 0;
  uint32_t aux_ = 0;
  const uint8_t* pos_ = nullptr;
  const uint8_t* end_ = nullptr;
};

/// Encodes / decodes a row block: the row count, then the rows' words
/// (`words`, row-major) and fingerprints verbatim — the tail of a
/// relation body, and one job output's rows in a kEpilogue body. The
/// decoder appends the rows to `into` (of the block's arity) straight
/// from the frame bytes, one copy, fingerprints adopted verbatim
/// (RelationBuilder::AppendRaw). It checks the claimed count against the
/// remaining body — and before rows × arity can wrap — so a forged count
/// fails with ParseError, never allocates; so does a first row whose
/// fingerprint is not its hash.
void EncodeRowBlock(const std::vector<uint64_t>& words,
                    const std::vector<uint64_t>& fingerprints,
                    FrameWriter* w);
Status DecodeRowBlock(FrameReader* r, RelationBuilder* into);

/// Encodes one whole relation — name, arity, size-accounting knobs, and
/// the row block — as a kRelation body.
void EncodeRelationBody(const Relation& rel, FrameWriter* w);
std::vector<uint8_t> EncodeRelationFrame(const Relation& rel,
                                         uint32_t src_shard);

/// Decodes a relation encoded by EncodeRelationBody from `r`'s current
/// position; its rows are copied once, from the frame into the arena.
Result<Relation> DecodeRelationBody(FrameReader* r);

/// Appends one shuffle record of map task `task` — the arguments of
/// mr::Shuffle::ForEachTaskRecord's callback — to a kShuffleChunk body:
/// one body extension, then the fields copied in.
void EncodeShuffleRecord(uint32_t task, const mr::Shuffle::KeyEntry& e,
                         const uint64_t* key_words, const mr::Message* msgs,
                         const uint64_t* payload_arena, FrameWriter* w);

/// Imports every record of a kShuffleChunk body, from `r`'s current
/// position to its end, into `into` (mr::Shuffle::ImportTaskRecord,
/// straight from the frame bytes). Each fixed-size part is bounds-checked
/// once; an out-of-range task or a message count the remaining body
/// cannot hold fails with ParseError before anything is allocated for it.
Status DecodeShuffleChunk(FrameReader* r, mr::Shuffle* into);

/// Encodes / decodes a Status as a kError body.
std::vector<uint8_t> EncodeErrorFrame(const Status& s, uint32_t src_shard);
Status DecodeErrorBody(FrameReader* r);

}  // namespace gumbo::dist

#endif  // GUMBO_DIST_WIRE_H_
