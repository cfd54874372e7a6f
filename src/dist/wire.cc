#include "dist/wire.h"

#include <cassert>
#include <utility>

namespace gumbo::dist {

namespace {

/// Unaligned little-endian field access into frame bytes.
template <typename T>
T Load(const uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof(v));
  return v;
}
template <typename T>
uint8_t* Store(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}
uint8_t* StoreWords(uint8_t* p, const uint64_t* words, size_t n) {
  // Zero-word keys and payloads may come with a null pointer, and memcpy
  // requires valid pointers even for zero bytes.
  if (n == 0) return p;
  std::memcpy(p, words, n * sizeof(uint64_t));
  return p + n * sizeof(uint64_t);
}

/// Fixed-size parts of a shuffle record (layout in wire.h).
constexpr size_t kShuffleRecordHeaderBytes = 4 + 4 + 8 + 8 + 4;
constexpr size_t kShuffleMessageHeaderBytes = 4 + 4 + 4 + 8;

// XXH64's primes and steps (the reference xxHash algorithm, seed 0).
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

constexpr uint64_t Rotl(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  return Rotl(acc, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

uint64_t WireChecksum(const uint8_t* data, size_t size) {
  const uint8_t* p = data;
  const uint8_t* const end = data + size;
  uint64_t h = kPrime5;
  if (size >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    for (const uint8_t* const limit = end - 32; p <= limit; p += 32) {
      v1 = Round(v1, Load<uint64_t>(p));
      v2 = Round(v2, Load<uint64_t>(p + 8));
      v3 = Round(v3, Load<uint64_t>(p + 16));
      v4 = Round(v4, Load<uint64_t>(p + 24));
    }
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  }
  h += static_cast<uint64_t>(size);
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, Load<uint64_t>(p));
    h = Rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= static_cast<uint64_t>(Load<uint32_t>(p)) * kPrime1;
    h = Rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = Rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::vector<uint8_t> FrameWriter::Finish(FrameType type, uint32_t src_shard,
                                         uint32_t aux) {
  const uint64_t body_bytes = this->body_bytes();
  const uint64_t checksum =
      WireChecksum(buf_.data() + kFrameHeaderBytes, body_bytes);
  uint8_t* p = buf_.data();
  p = Store(p, kWireMagic);
  p = Store(p, kWireVersion);
  p = Store(p, static_cast<uint16_t>(type));
  p = Store(p, src_shard);
  p = Store(p, aux);
  p = Store(p, body_bytes);
  Store(p, checksum);
  std::vector<uint8_t> frame = std::move(buf_);
  buf_.assign(kFrameHeaderBytes, 0);
  return frame;
}

Result<FrameReader> FrameReader::Parse(const std::vector<uint8_t>& frame) {
  if (frame.size() < kFrameHeaderBytes) {
    return Status::ParseError("wire: frame shorter than its header (" +
                              std::to_string(frame.size()) + " bytes)");
  }
  const uint8_t* p = frame.data();
  const uint32_t magic = Load<uint32_t>(p);
  const uint16_t version = Load<uint16_t>(p + 4);
  const uint16_t type = Load<uint16_t>(p + 6);
  const uint32_t src_shard = Load<uint32_t>(p + 8);
  const uint32_t aux = Load<uint32_t>(p + 12);
  const uint64_t body_bytes = Load<uint64_t>(p + 16);
  const uint64_t checksum = Load<uint64_t>(p + 24);
  p += kFrameHeaderBytes;
  if (magic != kWireMagic) {
    return Status::ParseError("wire: bad frame magic");
  }
  if (version != kWireVersion) {
    return Status::ParseError("wire: frame version " +
                              std::to_string(version) + ", expected " +
                              std::to_string(kWireVersion));
  }
  if (frame.size() - kFrameHeaderBytes != body_bytes) {
    return Status::ParseError(
        "wire: truncated frame (header claims " + std::to_string(body_bytes) +
        " body bytes, got " +
        std::to_string(frame.size() - kFrameHeaderBytes) + ")");
  }
  if (WireChecksum(p, body_bytes) != checksum) {
    return Status::ParseError("wire: frame checksum mismatch (" +
                              std::to_string(body_bytes) + " body bytes)");
  }
  FrameReader r(p, body_bytes);
  r.type_ = static_cast<FrameType>(type);
  r.src_shard_ = src_shard;
  r.aux_ = aux;
  return r;
}

Status FrameReader::ReadStr(std::string* s) {
  uint32_t n = 0;
  GUMBO_RETURN_IF_ERROR(ReadU32(&n));
  const uint8_t* p = nullptr;
  GUMBO_RETURN_IF_ERROR(ReadBytes(n, &p));
  s->assign(reinterpret_cast<const char*>(p), n);
  return Status::Ok();
}

void EncodeRowBlock(const std::vector<uint64_t>& words,
                    const std::vector<uint64_t>& fingerprints,
                    FrameWriter* w) {
  w->U64(fingerprints.size());
  w->Words(words.data(), words.size());
  w->Words(fingerprints.data(), fingerprints.size());
}

Status DecodeRowBlock(FrameReader* r, RelationBuilder* into) {
  uint64_t rows = 0;
  GUMBO_RETURN_IF_ERROR(r->ReadU64(&rows));
  // Each row is `arity` words plus its fingerprint; dividing the budget
  // instead of multiplying the claim keeps a forged count from wrapping.
  const uint64_t arity = into->arity();
  if (rows > r->remaining() / sizeof(uint64_t) / (arity + 1)) {
    return Status::ParseError(
        "wire: row block claims " + std::to_string(rows) + " rows of arity " +
        std::to_string(arity) + ", " + std::to_string(r->remaining()) +
        " body bytes left");
  }
  const uint8_t* words = nullptr;
  const uint8_t* fps = nullptr;
  GUMBO_RETURN_IF_ERROR(r->ReadBytes(rows * arity * sizeof(uint64_t), &words));
  GUMBO_RETURN_IF_ERROR(r->ReadBytes(rows * sizeof(uint64_t), &fps));
  const size_t at = into->size();
  into->AppendRaw(words, fps, rows);
  // Spot-check the first row: a stored fingerprint that is not its row's
  // hash would silently misroute every later lookup of the row.
  if (rows > 0 && into->fingerprints()[at] !=
                      TupleFingerprint(into->words().data() + at * arity,
                                       static_cast<uint32_t>(arity))) {
    return Status::ParseError(
        "wire: row block's first fingerprint does not match its row");
  }
  return Status::Ok();
}

void EncodeRelationBody(const Relation& rel, FrameWriter* w) {
  w->Str(rel.name());
  w->U32(rel.arity());
  w->F64(rel.bytes_per_tuple());
  w->F64(rel.representation_scale());
  EncodeRowBlock(rel.words(), rel.fingerprints(), w);
}

std::vector<uint8_t> EncodeRelationFrame(const Relation& rel,
                                         uint32_t src_shard) {
  FrameWriter w;
  EncodeRelationBody(rel, &w);
  return w.Finish(FrameType::kRelation, src_shard);
}

Result<Relation> DecodeRelationBody(FrameReader* r) {
  std::string name;
  uint32_t arity = 0;
  double bytes_per_tuple = 0.0;
  double scale = 1.0;
  GUMBO_RETURN_IF_ERROR(r->ReadStr(&name));
  GUMBO_RETURN_IF_ERROR(r->ReadU32(&arity));
  GUMBO_RETURN_IF_ERROR(r->ReadF64(&bytes_per_tuple));
  GUMBO_RETURN_IF_ERROR(r->ReadF64(&scale));
  RelationBuilder rows(arity);
  GUMBO_RETURN_IF_ERROR(DecodeRowBlock(r, &rows));
  Relation rel(name, arity);
  if (bytes_per_tuple > 0.0) rel.set_bytes_per_tuple(bytes_per_tuple);
  rel.set_representation_scale(scale);
  rel.Adopt(std::move(rows));  // the arenas move; no row is copied again
  return rel;
}

void EncodeShuffleRecord(uint32_t task, const mr::Shuffle::KeyEntry& e,
                         const uint64_t* key_words, const mr::Message* msgs,
                         const uint64_t* payload_arena, FrameWriter* w) {
  size_t bytes = kShuffleRecordHeaderBytes +
                 size_t{e.key_arity} * sizeof(uint64_t) +
                 size_t{e.msg_count} * kShuffleMessageHeaderBytes;
  for (uint32_t mi = 0; mi < e.msg_count; ++mi) {
    bytes += size_t{msgs[mi].payload_size} * sizeof(uint64_t);
  }
  uint8_t* const start = w->Extend(bytes);
  uint8_t* p = Store(start, task);
  p = Store(p, e.key_arity);
  p = Store(p, e.fingerprint);
  p = Store(p, e.wire_bytes);
  p = Store(p, e.msg_count);
  p = StoreWords(p, key_words, e.key_arity);
  for (uint32_t mi = 0; mi < e.msg_count; ++mi) {
    const mr::Message& m = msgs[mi];
    p = Store(p, m.tag);
    p = Store(p, m.aux);
    p = Store(p, m.payload_size);
    p = Store(p, m.wire_bytes);
    p = StoreWords(p, m.payload_words(payload_arena), m.payload_size);
  }
  assert(p == start + bytes);
}

Status DecodeShuffleChunk(FrameReader* r, mr::Shuffle* into) {
  std::vector<mr::Shuffle::ImportMessage> msgs;
  while (r->remaining() > 0) {
    const uint8_t* p = nullptr;
    GUMBO_RETURN_IF_ERROR(r->ReadBytes(kShuffleRecordHeaderBytes, &p));
    const uint32_t task = Load<uint32_t>(p);
    const uint32_t key_arity = Load<uint32_t>(p + 4);
    const uint64_t fingerprint = Load<uint64_t>(p + 8);
    const double wire_bytes = Load<double>(p + 16);
    const uint32_t msg_count = Load<uint32_t>(p + 24);
    if (task >= into->num_map_tasks()) {
      return Status::ParseError("wire: shuffle record of map task " +
                                std::to_string(task) + " of " +
                                std::to_string(into->num_map_tasks()));
    }
    const uint8_t* key = nullptr;
    GUMBO_RETURN_IF_ERROR(
        r->ReadBytes(size_t{key_arity} * sizeof(uint64_t), &key));
    if (msg_count > r->remaining() / kShuffleMessageHeaderBytes) {
      return Status::ParseError(
          "wire: shuffle record claims " + std::to_string(msg_count) +
          " messages, " + std::to_string(r->remaining()) +
          " body bytes left");
    }
    msgs.resize(msg_count);
    for (mr::Shuffle::ImportMessage& m : msgs) {
      GUMBO_RETURN_IF_ERROR(r->ReadBytes(kShuffleMessageHeaderBytes, &p));
      m.tag = Load<uint32_t>(p);
      m.aux = Load<uint32_t>(p + 4);
      m.payload_size = Load<uint32_t>(p + 8);
      m.wire_bytes = Load<double>(p + 12);
      GUMBO_RETURN_IF_ERROR(r->ReadBytes(
          size_t{m.payload_size} * sizeof(uint64_t), &m.payload));
    }
    GUMBO_RETURN_IF_ERROR(into->ImportTaskRecord(task, key, key_arity,
                                                 fingerprint, wire_bytes,
                                                 msgs.data(), msgs.size()));
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeErrorFrame(const Status& s, uint32_t src_shard) {
  FrameWriter w;
  w.U32(static_cast<uint32_t>(s.code()));
  w.Str(s.message());
  return w.Finish(FrameType::kError, src_shard);
}

Status DecodeErrorBody(FrameReader* r) {
  uint32_t code = 0;
  std::string message;
  GUMBO_RETURN_IF_ERROR(r->ReadU32(&code));
  GUMBO_RETURN_IF_ERROR(r->ReadStr(&message));
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace gumbo::dist
