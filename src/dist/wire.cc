#include "dist/wire.h"

#include <utility>

namespace gumbo::dist {

namespace {

void Put(FrameWriter* w, uint64_t v) { w->U64(v); }
void Put(FrameWriter* w, double v) { w->F64(v); }
Status Get(FrameReader* r, uint64_t* v) { return r->ReadU64(v); }
Status Get(FrameReader* r, double* v) { return r->ReadF64(v); }

}  // namespace

uint64_t WireChecksum(const uint8_t* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<uint8_t> FrameWriter::Finish(FrameType type, uint32_t src_shard,
                                         uint32_t aux) {
  std::vector<uint8_t> frame(kFrameHeaderBytes + body_.size());
  uint8_t* p = frame.data();
  auto put = [&p](const void* v, size_t n) {
    std::memcpy(p, v, n);
    p += n;
  };
  const uint32_t magic = kWireMagic;
  const uint16_t version = kWireVersion;
  const uint16_t t = static_cast<uint16_t>(type);
  const uint64_t body_bytes = body_.size();
  const uint64_t checksum = WireChecksum(body_.data(), body_.size());
  put(&magic, sizeof(magic));
  put(&version, sizeof(version));
  put(&t, sizeof(t));
  put(&src_shard, sizeof(src_shard));
  put(&aux, sizeof(aux));
  put(&body_bytes, sizeof(body_bytes));
  put(&checksum, sizeof(checksum));
  // An empty body's data() may be null, and memcpy requires valid
  // pointers even for zero bytes.
  if (!body_.empty()) std::memcpy(p, body_.data(), body_.size());
  body_.clear();
  return frame;
}

Result<FrameReader> FrameReader::Parse(const std::vector<uint8_t>& frame) {
  if (frame.size() < kFrameHeaderBytes) {
    return Status::ParseError("wire: frame shorter than its header (" +
                              std::to_string(frame.size()) + " bytes)");
  }
  const uint8_t* p = frame.data();
  auto get = [&p](void* v, size_t n) {
    std::memcpy(v, p, n);
    p += n;
  };
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t type = 0;
  uint32_t src_shard = 0;
  uint32_t aux = 0;
  uint64_t body_bytes = 0;
  uint64_t checksum = 0;
  get(&magic, sizeof(magic));
  get(&version, sizeof(version));
  get(&type, sizeof(type));
  get(&src_shard, sizeof(src_shard));
  get(&aux, sizeof(aux));
  get(&body_bytes, sizeof(body_bytes));
  get(&checksum, sizeof(checksum));
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
  if (static_cast<size_t>(end_ - pos_) < n) {
    return Status::ParseError("wire: string over-read");
  }
  s->assign(reinterpret_cast<const char*>(pos_), n);
  pos_ += n;
  return Status::Ok();
}

Status FrameReader::ReadWords(size_t n, std::vector<uint64_t>* out) {
  out->resize(n);
  return Read(out->data(), n * sizeof(uint64_t));
}

void EncodeRelationBody(const Relation& rel, FrameWriter* w) {
  w->Str(rel.name());
  w->U32(rel.arity());
  w->F64(rel.bytes_per_tuple());
  w->F64(rel.representation_scale());
  w->U64(rel.size());
  w->Words(rel.words().data(), rel.words().size());
  w->Words(rel.fingerprints().data(), rel.fingerprints().size());
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
  uint64_t rows = 0;
  GUMBO_RETURN_IF_ERROR(r->ReadStr(&name));
  GUMBO_RETURN_IF_ERROR(r->ReadU32(&arity));
  GUMBO_RETURN_IF_ERROR(r->ReadF64(&bytes_per_tuple));
  GUMBO_RETURN_IF_ERROR(r->ReadF64(&scale));
  GUMBO_RETURN_IF_ERROR(r->ReadU64(&rows));
  std::vector<uint64_t> words;
  std::vector<uint64_t> fps;
  GUMBO_RETURN_IF_ERROR(r->ReadWords(rows * arity, &words));
  GUMBO_RETURN_IF_ERROR(r->ReadWords(rows, &fps));
  Relation rel(name, arity);
  if (bytes_per_tuple > 0.0) rel.set_bytes_per_tuple(bytes_per_tuple);
  rel.set_representation_scale(scale);
  rel.Reserve(rows);
  rel.AppendRaw(words.data(), fps.data(), rows);
  return rel;
}

void EncodeJobCounters(const mr::JobCounters& c, FrameWriter* w) {
  mr::JobCounters::ForEachField([&](auto field) { Put(w, c.*field); });
}

Status DecodeJobCounters(FrameReader* r, mr::JobCounters* c) {
  Status s;
  mr::JobCounters::ForEachField([&](auto field) {
    if (s.ok()) s = Get(r, &(c->*field));
  });
  return s;
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
