// Relation and Database: named sets of facts on flat arena storage.
//
// A Relation is the in-memory representation of one relation instance.
// Tuples are stored as contiguous flat-encoded words (8 bytes per Value,
// common/tuple.h) in one per-relation arena, with a parallel array of
// precomputed 64-bit fingerprints (== Tuple::Hash of the row, computed
// exactly once when the row is added). Scans hand out zero-copy RowViews;
// no Tuple object exists between rounds unless a caller materializes one
// (DESIGN.md §7).
//
// In addition to the actual tuples a Relation tracks a *represented
// size*: the paper's experiments run on 1-4 GB relations; this repo
// executes on smaller materialized samples while accounting bytes at a
// configurable representation scale (see DESIGN.md "Substitutions"). All
// cost-model and counter arithmetic uses the represented megabytes.
#ifndef GUMBO_COMMON_RELATION_H_
#define GUMBO_COMMON_RELATION_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/tuple.h"

namespace gumbo {

class Scheduler;
struct SchedContext;

/// One stored row: a zero-copy TupleView plus the relation's precomputed
/// fingerprint, so scan consumers (mappers, filter builders) never hash a
/// stored tuple again.
class RowView : public TupleView {
 public:
  constexpr RowView() : TupleView(), fingerprint_(0) {}
  constexpr RowView(const uint64_t* words, uint32_t arity, uint64_t fingerprint)
      : TupleView(words, arity), fingerprint_(fingerprint) {}

  /// The stored fingerprint — equal to Fingerprint() (and to
  /// Tuple::Hash() of the decoded row) by construction, but free.
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  uint64_t fingerprint_;
};

/// Accumulates flat rows of one fixed arity — the reduce-side emission
/// target (mr/engine.cc) and the wire's row-block decode target
/// (src/dist/wire.h): reducers append encoded words + fingerprint here,
/// and the finished builder is adopted by a Relation arena-wholesale
/// instead of tuple-by-tuple.
class RelationBuilder {
 public:
  RelationBuilder() : arity_(0) {}
  explicit RelationBuilder(uint32_t arity) : arity_(arity) {}

  uint32_t arity() const { return arity_; }
  size_t size() const { return fingerprints_.size(); }
  bool empty() const { return fingerprints_.empty(); }

  void Reserve(size_t rows) {
    words_.reserve(rows * arity_);
    fingerprints_.reserve(rows);
  }

  /// Appends one row of `arity()` raw words; the fingerprint is computed
  /// here, once, and travels with the row from then on.
  void AddWords(const uint64_t* words) {
    words_.insert(words_.end(), words, words + arity_);
    fingerprints_.push_back(TupleFingerprint(words, arity_));
  }

  void Add(TupleView row) {
    assert(row.size() == arity_ && "builder arity mismatch");
    AddWords(row.words());
  }

  /// Appends `rows` rows straight from raw, possibly unaligned bytes —
  /// rows × arity() words, then one stored fingerprint per row — copied
  /// verbatim and NEVER re-hashed, so fingerprints decoded from a wire
  /// frame (src/dist/wire.h) survive round-trips bit-for-bit. The caller
  /// vouches that each fingerprint matches its row
  /// (dist::DecodeRowBlock spot-checks the first).
  void AppendRaw(const uint8_t* words, const uint8_t* fps, size_t rows);

  /// The flat word arena (size() * arity() words) and the fingerprints.
  const std::vector<uint64_t>& words() const { return words_; }
  const std::vector<uint64_t>& fingerprints() const { return fingerprints_; }

 private:
  friend class Relation;

  uint32_t arity_;
  std::vector<uint64_t> words_;         ///< size() * arity_ flat words
  std::vector<uint64_t> fingerprints_;  ///< one per row
};

/// One relation instance: a name, a fixed arity, and a bag of tuples that
/// is normalized to a set on demand (SortAndDedupe).
class Relation {
 public:
  Relation() : name_(), arity_(0) {}
  Relation(std::string name, uint32_t arity)
      : name_(std::move(name)), arity_(arity) {}

  const std::string& name() const { return name_; }
  uint32_t arity() const { return arity_; }

  /// Appends a tuple. The tuple's size must equal the relation arity
  /// (checked; returns InvalidArgument otherwise).
  Status Add(const Tuple& t) {
    if (t.size() != arity_) {
      return Status::InvalidArgument("tuple arity " + std::to_string(t.size()) +
                                     " != relation arity " +
                                     std::to_string(arity_) + " for " + name_);
    }
    AddWords(t.raw_words());
    return Status::Ok();
  }

  /// Appends without the arity check; used on hot paths where the arity is
  /// enforced by construction. Asserts in debug builds.
  void AddUnchecked(const Tuple& t) {
    assert(t.size() == arity_);
    AddWords(t.raw_words());
  }

  /// Flat hot path: appends one row of `arity()` raw words straight into
  /// the arena. The fingerprint is computed here — the only time this row
  /// is ever hashed (DESIGN.md §7).
  void AddWords(const uint64_t* words) {
    words_.insert(words_.end(), words, words + arity_);
    fingerprints_.push_back(TupleFingerprint(words, arity_));
    ++append_version_;
  }

  /// Pre-sizes the arenas for `rows` additional tuples.
  void Reserve(size_t rows) {
    words_.reserve(words_.size() + rows * arity_);
    fingerprints_.reserve(fingerprints_.size() + rows);
  }

  /// Adopts a builder's rows. The builder must have this relation's
  /// arity. When the relation is empty the builder's arenas are moved
  /// wholesale (no copy, no re-hash); otherwise its words and
  /// fingerprints are appended with two bulk copies. The builder is left
  /// empty either way.
  void Adopt(RelationBuilder&& b);

  size_t size() const { return fingerprints_.size(); }
  bool empty() const { return fingerprints_.empty(); }

  /// Zero-copy view of row `i`, with its stored fingerprint. Valid until
  /// the relation is mutated.
  RowView view(size_t i) const {
    assert(i < size());
    return RowView(words_.data() + i * arity_, arity_, fingerprints_[i]);
  }

  /// Stored fingerprint of row `i` (== view(i).Fingerprint() ==
  /// TupleAt(i).Hash()).
  uint64_t fingerprint(size_t i) const {
    assert(i < size());
    return fingerprints_[i];
  }

  /// The flat word arena: size() * arity() words, row-major.
  const std::vector<uint64_t>& words() const { return words_; }
  /// One precomputed fingerprint per row.
  const std::vector<uint64_t>& fingerprints() const { return fingerprints_; }

  /// Iteration support: `for (RowView row : rel.views())`.
  class ViewIterator {
   public:
    ViewIterator(const Relation* rel, size_t i) : rel_(rel), i_(i) {}
    RowView operator*() const { return rel_->view(i_); }
    ViewIterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const ViewIterator& o) const { return i_ == o.i_; }
    bool operator!=(const ViewIterator& o) const { return i_ != o.i_; }

   private:
    const Relation* rel_;
    size_t i_;
  };
  class ViewRange {
   public:
    explicit ViewRange(const Relation* rel) : rel_(rel) {}
    ViewIterator begin() const { return {rel_, 0}; }
    ViewIterator end() const { return {rel_, rel_->size()}; }

   private:
    const Relation* rel_;
  };
  ViewRange views() const { return ViewRange(this); }

  /// Materializes the rows whose `keep` bit is set (one bit per row), in
  /// row order, under the same name: words + stored fingerprints copied,
  /// never re-hashed. Size-accounting knobs (bytes_per_tuple,
  /// representation_scale) carry over so a delta slice accounts like its
  /// parent (DESIGN.md §12).
  Relation CloneRows(const std::vector<bool>& keep) const;

  /// Bulk-appends every row of `other` (same arity required): words and
  /// stored fingerprints copied wholesale, no re-hash. The delta-union
  /// half of incremental maintenance (DESIGN.md §12); callers wanting set
  /// semantics follow with SortAndDedupe.
  void AppendFrom(const Relation& other);

  /// Bumped every time rows are appended (AddWords/Adopt/AppendFrom).
  /// Together with shape_version(), lets Database::SettleLoans classify
  /// what a mutable-handle holder actually did: nothing, pure appends, or
  /// a reshape.
  uint64_t append_version() const { return append_version_; }
  /// Bumped by SortAndDedupe (rows may move or vanish — existing row
  /// indices/watermarks are no longer prefixes of the new arena).
  uint64_t shape_version() const { return shape_version_; }

  /// Materializes row `i` as an owning Tuple (tests / diagnostics; scans
  /// should use view()).
  Tuple TupleAt(size_t i) const { return view(i).ToTuple(); }

  /// Materializes every row (tests / diagnostics only — this is the
  /// copying path the flat storage exists to avoid).
  std::vector<Tuple> ToTuples() const;

  /// Sorts tuples lexicographically and removes duplicates, giving the
  /// relation canonical set semantics. Operates on the flat words (Value
  /// order is raw-word order, so the result is byte-identical to sorting
  /// decoded Tuples); stored fingerprints are permuted, never recomputed.
  /// `scheduler` parallelizes the sort (chunked sort + pairwise merges)
  /// at `ctx`'s priority; results are identical for any scheduler,
  /// including nullptr (sequential). Deterministic.
  void SortAndDedupe(Scheduler* scheduler = nullptr,
                     const SchedContext* ctx = nullptr);

  /// Whether two relations hold the same set of tuples. Fingerprint-
  /// bucketed: rows are ordered by (fingerprint, words) — word memcmp only
  /// on fingerprint collision — and the deduped sequences compared.
  /// Inputs are untouched.
  bool SetEquals(const Relation& other) const;

  /// Bytes each tuple represents on disk, following the paper's data shape
  /// (4 GB / 100M tuples = 40 B for 4-ary guards; 1 GB / 100M = 10 B for
  /// conditionals). Defaults to 10 B per attribute.
  double bytes_per_tuple() const {
    return bytes_per_tuple_ > 0 ? bytes_per_tuple_ : 10.0 * arity_;
  }
  void set_bytes_per_tuple(double b) { bytes_per_tuple_ = b; }

  /// Representation scale: each materialized tuple stands for `scale`
  /// tuples of the represented experiment (DESIGN.md §2). Affects size
  /// accounting only, never query results.
  double representation_scale() const { return representation_scale_; }
  void set_representation_scale(double s) { representation_scale_ = s; }

  /// Represented size in MB: tuples * scale * bytes_per_tuple / 2^20.
  double SizeMb() const {
    return static_cast<double>(size()) * representation_scale_ *
           bytes_per_tuple() / (1024.0 * 1024.0);
  }

  /// Represented record count (tuples * scale); used for per-record
  /// metadata accounting (Hadoop's 16 B map-output metadata).
  double RepresentedRecords() const {
    return static_cast<double>(size()) * representation_scale_;
  }

 private:
  std::string name_;
  uint32_t arity_;
  std::vector<uint64_t> words_;         ///< size() * arity_ flat words
  std::vector<uint64_t> fingerprints_;  ///< one per row, set at add time
  uint64_t append_version_ = 0;         ///< ++ on every row append
  uint64_t shape_version_ = 0;          ///< ++ on SortAndDedupe
  double bytes_per_tuple_ = -1.0;
  double representation_scale_ = 1.0;
};

/// A database: a set of relation instances addressed by name.
///
/// Three serving-layer features (DESIGN.md §8, §12) live here:
///
/// *Stats epochs.* Every actual mutation (Put, Create, Erase, AddFact, or
/// writes made through a GetMutable handle, recognized at loan
/// settlement — see below) bumps a database-wide epoch counter and stamps
/// the touched relation with it. The serve-layer plan cache keys cached
/// plans on the epochs of the relations a query reads, so a stale plan
/// can never be served after the underlying data changed. Reads never
/// bump epochs, and neither does a mutable handle the holder never
/// writes through.
///
/// *Delta watermarks.* Each epoch bump is classified as *insert-only*
/// (AddFact, or settled handle writes that only appended rows) or
/// *destructive* (Put/Create/Erase, or settled handle writes that
/// reshaped the arena). For insert-only bumps the post-mutation row count
/// is recorded, so a consumer holding an older epoch can ask
/// InsertOnlySince/RowsAtEpoch and view "rows added since my epoch" as a
/// contiguous arena tail — the foundation of incremental delta
/// evaluation (DESIGN.md §12). History is bounded;
/// epochs that fall off resolve conservatively (as unknown -> callers
/// fall back to full recomputation).
///
/// *Overlay views.* A Database constructed over a base database resolves
/// Get/Contains through the base but takes all writes locally, so many
/// concurrent queries can execute against one immutable base snapshot
/// without copying a byte of it: intermediates and outputs land in the
/// per-query overlay. Enumeration (relations(), size()) and GetMutable
/// are local-only — an overlay can shadow a base relation but never
/// mutate one. The base must outlive the overlay and must not be mutated
/// while overlays read it.
class Database {
 public:
  Database() = default;

  /// Overlay view over `base` (may be nullptr for a plain database).
  explicit Database(const Database* base) : base_(base) {}

  /// Creates an empty relation. Fails if the name is taken (in an overlay:
  /// taken locally or in the base — shadowing via Create would silently
  /// split reads from writes).
  Status Create(const std::string& name, uint32_t arity) {
    if (Contains(name)) {
      return Status::AlreadyExists("relation " + name);
    }
    SettleLoans();
    relations_.emplace(name, Relation(name, arity));
    RecordDestructive(name, /*rows=*/0);
    return Status::Ok();
  }

  /// Inserts or replaces a relation under its own name. Destructive: a
  /// replaced relation shares no arena with its predecessor, so delta
  /// watermarks over the old rows are void.
  void Put(Relation rel) {
    SettleLoans();
    const std::string name = rel.name();
    loans_.erase(name);  // any outstanding handle now refers to new content
    const size_t rows = rel.size();
    relations_[name] = std::move(rel);
    RecordDestructive(name, rows);
  }

  bool Contains(const std::string& name) const {
    if (relations_.count(name) > 0) return true;
    return base_ != nullptr && base_->Contains(name);
  }

  Result<const Relation*> Get(const std::string& name) const {
    auto it = relations_.find(name);
    if (it != relations_.end()) return &it->second;
    if (base_ != nullptr) return base_->Get(name);
    return Status::NotFound("relation " + name);
  }

  /// Local-only: never reaches into an overlay's base (overlays must not
  /// mutate the shared snapshot they read). Hands out a mutation *loan*:
  /// the relation's version counters are snapshotted, and the stats epoch
  /// bumps only when a later settlement (any mutating Database call, or
  /// an explicit SettleLoans()) observes that the holder actually wrote —
  /// classified as insert-only if rows were only appended, destructive if
  /// the arena was reshaped. Read-only access through a mutable handle
  /// therefore no longer invalidates cached plans.
  Result<Relation*> GetMutable(const std::string& name) {
    SettleLoans();
    auto it = relations_.find(name);
    if (it == relations_.end()) return Status::NotFound("relation " + name);
    loans_[name] =
        Loan{it->second.append_version(), it->second.shape_version()};
    return &it->second;
  }

  /// Adds a fact to an existing (local) relation; the fact goes straight
  /// into the relation's flat arena and the epoch bump is recorded as
  /// insert-only — delta consumers at older epochs stay valid.
  Status AddFact(const std::string& name, const Tuple& t) {
    SettleLoans();
    auto it = relations_.find(name);
    if (it == relations_.end()) return Status::NotFound("relation " + name);
    GUMBO_RETURN_IF_ERROR(it->second.Add(t));
    RecordInsert(name, it->second.size());
    return Status::Ok();
  }

  /// Removes a (local) relation; returns false if absent. Destructive.
  bool Erase(const std::string& name) {
    SettleLoans();
    loans_.erase(name);
    if (relations_.erase(name) == 0) return false;
    RecordDestructive(name, /*rows=*/0);
    return true;
  }

  /// Settles every outstanding GetMutable loan: compares each loaned
  /// relation's version counters against the loan snapshot and bumps the
  /// stats epoch for the ones actually written (insert-only when rows
  /// were only appended, destructive when the arena was reshaped).
  /// Called implicitly by every mutating entry point; call explicitly
  /// after writing through a held pointer so StatsEpochOf (a const read)
  /// reflects the writes.
  void SettleLoans() {
    for (auto it = loans_.begin(); it != loans_.end();) {
      auto rel_it = relations_.find(it->first);
      if (rel_it == relations_.end()) {
        it = loans_.erase(it);
        continue;
      }
      const Relation& rel = rel_it->second;
      if (rel.shape_version() != it->second.shape_version) {
        RecordDestructive(it->first, rel.size());
      } else if (rel.append_version() != it->second.append_version) {
        RecordInsert(it->first, rel.size());
      }
      it->second =
          Loan{rel.append_version(), rel.shape_version()};  // re-arm
      ++it;
    }
  }

  /// Locally-stored relations only; an overlay does not enumerate its base.
  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

  size_t size() const { return relations_.size(); }

  /// Database-wide stats epoch: bumped by every settled mutation. Two
  /// equal readings bracket a mutation-free window.
  uint64_t stats_epoch() const { return stats_epoch_; }

  /// Epoch of the last mutation touching `name` (0 = never mutated here).
  /// Falls through to the base for relations not stored locally, so an
  /// overlay reports the base's epochs for the snapshot it reads.
  /// Const and pure: writes made through an outstanding GetMutable handle
  /// are visible here only after settlement (SettleLoans or the next
  /// mutating call).
  uint64_t StatsEpochOf(const std::string& name) const {
    auto it = relation_epochs_.find(name);
    if (it != relation_epochs_.end()) return it->second;
    if (base_ != nullptr && relations_.count(name) == 0) {
      return base_->StatsEpochOf(name);
    }
    return 0;
  }

  /// True iff every settled mutation of `name` after `epoch` was a pure
  /// insert — the rows that existed at `epoch` are a prefix of the rows
  /// now, so "the delta since `epoch`" is the arena tail past
  /// RowsAtEpoch(name, epoch). False when a destructive mutation
  /// intervened, when `epoch` predates the last destructive mutation, or
  /// for names without local delta history (conservative).
  bool InsertOnlySince(const std::string& name, uint64_t epoch) const {
    auto it = delta_states_.find(name);
    if (it == delta_states_.end()) return false;
    return epoch >= it->second.destructive_epoch;
  }

  /// Row count of `name` as of stats epoch `epoch` (which must be a value
  /// StatsEpochOf returned at some point); nullopt when unknown — the
  /// epoch predates retained watermark history or a destructive rewrite.
  std::optional<size_t> RowsAtEpoch(const std::string& name,
                                    uint64_t epoch) const {
    auto it = delta_states_.find(name);
    if (it == delta_states_.end()) return std::nullopt;
    const DeltaState& st = it->second;
    if (epoch == st.destructive_epoch) return st.rows_at_destructive;
    for (const Watermark& w : st.inserts) {
      if (w.epoch == epoch) return w.rows;
    }
    return std::nullopt;
  }

 private:
  struct Loan {
    uint64_t append_version = 0;
    uint64_t shape_version = 0;
  };
  struct Watermark {
    uint64_t epoch = 0;  ///< stats epoch stamped by the insert
    size_t rows = 0;     ///< relation row count right after it
  };
  struct DeltaState {
    /// Epoch of the last destructive mutation (Put/Create/Erase or a
    /// settled reshape); deltas are expressible only from epochs >= this.
    uint64_t destructive_epoch = 0;
    size_t rows_at_destructive = 0;
    /// Insert-only epoch bumps since then, ascending; bounded — the
    /// oldest watermarks are dropped and resolve as "unknown".
    std::vector<Watermark> inserts;
  };
  /// Insert watermarks retained per relation; epochs older than the
  /// retained window fall back to full recomputation, so this only caps
  /// how *stale* a delta consumer may be, never correctness.
  static constexpr size_t kMaxWatermarks = 64;

  void BumpStatsEpoch(const std::string& name) {
    relation_epochs_[name] = ++stats_epoch_;
  }

  void RecordInsert(const std::string& name, size_t rows) {
    BumpStatsEpoch(name);
    DeltaState& st = delta_states_[name];
    st.inserts.push_back(Watermark{stats_epoch_, rows});
    if (st.inserts.size() > kMaxWatermarks) {
      st.inserts.erase(st.inserts.begin());
    }
  }

  void RecordDestructive(const std::string& name, size_t rows) {
    BumpStatsEpoch(name);
    DeltaState& st = delta_states_[name];
    st.destructive_epoch = stats_epoch_;
    st.rows_at_destructive = rows;
    st.inserts.clear();
  }

  // std::map for deterministic iteration order.
  std::map<std::string, Relation> relations_;
  std::map<std::string, uint64_t> relation_epochs_;
  std::map<std::string, DeltaState> delta_states_;
  std::map<std::string, Loan> loans_;  ///< outstanding GetMutable loans
  uint64_t stats_epoch_ = 0;
  const Database* base_ = nullptr;
};

}  // namespace gumbo

#endif  // GUMBO_COMMON_RELATION_H_
