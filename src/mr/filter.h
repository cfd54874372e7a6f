// Bloom-filter pre-filtering of shuffle messages (DESIGN.md §5.2).
//
// Gumbo's semi-join jobs shuffle one Request message per (guard fact,
// equation) even when the request's join key cannot possibly match a
// conditional fact — the reducer then silently drops it. A per-condition
// Bloom filter over the conditional relation's projected join keys lets
// the mapper skip those requests entirely: a negative answer is exact
// ("no conditional fact has this key"), a false positive merely ships a
// request that the reducer drops as before. Query results are therefore
// byte-identical with filtering on or off; only shuffle volume changes.
//
// The operator builders (ops/msj.cc, ops/chain.cc, ops/one_round.cc)
// declare the filters through JobSpec::filter_builder: sized, empty
// filters plus the insert passes that fill them. The engine runs the
// passes once per job before the map phase (BuildFilters, one scheduler
// morsel per filter) and hands the resulting FilterSet to every mapper
// (see docs/operators.md for which message kinds of each operator are
// filter-eligible). Build and broadcast costs enter the modeled clock
// via cost::FilterBuildCost / cost::FilterBroadcastCost (DESIGN.md §5.3).
#ifndef GUMBO_MR_FILTER_H_
#define GUMBO_MR_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/relation.h"
#include "common/scheduler.h"

namespace gumbo::mr {

/// A classic (m bits, k hashes) Bloom filter over 64-bit key hashes
/// (DESIGN.md §5.2). Sized from an expected key count and a target
/// false-positive probability: m = -n ln(p) / (ln 2)^2, k = (m/n) ln 2.
/// Deterministic: the bit pattern depends only on the inserted hash set.
/// No false negatives, ever — that is what makes dropping a request on a
/// negative membership answer safe (docs/operators.md, "Filter rules").
class BloomFilter {
 public:
  /// Default target false-positive probability (ops::OpOptions can
  /// override per plan).
  static constexpr double kDefaultFpp = 0.01;

  /// An empty filter: contains nothing, occupies no bytes.
  BloomFilter() = default;

  /// Sizes the filter for `expected_keys` insertions at false-positive
  /// probability `fpp`. `expected_keys` of 0 is treated as 1.
  explicit BloomFilter(size_t expected_keys, double fpp = kDefaultFpp);

  /// Inserts a key by its 64-bit hash (e.g. Tuple::Hash of the join key).
  void Insert(uint64_t key_hash);

  /// Returns false only if the key was definitely never inserted.
  bool MightContain(uint64_t key_hash) const;

  /// Bitset size in bytes — what a broadcast of this filter ships
  /// (DESIGN.md §5.3); excludes the constant-size header.
  double SizeBytes() const { return static_cast<double>(words_.size()) * 8.0; }

  size_t num_bits() const { return words_.size() * 64; }
  int num_hashes() const { return num_hashes_; }

  /// Same size, hash count and bits.
  bool operator==(const BloomFilter& o) const {
    return num_hashes_ == o.num_hashes_ && words_ == o.words_;
  }
  bool operator!=(const BloomFilter& o) const { return !(*this == o); }

 private:
  std::vector<uint64_t> words_;
  int num_hashes_ = 0;
};

/// The per-job collection of Bloom filters built before the map phase
/// (DESIGN.md §5.2). The operator builder decides what each index means
/// (MSJ: one filter per condition id; chain: one per step; 1-ROUND: one
/// per key-group condition id — see docs/operators.md); mappers receive
/// the set via Mapper::AttachFilters and address filters by those
/// indices.
class FilterSet {
 public:
  /// Appends a filter, returning its index.
  size_t Add(BloomFilter filter) {
    filters_.push_back(std::move(filter));
    return filters_.size() - 1;
  }

  const BloomFilter& filter(size_t i) const { return filters_[i]; }
  /// Mutable access for the builder's insert pass.
  BloomFilter* mutable_filter(size_t i) { return &filters_[i]; }

  size_t size() const { return filters_.size(); }
  bool empty() const { return filters_.empty(); }

  /// Total bitset bytes across all filters (materialized; the engine
  /// scales by the representation scale, DESIGN.md §5.3).
  double SizeBytes() const {
    double b = 0.0;
    for (const BloomFilter& f : filters_) b += f.SizeBytes();
    return b;
  }

  /// Represented MB the build scanned to populate the filters (every
  /// input a pass read, once); the cost model charges one local read
  /// over it (cost::FilterBuildCost, DESIGN.md §5.3).
  double scan_mb() const { return scan_mb_; }
  void set_scan_mb(double mb) { scan_mb_ = mb; }

 private:
  std::vector<BloomFilter> filters_;
  double scan_mb_ = 0.0;
};

/// One insert pass of a job's filter build: every fact of job input
/// `input` for which `key` yields a hash inserts that hash into filter
/// `filter`. `key` returns false when the fact does not conform; it must
/// be a pure function of the fact (docs/operators.md, "Filter
/// declarations"), because passes run concurrently and in no fixed
/// order, and it owns (captures) whatever state it reads.
struct FilterPass {
  size_t filter = 0;
  size_t input = 0;
  std::function<bool(RowView fact, uint64_t* key_hash)> key;
};

/// What JobSpec::filter_builder declares: the sized, empty filters and
/// the passes that fill them.
struct FilterPlan {
  FilterSet filters;
  std::vector<FilterPass> passes;
};

/// Runs `plan`'s passes over `inputs` (JobSpec::inputs order), one
/// scheduler morsel per filter on `ctx`, and sets the set's scan_mb to
/// the represented MB of the distinct inputs the passes read. A filter's
/// bits are the OR of its keys' bits, so the result is identical to a
/// serial insert of the same passes for any worker count or order.
FilterSet BuildFilters(FilterPlan plan,
                       const std::vector<const Relation*>& inputs,
                       const SchedContext& ctx);

}  // namespace gumbo::mr

#endif  // GUMBO_MR_FILTER_H_
