// The serving layer's one query cache (DESIGN.md §8, §12): plan-cache
// key -> the immutable plan lowered for it and, when the result cache is
// on, the materialized canonical outputs that plan produced, validated
// against per-relation stats epochs.
//
// An entry is keyed by serve::PlanCacheKey (alpha-renaming-invariant
// query signature + planner-options fingerprint). The QueryService
// classifies what an entry found at the current epochs is good for: a
// *pure hit* (epochs match, outputs held: the stored outputs are the
// answer, byte for byte), a *plan hit* (epochs match, no outputs: skip
// planning, execute the stored plan), a *delta pass* (outputs held and
// the epochs moved insert-only: re-run the stored plan over the delta
// slices and union — serve/delta.h), or an invalidation (anything else:
// the entry is dropped and the query re-plans against the new data).
// Entries are shared immutable snapshots: a lookup hands out a
// shared_ptr<const Entry> and refreshes replace the entry wholesale, so
// concurrent readers never observe a half-updated entry. Capacity is
// bounded with LRU eviction; all operations are thread-safe.
#ifndef GUMBO_SERVE_QUERY_CACHE_H_
#define GUMBO_SERVE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/relation.h"
#include "plan/planner.h"

namespace gumbo::serve {

class QueryCache {
 public:
  /// Monotonic counters, readable at any time (counters()). Hits and
  /// misses count only queries that reach the plan path: pure hits and
  /// delta passes are ServiceStats::result_hits / delta_hits.
  struct Counters {
    uint64_t hits = 0;           ///< plans served without planning
    uint64_t misses = 0;         ///< plan-path lookups that found no plan
    uint64_t invalidations = 0;  ///< entries dropped: their epochs moved
    uint64_t evictions = 0;      ///< LRU capacity evictions
    uint64_t entries = 0;        ///< current size (gauge, not a counter)
  };

  /// One cached query. `outputs`, when held, are exactly the query's
  /// output relations, canonical (sorted + deduped) — the invariant that
  /// makes delta-union byte-identical to from-scratch evaluation. They are
  /// null for a plan-only entry: one a planning leader stores before it
  /// executes, or any entry while the result cache is off.
  struct Entry {
    std::vector<std::string> names;   ///< serve::EpochNamesOf order
    std::vector<uint64_t> epochs;     ///< stats epoch per name at capture
    plan::PlanRef plan;               ///< the lowered plan
    std::shared_ptr<const Database> outputs;
  };

  explicit QueryCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the entry for `key` (bumping its LRU position) or nullptr.
  /// Counts nothing: the caller classifies the entry and reports a
  /// plan-path outcome via NoteHit/NoteMiss, or drops it via Invalidate.
  std::shared_ptr<const Entry> Lookup(const std::string& key);

  /// Inserts or replaces the entry for `key`, evicting the least recently
  /// used entry when at capacity. A capacity of 0 disables storage.
  void Insert(const std::string& key, Entry entry);

  /// Drops the entry for `key` (if still present), counting an
  /// invalidation.
  void Invalidate(const std::string& key);

  void NoteHit();   ///< a plan served from the cache
  void NoteMiss();  ///< a plan-path lookup that has to plan

  Counters counters() const;

 private:
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<std::string>::iterator lru_it;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::unordered_map<std::string, Slot> slots_;
  Counters counters_;
};

}  // namespace gumbo::serve

#endif  // GUMBO_SERVE_QUERY_CACHE_H_
