// Job interfaces of the simulated MapReduce engine.
#ifndef GUMBO_MR_JOB_H_
#define GUMBO_MR_JOB_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "common/tuple.h"
#include "mr/filter.h"
#include "mr/map_output.h"
#include "mr/message.h"

namespace gumbo::mr {

/// Sink for reduce-side output tuples; output_index selects one of the
/// job's declared outputs. The engine's implementation encodes straight
/// into a flat RelationBuilder (common/relation.h), so emitted rows are
/// adopted by the output relation arena-wholesale.
class ReduceEmitter {
 public:
  virtual ~ReduceEmitter() = default;
  /// Emits an owning tuple (reducers that construct fresh rows).
  virtual void Emit(size_t output_index, const Tuple& tuple) = 0;
  /// Emits a borrowed flat row (reducers that forward payloads or keys
  /// verbatim) — the zero-copy path: words flow from the shuffle buffers
  /// into the output builder without a Tuple in between.
  virtual void Emit(size_t output_index, TupleView row) = 0;
};

/// User map function. One instance is created per map task, so Map may keep
/// per-task state without synchronization.
class Mapper {
 public:
  virtual ~Mapper() = default;
  /// Called once per input fact. `fact` is a zero-copy view of the stored
  /// row, carrying the relation's precomputed fingerprint — when the
  /// shuffle key is the fact itself, pass fact.fingerprint() to
  /// EmitPrehashed so the tuple is never hashed again after load
  /// (DESIGN.md §7). The view is valid for the duration of the call.
  /// `input_index` identifies which JobInput the fact came from;
  /// `tuple_id` is the fact's index within its input relation (stable
  /// across runs; used by the tuple-id optimization). Emissions go
  /// straight into the flat map-output buffer (mr/map_output.h) —
  /// `emitter` is a concrete class, not an interface, so the
  /// per-emission path pays no virtual dispatch.
  virtual void Map(size_t input_index, RowView fact, uint64_t tuple_id,
                   Emitter* emitter) = 0;

  /// Hands the mapper the job's Bloom filters (DESIGN.md §5.2) before any
  /// Map call; only invoked when JobSpec::filter_builder declared a
  /// non-empty FilterSet. `filters` outlives the mapper. Mappers that
  /// don't pre-filter ignore it.
  virtual void AttachFilters(const FilterSet* filters) { (void)filters; }

  /// Number of emissions this mapper suppressed because a Bloom filter
  /// proved the key cannot match (DESIGN.md §5.2); the engine aggregates
  /// it into JobStats::filtered_messages after the task finishes.
  virtual uint64_t SuppressedEmissions() const { return 0; }
};

/// User reduce function. One instance per reduce task.
class Reducer {
 public:
  virtual ~Reducer() = default;
  /// Called once per key group, keys in sorted order within the task.
  /// `key` and `values` are zero-copy views over the shuffle's flat
  /// buffers, valid only for the duration of the call; messages arrive in
  /// (map task, emission) order.
  virtual void Reduce(TupleView key, const MessageGroup& values,
                      ReduceEmitter* emitter) = 0;
};

/// Map-side combiner (DESIGN.md §5.1): reduces one map task's value list
/// for a single key before it is shuffled. A combiner must never merge
/// across reduce keys and must preserve the reducer's view up to set
/// semantics — the only combiner gumbo's operators use is the
/// set-semantics dedup of mr/combiner.h, which docs/operators.md proves
/// legal per operator. One instance is created per map task, so Combine
/// may keep scratch state without synchronization.
class Combiner {
 public:
  virtual ~Combiner() = default;
  /// Shrinks the `count` messages of one key group in place (the key in
  /// flat form: `key_arity` raw words at `key`; `payload_arena` resolves
  /// spilled payloads). Returns how many messages survive, compacted to
  /// the front of `values`. Must keep at least one message per surviving
  /// equivalence class and must not reorder the survivors.
  virtual size_t Combine(const uint64_t* key, uint32_t key_arity,
                         Message* values, size_t count,
                         const uint64_t* payload_arena) = 0;
};

/// How the engine picks the number of reduce tasks.
enum class ReducerAllocation {
  /// Gumbo §5.1 optimization (3): one reducer per mb_per_reducer of
  /// intermediate (map output) data.
  kByIntermediateSize,
  /// Pig's default policy: one reducer per GB of *map input* data.
  kByMapInputSize,
  /// Fixed count given in JobSpec::fixed_num_reducers.
  kFixed,
};

struct JobInput {
  std::string dataset;
  /// Planning hints used by the cost estimator when the dataset is not
  /// materialized yet (outputs of earlier plan stages). Operator builders
  /// fill these with structural upper bounds.
  double hint_messages_per_tuple = 1.0;
  double hint_bytes_per_message = -1.0;  ///< <0: assume input tuple size
  /// Canonical form of what the mapper emits for this input. Jobs over
  /// the same dataset with equal non-empty signatures and equal
  /// pack_messages emit the same wire bytes and records for every fact,
  /// so the cost estimator samples that pair once per planning call
  /// (DESIGN.md §10). It must capture everything the mapper's output on
  /// this input depends on, with no filters attached; empty (the
  /// default) promises nothing and is never memoized.
  std::string signature{};
};

struct JobOutput {
  std::string dataset;
  uint32_t arity = 0;
  /// Wire density of output tuples (defaults to 10 B per attribute).
  double bytes_per_tuple = 0.0;
  /// Whether the executor should canonicalize (sort + dedupe) the dataset
  /// after the job. Final query outputs set this; intermediate semi-join
  /// results are duplicate-free by construction.
  bool dedupe = false;
};

/// A full MapReduce job specification.
struct JobSpec {
  std::string name;
  std::vector<JobInput> inputs;
  std::vector<JobOutput> outputs;
  /// Factories: the engine instantiates one mapper per map task and one
  /// reducer per reduce task.
  std::function<std::unique_ptr<Mapper>()> mapper_factory;
  std::function<std::unique_ptr<Reducer>()> reducer_factory;
  /// Optional map-side combiner (DESIGN.md §5.1): one instance per map
  /// task, applied by the shuffle to every key group the task emits.
  /// Combined-away messages are accounted in JobStats::combined_messages.
  std::function<std::unique_ptr<Combiner>()> combiner_factory;
  /// Optional Bloom-filter declaration (DESIGN.md §5.2): called once per
  /// job with the resolved input relations (JobSpec::inputs order) before
  /// the map phase. It scans nothing: it returns the sized, empty filters
  /// and their insert passes, which the engine runs (mr::BuildFilters)
  /// before attaching the set to every mapper. Build/broadcast costs are
  /// charged per DESIGN.md §5.3.
  std::function<Result<FilterPlan>(const std::vector<const Relation*>&)>
      filter_builder;
  /// Message packing (Gumbo §5.1 optimization (1)): all values emitted by
  /// one map task for the same key share a single key header on the wire.
  bool pack_messages = true;
  ReducerAllocation reducer_allocation = ReducerAllocation::kByIntermediateSize;
  int fixed_num_reducers = 1;
  /// Multiplier on intermediate wire bytes; baselines use it to model
  /// serialization overhead of less compact systems.
  double intermediate_overhead_factor = 1.0;
};

}  // namespace gumbo::mr

#endif  // GUMBO_MR_JOB_H_
