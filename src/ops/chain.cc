#include "ops/chain.h"

#include <algorithm>
#include <memory>

#include "mr/combiner.h"
#include "ops/messages.h"

namespace gumbo::ops {

namespace {

struct CompiledStep {
  ChainStepSpec spec;
  // Key and output projections resolved to positions once per job
  // (DESIGN.md §7); identity keys reuse the stored row fingerprint.
  KeyProjection guard_key;
  KeyProjection cond_key;
  KeyProjection select;  // pi_{guard;select_vars}, when emit_projection
  // Bloom pre-filtering (DESIGN.md §5.2). Requests may be dropped on
  // *positive* steps only — an anti-join emits guards *without* matches,
  // so its requests must flow. Asserts at keys no input tuple projects to
  // are dead weight for both polarities (the reducer only emits
  // requests), so assert-side filtering is always on.
  bool request_filter = false;
  double filter_fpp = mr::BloomFilter::kDefaultFpp;
};

class ChainMapper : public mr::Mapper {
 public:
  explicit ChainMapper(std::shared_ptr<const CompiledStep> c)
      : c_(std::move(c)) {}

  void AttachFilters(const mr::FilterSet* filters) override {
    filters_ = filters;
  }
  uint64_t SuppressedEmissions() const override { return suppressed_; }

  void Map(size_t input_index, RowView fact, uint64_t tuple_id,
           mr::Emitter* emitter) override {
    (void)tuple_id;
    const ChainStepSpec& s = c_->spec;
    if (input_index == 0) {
      if (s.filter_guard_pattern && !s.guard.Conforms(fact)) return;
      key_.Select(c_->guard_key, fact);
      if (filters_ != nullptr && c_->request_filter &&
          !filters_->filter(0).MightContain(key_.hash)) {
        ++suppressed_;  // key provably unmatched: the semi-join drops it
        return;
      }
      emitter->EmitPrehashed(key_.key, key_.hash, kTagRequest, 0, fact,
                             RequestWireBytes(mr::TupleWireBytes(fact)));
    } else {
      if (!s.conditional.Conforms(fact)) return;
      key_.Select(c_->cond_key, fact);
      if (filters_ != nullptr &&
          !filters_->filter(1).MightContain(key_.hash)) {
        ++suppressed_;  // no input tuple can request this key
        return;
      }
      emitter->EmitPrehashed(key_.key, key_.hash, kTagAssert, 0,
                             AssertWireBytes());
    }
  }

 private:
  std::shared_ptr<const CompiledStep> c_;
  const mr::FilterSet* filters_ = nullptr;
  uint64_t suppressed_ = 0;
  ShuffleKey key_;  // per-emission key/fingerprint scratch
};

class ChainReducer : public mr::Reducer {
 public:
  explicit ChainReducer(std::shared_ptr<const CompiledStep> c)
      : c_(std::move(c)) {}

  void Reduce(TupleView key, const mr::MessageGroup& values,
              mr::ReduceEmitter* emitter) override {
    (void)key;
    bool asserted = false;
    for (const mr::MessageRef m : values) {
      if (m.tag() == kTagAssert) {
        asserted = true;
        break;
      }
    }
    const ChainStepSpec& s = c_->spec;
    if (asserted != s.positive) return;
    for (const mr::MessageRef m : values) {
      if (m.tag() != kTagRequest) continue;
      if (s.emit_projection) {
        emitter->Emit(0, c_->select.Gather(m.PayloadView(), &out_));
      } else {
        emitter->Emit(0, m.PayloadView());  // zero-copy forward
      }
    }
  }

 private:
  std::shared_ptr<const CompiledStep> c_;
  std::vector<uint64_t> out_;  // projected output row scratch
};

// Union/projection: map every chain-output tuple to its projection and
// emit the key once per group.
struct CompiledUnion {
  KeyProjection select;  // pi_{guard;select_vars} (DESIGN.md §7)
};

class UnionMapper : public mr::Mapper {
 public:
  explicit UnionMapper(std::shared_ptr<const CompiledUnion> c)
      : c_(std::move(c)) {}
  void Map(size_t input_index, RowView fact, uint64_t tuple_id,
           mr::Emitter* emitter) override {
    (void)input_index;
    (void)tuple_id;
    key_.Select(c_->select, fact);
    emitter->EmitPrehashed(key_.key, key_.hash, kTagGuard, 0, kTagBytes);
  }

 private:
  std::shared_ptr<const CompiledUnion> c_;
  ShuffleKey key_;  // per-emission key/fingerprint scratch
};

class UnionReducer : public mr::Reducer {
 public:
  void Reduce(TupleView key, const mr::MessageGroup& values,
              mr::ReduceEmitter* emitter) override {
    (void)values;
    emitter->Emit(0, key);  // zero-copy: key words into the output builder
  }
};

}  // namespace

Result<mr::JobSpec> BuildChainStepJob(const ChainStepSpec& step,
                                      const OpOptions& options,
                                      const std::string& job_name) {
  if (step.emit_projection && step.select_vars.empty()) {
    return Status::InvalidArgument("chain step " + job_name +
                                   ": projection without select vars");
  }
  auto compiled = std::make_shared<CompiledStep>();
  compiled->spec = step;
  const std::vector<std::string> key_vars =
      step.conditional.SharedVariables(step.guard);
  compiled->guard_key = KeyProjection::Of(step.guard, key_vars);
  compiled->cond_key = KeyProjection::Of(step.conditional, key_vars);
  if (step.emit_projection) {
    compiled->select = KeyProjection::Of(step.guard, step.select_vars);
  }
  compiled->request_filter = options.bloom_filters && step.positive;
  compiled->filter_fpp = options.filter_fpp;

  mr::JobSpec spec;
  spec.name = job_name;
  // Two logical inputs even when both sides read the same dataset: the
  // roles are distinguished by input index, and Hadoop would likewise read
  // a relation twice when it is mounted as two job inputs.
  spec.inputs.push_back({step.input_dataset});
  spec.inputs.push_back({step.conditional_dataset});

  mr::JobOutput out;
  out.dataset = step.output_dataset;
  if (step.emit_projection) {
    out.arity = static_cast<uint32_t>(step.select_vars.size());
    out.bytes_per_tuple = 10.0 * static_cast<double>(out.arity);
    out.dedupe = true;
  } else {
    out.arity = step.guard.arity();
    out.bytes_per_tuple = 10.0 * static_cast<double>(out.arity);
    out.dedupe = false;
  }
  spec.outputs.push_back(std::move(out));

  spec.mapper_factory = [compiled] {
    return std::make_unique<ChainMapper>(compiled);
  };
  spec.reducer_factory = [compiled] {
    return std::make_unique<ChainReducer>(compiled);
  };
  if (options.combiners) {
    spec.combiner_factory = [] { return std::make_unique<mr::DedupCombiner>(); };
  }
  if (options.bloom_filters) {
    // Filter 0: the conditional's projected join keys (input 1), used to
    // suppress requests on positive steps; filter 1: the input guard
    // set's projected keys (input 0), used to suppress dead asserts.
    spec.filter_builder = [compiled](const std::vector<const Relation*>& rels)
        -> Result<mr::FilterPlan> {
      const CompiledStep& c = *compiled;
      mr::FilterPlan plan;
      // Slot 0 stays empty (zero bytes) on anti-join steps.
      plan.filters.Add(c.request_filter
                           ? mr::BloomFilter(rels[1]->size(), c.filter_fpp)
                           : mr::BloomFilter());
      plan.filters.Add(mr::BloomFilter(rels[0]->size(), c.filter_fpp));
      if (c.request_filter) {
        plan.passes.push_back(
            {0, 1,
             ConformingKeyHash(compiled, &c.spec.conditional, &c.cond_key)});
      }
      plan.passes.push_back(
          {1, 0,
           ConformingKeyHash(
               compiled, c.spec.filter_guard_pattern ? &c.spec.guard : nullptr,
               &c.guard_key)});
      return plan;
    };
  }
  return spec;
}

Result<mr::JobSpec> BuildUnionProjectJob(
    const std::vector<std::string>& chain_outputs, const sgf::Atom& guard,
    const std::vector<std::string>& select_vars,
    const std::string& output_dataset, const OpOptions& options,
    const std::string& job_name) {
  if (chain_outputs.empty()) {
    return Status::InvalidArgument("union: no inputs");
  }
  auto compiled = std::make_shared<CompiledUnion>();
  compiled->select = KeyProjection::Of(guard, select_vars);

  mr::JobSpec spec;
  spec.name = job_name;
  for (const std::string& ds : chain_outputs) spec.inputs.push_back({ds});
  mr::JobOutput out;
  out.dataset = output_dataset;
  out.arity = static_cast<uint32_t>(select_vars.size());
  out.bytes_per_tuple = 10.0 * static_cast<double>(out.arity);
  out.dedupe = true;
  spec.outputs.push_back(std::move(out));
  spec.mapper_factory = [compiled] {
    return std::make_unique<UnionMapper>(compiled);
  };
  spec.reducer_factory = [] { return std::make_unique<UnionReducer>(); };
  // The union reducer only tests key existence, so per-task duplicate
  // markers combine away entirely (DESIGN.md §5.1).
  if (options.combiners) {
    spec.combiner_factory = [] { return std::make_unique<mr::DedupCombiner>(); };
  }
  return spec;
}

}  // namespace gumbo::ops
