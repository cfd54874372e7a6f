#include "ops/msj.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "mr/combiner.h"
#include "ops/messages.h"

namespace gumbo::ops {

namespace {

// Compiled form of an MSJ job, shared (read-only) by all mapper/reducer
// instances. Conformance is compiled into the atoms and every key
// projection is resolved to fact positions here, once per job
// (DESIGN.md §7).
struct CompiledMsj {
  struct Equation {
    sgf::Atom guard;
    sgf::Atom conditional;
    std::vector<std::string> key_vars;  // join key, kappa-order
    KeyProjection guard_key;            // pi_{guard;key_vars}
    KeyProjection cond_key;             // pi_{conditional;key_vars}
    uint32_t cond_id = 0;               // canonical condition id
    size_t output_index = 0;            // into JobSpec::outputs
    double payload_bytes = 0.0;         // request payload wire size
  };
  // One Assert emitter of an input: the first equation reading the input
  // as conditional under its condition id. Equations sharing a condition
  // id share the signature, so they conform and project identically and
  // assert the same message; `equations` counts them, because a filter
  // suppression is counted once per equation.
  struct Assert {
    size_t eq = 0;
    uint64_t equations = 0;
  };
  std::vector<Equation> equations;
  // Routing: per input dataset index, which equations read it as guard /
  // as conditional, and its distinct Asserts.
  std::vector<std::vector<size_t>> guard_eqs_of_input;
  std::vector<std::vector<size_t>> cond_eqs_of_input;
  std::vector<std::vector<Assert>> asserts_of_input;
  size_t num_conditions = 0;
  bool tuple_id_refs = true;
  // Bloom pre-filtering (DESIGN.md §5.2): one filter per condition id
  // (conditions sharing a signature share a filter, like Asserts).
  double filter_fpp = mr::BloomFilter::kDefaultFpp;
};

class MsjMapper : public mr::Mapper {
 public:
  explicit MsjMapper(std::shared_ptr<const CompiledMsj> c) : c_(std::move(c)) {}

  void AttachFilters(const mr::FilterSet* filters) override {
    filters_ = filters;
  }
  uint64_t SuppressedEmissions() const override { return suppressed_; }

  void Map(size_t input_index, RowView fact, uint64_t tuple_id,
           mr::Emitter* emitter) override {
    // Guard role: one request per equation this fact guards — unless the
    // condition's Bloom filter proves the key has no match (a semi-join
    // request with no Assert is dropped at the reducer anyway, so
    // skipping it here cannot change the result; DESIGN.md §5.2). The
    // key hash doubles as the emitter's grouping fingerprint; on identity
    // projections the stored row fingerprint is it, no hashing at all.
    for (size_t ei : c_->guard_eqs_of_input[input_index]) {
      const auto& eq = c_->equations[ei];
      if (!eq.guard.Conforms(fact)) continue;
      key_.Select(eq.guard_key, fact);
      if (filters_ != nullptr &&
          !filters_->filter(eq.cond_id).MightContain(key_.hash)) {
        ++suppressed_;
        continue;
      }
      const double wire = RequestWireBytes(eq.payload_bytes);
      if (c_->tuple_id_refs) {
        const uint64_t id = Value::Int(static_cast<int64_t>(tuple_id)).raw();
        emitter->EmitPrehashed(key_.key, key_.hash, kTagRequest,
                               static_cast<uint32_t>(ei), TupleView(&id, 1),
                               wire);
      } else {
        emitter->EmitPrehashed(key_.key, key_.hash, kTagRequest,
                               static_cast<uint32_t>(ei), fact, wire);
      }
    }
    // Conditional role: one assert per *distinct* (condition id, key) —
    // unless the guard-side filter proves no guard fact projects to this
    // key, in which case the assert can reach no request and is dead
    // weight (DESIGN.md §5.2, assert-side filtering).
    for (const CompiledMsj::Assert& a : c_->asserts_of_input[input_index]) {
      const auto& eq = c_->equations[a.eq];
      if (!eq.conditional.Conforms(fact)) continue;
      key_.Select(eq.cond_key, fact);
      if (filters_ != nullptr &&
          !filters_->filter(c_->num_conditions + eq.cond_id)
               .MightContain(key_.hash)) {
        suppressed_ += a.equations;
        continue;
      }
      emitter->EmitPrehashed(key_.key, key_.hash, kTagAssert, eq.cond_id,
                             AssertWireBytes());
    }
  }

 private:
  std::shared_ptr<const CompiledMsj> c_;
  const mr::FilterSet* filters_ = nullptr;
  uint64_t suppressed_ = 0;
  ShuffleKey key_;  // per-emission key/fingerprint scratch
};

class MsjReducer : public mr::Reducer {
 public:
  explicit MsjReducer(std::shared_ptr<const CompiledMsj> c)
      : c_(std::move(c)), asserted_(c_->num_conditions, false) {}

  void Reduce(TupleView key, const mr::MessageGroup& values,
              mr::ReduceEmitter* emitter) override {
    (void)key;
    std::fill(asserted_.begin(), asserted_.end(), false);
    for (const mr::MessageRef m : values) {
      if (m.tag() == kTagAssert) asserted_[m.aux()] = true;
    }
    for (const mr::MessageRef m : values) {
      if (m.tag() != kTagRequest) continue;
      const auto& eq = c_->equations[m.aux()];
      if (asserted_[eq.cond_id]) {
        // Zero-copy: payload words flow from the shuffle arena straight
        // into the output builder.
        emitter->Emit(eq.output_index, m.PayloadView());
      }
    }
  }

 private:
  std::shared_ptr<const CompiledMsj> c_;
  std::vector<bool> asserted_;
};

}  // namespace

Result<mr::JobSpec> BuildMsjJob(const std::vector<SemiJoinEquation>& equations,
                                const OpOptions& options,
                                const std::string& job_name) {
  if (equations.empty()) {
    return Status::InvalidArgument("MSJ: empty equation set");
  }
  // Output names pairwise distinct and disjoint from inputs.
  std::set<std::string> outputs;
  std::set<std::string> input_names;
  for (const auto& eq : equations) {
    if (!outputs.insert(eq.output).second) {
      return Status::InvalidArgument("MSJ: duplicate output " + eq.output);
    }
    input_names.insert(eq.guard_dataset);
    input_names.insert(eq.conditional_dataset);
  }
  for (const auto& out : outputs) {
    if (input_names.count(out) > 0) {
      return Status::InvalidArgument("MSJ: output " + out +
                                     " also appears as an input");
    }
  }

  auto compiled = std::make_shared<CompiledMsj>();
  compiled->tuple_id_refs = options.tuple_id_refs;

  mr::JobSpec spec;
  spec.name = job_name;
  spec.pack_messages = options.pack_messages;

  // Distinct input datasets, in first-mention order.
  std::vector<std::string> inputs;
  auto input_index_of = [&](const std::string& ds) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i] == ds) return i;
    }
    inputs.push_back(ds);
    return inputs.size() - 1;
  };

  // Condition ids: canonical signature -> id. The signature includes the
  // dataset (two atoms over different relation instances never share).
  std::map<std::string, uint32_t> cond_ids;

  for (size_t ei = 0; ei < equations.size(); ++ei) {
    const SemiJoinEquation& in = equations[ei];
    CompiledMsj::Equation eq;
    eq.guard = in.guard;
    eq.conditional = in.conditional;
    eq.key_vars = in.conditional.SharedVariables(in.guard);
    std::string sig =
        in.conditional_dataset + "|" +
        in.conditional.ConditionSignature(eq.key_vars);
    auto [it, inserted] =
        cond_ids.emplace(sig, static_cast<uint32_t>(cond_ids.size()));
    eq.cond_id = it->second;
    eq.payload_bytes = options.tuple_id_refs
                           ? kTupleIdBytes
                           : 10.0 * static_cast<double>(in.guard.arity());
    eq.output_index = ei;
    eq.guard_key = KeyProjection::Of(in.guard, eq.key_vars);
    eq.cond_key = KeyProjection::Of(in.conditional, eq.key_vars);
    compiled->equations.push_back(std::move(eq));

    size_t gi = input_index_of(in.guard_dataset);
    size_t ci = input_index_of(in.conditional_dataset);
    compiled->guard_eqs_of_input.resize(inputs.size());
    compiled->cond_eqs_of_input.resize(inputs.size());
    compiled->guard_eqs_of_input[gi].push_back(ei);
    compiled->cond_eqs_of_input[ci].push_back(ei);

    mr::JobOutput out;
    out.dataset = in.output;
    out.arity = options.tuple_id_refs ? 1 : in.guard.arity();
    out.bytes_per_tuple =
        options.tuple_id_refs ? kTupleIdBytes
                              : 10.0 * static_cast<double>(in.guard.arity());
    out.dedupe = false;
    spec.outputs.push_back(std::move(out));
  }
  compiled->guard_eqs_of_input.resize(inputs.size());
  compiled->cond_eqs_of_input.resize(inputs.size());
  compiled->num_conditions = cond_ids.size();
  compiled->asserts_of_input.resize(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    std::vector<CompiledMsj::Assert>& asserts = compiled->asserts_of_input[i];
    for (size_t ei : compiled->cond_eqs_of_input[i]) {
      const uint32_t cid = compiled->equations[ei].cond_id;
      auto it = std::find_if(asserts.begin(), asserts.end(),
                             [&](const CompiledMsj::Assert& a) {
                               return compiled->equations[a.eq].cond_id == cid;
                             });
      if (it == asserts.end()) {
        asserts.push_back({ei, 1});
      } else {
        ++it->equations;
      }
    }
  }

  // Inputs plus estimator hints: per input, the (upper-bound) message
  // count per tuple and the average message wire size, derived from the
  // equations routed to it. The signature lists the same routing: the
  // payload mode, then each equation's role and atom canonicalized
  // against its key — which facts conform, the key they project to and
  // the request payload width. Output names and equation indices stay
  // out: they never change the wire bytes or records a fact emits.
  for (size_t i = 0; i < inputs.size(); ++i) {
    mr::JobInput in;
    in.dataset = inputs[i];
    in.signature = options.tuple_id_refs ? "tid" : "tuple";
    double msgs = 0.0;
    double bytes = 0.0;
    for (size_t ei : compiled->guard_eqs_of_input[i]) {
      const auto& eq = compiled->equations[ei];
      msgs += 1.0;
      bytes += 10.0 * static_cast<double>(eq.key_vars.size()) +
               RequestWireBytes(eq.payload_bytes);
      in.signature += ";G:" + eq.guard.ConditionSignature(eq.key_vars);
    }
    for (size_t ei : compiled->cond_eqs_of_input[i]) {
      const auto& eq = compiled->equations[ei];
      msgs += 1.0;
      bytes += 10.0 * static_cast<double>(eq.key_vars.size()) +
               AssertWireBytes();
      in.signature += ";C:" + eq.conditional.ConditionSignature(eq.key_vars);
    }
    in.hint_messages_per_tuple = msgs;
    in.hint_bytes_per_message = msgs > 0.0 ? bytes / msgs : 0.0;
    spec.inputs.push_back(std::move(in));
  }

  spec.mapper_factory = [compiled] {
    return std::make_unique<MsjMapper>(compiled);
  };
  spec.reducer_factory = [compiled] {
    return std::make_unique<MsjReducer>(compiled);
  };
  // Map-side dedup combiner (DESIGN.md §5.1): collapses identical Asserts
  // emitted for one key by different facts of the same map task.
  if (options.combiners) {
    spec.combiner_factory = [] { return std::make_unique<mr::DedupCombiner>(); };
  }
  // Two-sided Bloom filters per condition id (DESIGN.md §5.2), built by
  // the engine from the resolved inputs: filters [0, C) hold conditional
  // join keys (suppress Requests whose key cannot be asserted), filters
  // [C, 2C) hold guard join keys (suppress Asserts whose key no Request
  // can carry — the reducer only ever emits Requests, so such Asserts are
  // dead weight).
  if (options.bloom_filters) {
    compiled->filter_fpp = options.filter_fpp;
    spec.filter_builder = [compiled](const std::vector<const Relation*>& rels)
        -> Result<mr::FilterPlan> {
      const size_t nc = compiled->num_conditions;
      // Size each filter for the largest input feeding it.
      std::vector<size_t> expected(2 * nc, 0);
      for (size_t i = 0; i < rels.size(); ++i) {
        for (size_t ei : compiled->cond_eqs_of_input[i]) {
          const auto& eq = compiled->equations[ei];
          expected[eq.cond_id] =
              std::max(expected[eq.cond_id], rels[i]->size());
        }
        // Guard-side filters take one insert pass per (input, equation)
        // and equations sharing a condition can read different guards,
        // so size for the *sum* of contributing passes (a max would
        // undersize the filter and inflate its false-positive rate).
        for (size_t ei : compiled->guard_eqs_of_input[i]) {
          const auto& eq = compiled->equations[ei];
          expected[nc + eq.cond_id] += rels[i]->size();
        }
      }
      mr::FilterPlan plan;
      for (size_t f = 0; f < 2 * nc; ++f) {
        plan.filters.Add(mr::BloomFilter(expected[f], compiled->filter_fpp));
      }
      // Conditional keys once per distinct condition id (equations
      // sharing a signature would insert the same keys twice); guard keys
      // go into the union filter of their equation's condition. The key
      // functions hash exactly what the mappers probe (ShuffleKeyHash).
      for (size_t i = 0; i < rels.size(); ++i) {
        for (const CompiledMsj::Assert& a : compiled->asserts_of_input[i]) {
          const auto& eq = compiled->equations[a.eq];
          plan.passes.push_back(
              {eq.cond_id, i,
               ConformingKeyHash(compiled, &eq.conditional, &eq.cond_key)});
        }
        for (size_t ei : compiled->guard_eqs_of_input[i]) {
          const auto& eq = compiled->equations[ei];
          plan.passes.push_back(
              {nc + eq.cond_id, i,
               ConformingKeyHash(compiled, &eq.guard, &eq.guard_key)});
        }
      }
      return plan;
    };
  }
  return spec;
}

}  // namespace gumbo::ops
