#include "ops/eval.h"

#include <memory>
#include <set>

#include "mr/combiner.h"
#include "ops/messages.h"

namespace gumbo::ops {

namespace {

// Compiled EVAL job description shared by all task instances.
struct CompiledEval {
  struct Task {
    sgf::BsgfQuery query;
    KeyProjection select;  // pi_{guard;select_vars} (DESIGN.md §7)
    size_t output_index = 0;
    uint64_t key_prefix = 0;  // raw word of the task id
  };
  std::vector<Task> tasks;
  // Input routing: an input is either a guard input of a task or an X_i.
  struct InputRoute {
    size_t task = 0;
    bool is_guard = false;
    uint32_t atom_index = 0;  // which conditional atom when !is_guard
  };
  std::vector<std::vector<InputRoute>> routes;  // per input index
  bool tuple_id_refs = true;
};

// Key layout: (task_id, guard-identity...), where the identity is the
// tuple id (id mode) or the full guard tuple.
class EvalMapper : public mr::Mapper {
 public:
  explicit EvalMapper(std::shared_ptr<const CompiledEval> c)
      : c_(std::move(c)) {}

  void Map(size_t input_index, RowView fact, uint64_t tuple_id,
           mr::Emitter* emitter) override {
    for (const auto& route : c_->routes[input_index]) {
      const auto& task = c_->tasks[route.task];
      if (route.is_guard) {
        if (!task.query.guard().Conforms(fact)) continue;
        if (c_->tuple_id_refs) {
          // Ship the guard tuple to resolve the id at the reducer.
          key_.Compose(
              {task.key_prefix,
               Value::Int(static_cast<int64_t>(tuple_id)).raw()},
              TupleView());
          emitter->EmitPrehashed(key_.key, key_.hash, kTagGuard, 0, fact,
                                 kTagBytes + mr::TupleWireBytes(fact));
        } else {
          key_.Compose({task.key_prefix}, fact);
          emitter->EmitPrehashed(key_.key, key_.hash, kTagGuard, 0,
                                 kTagBytes);
        }
      } else {
        // Membership fact of X_{atom_index}: the fact IS the identity
        // (an id in id mode, the guard tuple otherwise).
        key_.Compose({task.key_prefix}, fact);
        emitter->EmitPrehashed(key_.key, key_.hash, kTagX, route.atom_index,
                               kTagBytes + kSmallIdBytes);
      }
    }
  }

 private:
  std::shared_ptr<const CompiledEval> c_;
  ShuffleKey key_;  // per-emission key/fingerprint scratch
};

class EvalReducer : public mr::Reducer {
 public:
  explicit EvalReducer(std::shared_ptr<const CompiledEval> c)
      : c_(std::move(c)) {}

  void Reduce(TupleView key, const mr::MessageGroup& values,
              mr::ReduceEmitter* emitter) override {
    uint32_t task_id = static_cast<uint32_t>(key[0].AsInt());
    const auto& task = c_->tasks[task_id];
    // Zero-copy: the guard payload stays a view into the shuffle arena,
    // which outlives this call.
    TupleView guard_fact;
    bool have_guard = false;
    truth_.assign(task.query.num_conditional_atoms(), false);
    for (const mr::MessageRef m : values) {
      if (m.tag() == kTagGuard) {
        if (!have_guard) {
          guard_fact = m.PayloadView();
          have_guard = true;
        }
      } else if (m.tag() == kTagX) {
        truth_[m.aux()] = true;
      }
    }
    if (!have_guard) {
      // No guard fact for this key: X_i entries can only originate from
      // guard facts, so this indicates a plan bug in full-tuple mode; in
      // id mode it cannot happen either. Ignore defensively.
      return;
    }
    bool keep = true;
    if (task.query.has_condition()) {
      keep = task.query.condition()->Evaluate(
          [&](size_t i) { return truth_[i]; });
    }
    if (!keep) return;
    // Key = (task_id, guard tuple) without ids; the suffix view is the
    // fact.
    const TupleView fact =
        c_->tuple_id_refs ? guard_fact
                          : TupleView(key.words() + 1, key.size() - 1);
    emitter->Emit(task.output_index, task.select.Gather(fact, &out_));
  }

 private:
  std::shared_ptr<const CompiledEval> c_;
  std::vector<bool> truth_;
  std::vector<uint64_t> out_;  // projected output row scratch
};

}  // namespace

Result<mr::JobSpec> BuildEvalJob(const std::vector<EvalTask>& tasks,
                                 const OpOptions& options,
                                 const std::string& job_name) {
  if (tasks.empty()) {
    return Status::InvalidArgument("EVAL: no tasks");
  }
  auto compiled = std::make_shared<CompiledEval>();
  compiled->tuple_id_refs = options.tuple_id_refs;

  mr::JobSpec spec;
  spec.name = job_name;
  spec.pack_messages = options.pack_messages;

  std::vector<std::string> inputs;
  auto input_index_of = [&](const std::string& ds) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i] == ds) return i;
    }
    inputs.push_back(ds);
    return inputs.size() - 1;
  };

  std::set<std::string> output_names;
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    const EvalTask& in = tasks[ti];
    if (in.x_datasets.size() != in.query.num_conditional_atoms()) {
      return Status::InvalidArgument(
          "EVAL task " + in.query.output() + ": " +
          std::to_string(in.x_datasets.size()) + " X datasets for " +
          std::to_string(in.query.num_conditional_atoms()) + " atoms");
    }
    if (!output_names.insert(in.output_dataset).second) {
      return Status::InvalidArgument("EVAL: duplicate output " +
                                     in.output_dataset);
    }
    CompiledEval::Task task;
    task.query = in.query;
    task.select = KeyProjection::Of(in.query.guard(), in.query.select_vars());
    task.key_prefix = Value::Int(static_cast<int64_t>(ti)).raw();
    task.output_index = ti;
    compiled->tasks.push_back(std::move(task));

    size_t gi = input_index_of(in.guard_dataset);
    compiled->routes.resize(inputs.size());
    compiled->routes[gi].push_back({ti, true, 0});
    for (size_t ai = 0; ai < in.x_datasets.size(); ++ai) {
      size_t xi = input_index_of(in.x_datasets[ai]);
      compiled->routes.resize(inputs.size());
      compiled->routes[xi].push_back({ti, false, static_cast<uint32_t>(ai)});
    }

    mr::JobOutput out;
    out.dataset = in.output_dataset;
    out.arity = in.query.OutputArity();
    out.bytes_per_tuple = 10.0 * static_cast<double>(in.query.OutputArity());
    out.dedupe = true;
    spec.outputs.push_back(std::move(out));
  }
  compiled->routes.resize(inputs.size());
  for (const std::string& ds : inputs) spec.inputs.push_back({ds});

  spec.mapper_factory = [compiled] {
    return std::make_unique<EvalMapper>(compiled);
  };
  spec.reducer_factory = [compiled] {
    return std::make_unique<EvalReducer>(compiled);
  };
  // Dedup combiner only (DESIGN.md §5.1): EVAL's X-membership and guard
  // messages are set-semantic, but requests are never Bloom-filtered here
  // — a guard fact can produce output even when every X_i misses (e.g. a
  // fully negated condition), so no emission is provably droppable.
  if (options.combiners) {
    spec.combiner_factory = [] { return std::make_unique<mr::DedupCombiner>(); };
  }
  return spec;
}

}  // namespace gumbo::ops
