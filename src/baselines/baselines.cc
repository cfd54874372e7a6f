#include "baselines/baselines.h"

#include <memory>

#include "ops/eval.h"
#include "ops/messages.h"
#include "ops/one_round.h"

namespace gumbo::baselines {

const char* BaselineName(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kHivePar:
      return "HPAR";
    case BaselineKind::kHiveParSemiJoin:
      return "HPARS";
    case BaselineKind::kPigPar:
      return "PPAR";
  }
  return "?";
}

namespace {

using ops::kTagAssert;
using ops::kTagGuard;
using ops::kTagRequest;
using ops::kTagX;

// ---- Left-outer-join job (HPAR, PPAR per-atom) ------------------------------
// Emits every guard row extended with one 0/1 match flag per atom. All
// atoms of one job must share the join key (single-atom jobs trivially do).
struct LojSpec {
  sgf::Atom guard;            // pattern over the first guard.arity() columns
  std::string input_dataset;  // guard relation or previous flagged output
  uint32_t input_arity = 0;   // guard.arity() + flags already appended
  bool filter_guard_pattern = false;
  std::vector<std::pair<sgf::Atom, std::string>> atoms;  // (atom, dataset)
  std::string output_dataset;
  double overhead = 1.0;
  mr::ReducerAllocation allocation =
      mr::ReducerAllocation::kByIntermediateSize;
};

struct CompiledLoj {
  LojSpec spec;
  std::vector<std::string> key_vars;  // shared join key of all atoms
};

class LojMapper : public mr::Mapper {
 public:
  explicit LojMapper(std::shared_ptr<const CompiledLoj> c) : c_(std::move(c)) {}

  void Map(size_t input_index, RowView fact, uint64_t,
           mr::Emitter* emitter) override {
    const LojSpec& s = c_->spec;
    if (input_index == 0) {
      // The guard pattern covers the first guard.arity() columns: a
      // zero-copy prefix view of the (possibly already-flagged) row.
      TupleView prefix(fact.words(), s.guard.arity());
      if (s.filter_guard_pattern && !s.guard.Conforms(prefix)) return;
      // Payload: the full (possibly already-flagged) row.
      emitter->Emit(s.guard.Project(prefix, c_->key_vars), kTagRequest, 0,
                    fact, ops::kTagBytes + mr::TupleWireBytes(fact));
    } else {
      const auto& [atom, ds] = s.atoms[input_index - 1];
      if (!atom.Conforms(fact)) return;
      // Hive/Pig ship the conditional tuple itself (wire size), though
      // only the match flag matters at the reducer.
      emitter->Emit(atom.Project(fact, c_->key_vars), kTagAssert,
                    static_cast<uint32_t>(input_index - 1),
                    ops::kTagBytes + mr::TupleWireBytes(fact));
    }
  }

 private:
  std::shared_ptr<const CompiledLoj> c_;
};

class LojReducer : public mr::Reducer {
 public:
  explicit LojReducer(std::shared_ptr<const CompiledLoj> c)
      : c_(std::move(c)) {}

  void Reduce(TupleView, const mr::MessageGroup& values,
              mr::ReduceEmitter* emitter) override {
    const size_t n = c_->spec.atoms.size();
    matched_.assign(n, false);
    for (const mr::MessageRef m : values) {
      if (m.tag() == kTagAssert) matched_[m.aux()] = true;
    }
    for (const mr::MessageRef m : values) {
      if (m.tag() != kTagRequest) continue;
      Tuple row = m.PayloadTuple();
      for (size_t a = 0; a < n; ++a) {
        row.PushBack(Value::Int(matched_[a] ? 1 : 0));
      }
      emitter->Emit(0, row);
    }
  }

 private:
  std::shared_ptr<const CompiledLoj> c_;
  std::vector<bool> matched_;
};

Result<mr::JobSpec> BuildLojJob(const LojSpec& in, const std::string& name) {
  auto compiled = std::make_shared<CompiledLoj>();
  compiled->spec = in;
  if (in.atoms.empty()) {
    return Status::InvalidArgument("LOJ job without atoms");
  }
  compiled->key_vars = in.atoms[0].first.SharedVariables(in.guard);
  for (const auto& [atom, ds] : in.atoms) {
    if (atom.SharedVariables(in.guard) != compiled->key_vars) {
      return Status::InvalidArgument(
          "LOJ job atoms must share one join key");
    }
  }
  mr::JobSpec spec;
  spec.name = name;
  spec.pack_messages = false;  // neither system packs gumbo-style
  spec.intermediate_overhead_factor = in.overhead;
  spec.reducer_allocation = in.allocation;
  spec.inputs.push_back({in.input_dataset});
  for (const auto& [atom, ds] : in.atoms) spec.inputs.push_back({ds});
  mr::JobOutput out;
  out.dataset = in.output_dataset;
  out.arity = in.input_arity + static_cast<uint32_t>(in.atoms.size());
  out.bytes_per_tuple = 10.0 * static_cast<double>(out.arity);
  spec.outputs.push_back(std::move(out));
  spec.mapper_factory = [compiled] {
    return std::make_unique<LojMapper>(compiled);
  };
  spec.reducer_factory = [compiled] {
    return std::make_unique<LojReducer>(compiled);
  };
  return spec;
}

// ---- Flag-combine job (HPAR / PPAR final stage) -----------------------------
// Reads flagged guard copies, reconciles per guard row, evaluates the
// condition, projects.
struct FlaggedSource {
  std::string dataset;
  // (column index, query atom index) for each flag column.
  std::vector<std::pair<uint32_t, size_t>> flags;
};

struct CompiledCombine {
  sgf::BsgfQuery query;
  std::vector<FlaggedSource> sources;
  double overhead = 1.0;
};

class CombineMapper : public mr::Mapper {
 public:
  explicit CombineMapper(std::shared_ptr<const CompiledCombine> c)
      : c_(std::move(c)) {}

  void Map(size_t input_index, RowView fact, uint64_t,
           mr::Emitter* emitter) override {
    const FlaggedSource& src = c_->sources[input_index];
    // Zero-copy prefix: the guard row is the first guard.arity() columns.
    TupleView key(fact.words(), c_->query.guard().arity());
    // Guard pattern filter: a no-op for rows that already passed an LOJ
    // job, but required when a source is the raw guard relation.
    if (!c_->query.guard().Conforms(key)) return;
    for (const auto& [col, atom] : src.flags) {
      if (fact[col] == Value::Int(1)) {
        emitter->Emit(key, kTagX, static_cast<uint32_t>(atom),
                      ops::kTagBytes + ops::kSmallIdBytes);
      }
    }
    if (input_index == 0) {
      emitter->Emit(key, kTagGuard, 0, ops::kTagBytes);
    }
  }

 private:
  std::shared_ptr<const CompiledCombine> c_;
};

class CombineReducer : public mr::Reducer {
 public:
  explicit CombineReducer(std::shared_ptr<const CompiledCombine> c)
      : c_(std::move(c)) {}

  void Reduce(TupleView key, const mr::MessageGroup& values,
              mr::ReduceEmitter* emitter) override {
    bool guard_present = false;
    truth_.assign(c_->query.num_conditional_atoms(), false);
    for (const mr::MessageRef m : values) {
      if (m.tag() == kTagGuard) guard_present = true;
      if (m.tag() == kTagX) truth_[m.aux()] = true;
    }
    if (!guard_present) return;
    bool keep = !c_->query.has_condition() ||
                c_->query.condition()->Evaluate(
                    [&](size_t i) { return truth_[i]; });
    if (!keep) return;
    emitter->Emit(0,
                  c_->query.guard().Project(key, c_->query.select_vars()));
  }

 private:
  std::shared_ptr<const CompiledCombine> c_;
  std::vector<bool> truth_;
};

Result<mr::JobSpec> BuildCombineJob(const sgf::BsgfQuery& query,
                                    std::vector<FlaggedSource> sources,
                                    double overhead,
                                    mr::ReducerAllocation allocation,
                                    const std::string& name) {
  auto compiled = std::make_shared<CompiledCombine>();
  compiled->query = query;
  compiled->sources = std::move(sources);
  compiled->overhead = overhead;
  mr::JobSpec spec;
  spec.name = name;
  spec.pack_messages = false;
  spec.intermediate_overhead_factor = overhead;
  spec.reducer_allocation = allocation;
  for (const auto& src : compiled->sources) {
    spec.inputs.push_back({src.dataset});
  }
  mr::JobOutput out;
  out.dataset = query.output();
  out.arity = query.OutputArity();
  out.bytes_per_tuple = 10.0 * static_cast<double>(out.arity);
  out.dedupe = true;
  spec.outputs.push_back(std::move(out));
  spec.mapper_factory = [compiled] {
    return std::make_unique<CombineMapper>(compiled);
  };
  spec.reducer_factory = [compiled] {
    return std::make_unique<CombineReducer>(compiled);
  };
  return spec;
}

// ---- Semi-join job with full-tuple shuffles (HPARS per-atom) ---------------

struct CompiledSemiFull {
  sgf::Atom guard;
  sgf::Atom conditional;
  std::vector<std::string> key_vars;
  bool filter_guard_pattern = true;
};

class SemiFullMapper : public mr::Mapper {
 public:
  explicit SemiFullMapper(std::shared_ptr<const CompiledSemiFull> c)
      : c_(std::move(c)) {}
  void Map(size_t input_index, RowView fact, uint64_t,
           mr::Emitter* emitter) override {
    if (input_index == 0) {
      if (c_->filter_guard_pattern && !c_->guard.Conforms(fact)) return;
      emitter->Emit(c_->guard.Project(fact, c_->key_vars), kTagRequest, 0,
                    fact, ops::kTagBytes + mr::TupleWireBytes(fact));
    } else {
      if (!c_->conditional.Conforms(fact)) return;
      emitter->Emit(c_->conditional.Project(fact, c_->key_vars), kTagAssert,
                    0, ops::kTagBytes + mr::TupleWireBytes(fact));
    }
  }

 private:
  std::shared_ptr<const CompiledSemiFull> c_;
};

class SemiFullReducer : public mr::Reducer {
 public:
  void Reduce(TupleView, const mr::MessageGroup& values,
              mr::ReduceEmitter* emitter) override {
    bool asserted = false;
    for (const mr::MessageRef m : values) {
      if (m.tag() == kTagAssert) {
        asserted = true;
        break;
      }
    }
    if (!asserted) return;
    for (const mr::MessageRef m : values) {
      if (m.tag() == kTagRequest) emitter->Emit(0, m.PayloadView());
    }
  }
};

Result<mr::JobSpec> BuildSemiFullJob(const sgf::Atom& guard,
                                     const std::string& guard_ds,
                                     const sgf::Atom& conditional,
                                     const std::string& cond_ds,
                                     const std::string& out_ds,
                                     double overhead,
                                     const std::string& name) {
  auto compiled = std::make_shared<CompiledSemiFull>();
  compiled->guard = guard;
  compiled->conditional = conditional;
  compiled->key_vars = conditional.SharedVariables(guard);
  mr::JobSpec spec;
  spec.name = name;
  spec.pack_messages = false;
  spec.intermediate_overhead_factor = overhead;
  spec.inputs.push_back({guard_ds});
  spec.inputs.push_back({cond_ds});
  mr::JobOutput out;
  out.dataset = out_ds;
  out.arity = guard.arity();
  out.bytes_per_tuple = 10.0 * static_cast<double>(guard.arity());
  spec.outputs.push_back(std::move(out));
  spec.mapper_factory = [compiled] {
    return std::make_unique<SemiFullMapper>(compiled);
  };
  spec.reducer_factory = [] { return std::make_unique<SemiFullReducer>(); };
  return spec;
}

// ---- Per-system planners ----------------------------------------------------

Status PlanHparQuery(const sgf::BsgfQuery& q, plan::QueryPlan* plan,
                     size_t* counter) {
  if (!q.has_condition()) {
    // Degenerate: a single LOJ-less projection via combine on the guard.
    GUMBO_ASSIGN_OR_RETURN(
        mr::JobSpec spec,
        BuildCombineJob(q, {{q.guard().relation(), {}}}, kHiveOverhead,
                        mr::ReducerAllocation::kByIntermediateSize,
                        "HIVE-PROJECT(" + q.output() + ")"));
    plan->program.AddJob(std::move(spec));
    return Status::Ok();
  }
  const auto& atoms = q.conditional_atoms();
  std::vector<size_t> chain_deps;
  std::string current = q.guard().relation();
  uint32_t arity = q.guard().arity();
  FlaggedSource final_src;
  if (q.AllAtomsShareJoinKey()) {
    // Hive groups same-key joins: one multi-way LOJ + the filter job.
    LojSpec loj;
    loj.guard = q.guard();
    loj.input_dataset = current;
    loj.input_arity = arity;
    loj.filter_guard_pattern = true;
    for (size_t a = 0; a < atoms.size(); ++a) {
      loj.atoms.push_back({atoms[a], atoms[a].relation()});
      final_src.flags.push_back(
          {arity + static_cast<uint32_t>(a), a});
    }
    loj.output_dataset = "__hive_" + q.output() + "_loj";
    loj.overhead = kHiveOverhead;
    GUMBO_ASSIGN_OR_RETURN(
        mr::JobSpec spec,
        BuildLojJob(loj, "HIVE-MWJOIN(" + q.output() + ")"));
    chain_deps = {plan->program.AddJob(std::move(spec))};
    final_src.dataset = loj.output_dataset;
  } else {
    // One LOJ per atom, chained sequentially (Hive's serialization).
    for (size_t a = 0; a < atoms.size(); ++a) {
      LojSpec loj;
      loj.guard = q.guard();
      loj.input_dataset = current;
      loj.input_arity = arity;
      loj.filter_guard_pattern = (a == 0);
      loj.atoms.push_back({atoms[a], atoms[a].relation()});
      loj.output_dataset =
          "__hive_" + q.output() + "_loj" + std::to_string((*counter)++);
        loj.overhead = kHiveOverhead;
      GUMBO_ASSIGN_OR_RETURN(
          mr::JobSpec spec,
          BuildLojJob(loj, "HIVE-LOJ(" + q.output() + "/" +
                               atoms[a].ToString() + ")"));
      size_t id = plan->program.AddJob(std::move(spec), chain_deps);
      chain_deps = {id};
      // The flag of atom `a` lands at the current row width (one column is
      // appended per chain job).
      final_src.flags.push_back({arity, a});
      current = loj.output_dataset;
      arity += 1;
    }
    final_src.dataset = current;
  }
  GUMBO_ASSIGN_OR_RETURN(
      mr::JobSpec spec,
      BuildCombineJob(q, {final_src}, kHiveOverhead,
                      mr::ReducerAllocation::kByIntermediateSize,
                      "HIVE-FILTER(" + q.output() + ")"));
  plan->program.AddJob(std::move(spec), chain_deps);
  return Status::Ok();
}

Status PlanHparsQuery(const sgf::BsgfQuery& q, plan::QueryPlan* plan,
                      size_t* counter) {
  ops::OpOptions opt;
  opt.tuple_id_refs = false;
  opt.pack_messages = false;
  // The baselines model systems without gumbo's shuffle-volume
  // optimizations (DESIGN.md §5).
  opt.bloom_filters = false;
  ops::EvalTask eval_task;
  eval_task.query = q;
  eval_task.guard_dataset = q.guard().relation();
  eval_task.output_dataset = q.output();
  std::vector<size_t> deps;
  for (size_t a = 0; a < q.num_conditional_atoms(); ++a) {
    std::string x =
        "__hives_" + q.output() + "_x" + std::to_string((*counter)++);
    GUMBO_ASSIGN_OR_RETURN(
        mr::JobSpec spec,
        BuildSemiFullJob(q.guard(), q.guard().relation(),
                         q.conditional_atoms()[a],
                         q.conditional_atoms()[a].relation(), x,
                         kHiveOverhead,
                         "HIVE-SJ(" + q.output() + "/" +
                             q.conditional_atoms()[a].ToString() + ")"));
    deps.push_back(plan->program.AddJob(std::move(spec)));
    eval_task.x_datasets.push_back(x);
  }
  GUMBO_ASSIGN_OR_RETURN(
      mr::JobSpec spec,
      ops::BuildEvalJob({eval_task}, opt,
                        "HIVE-INTERSECT(" + q.output() + ")"));
  spec.intermediate_overhead_factor = kHiveOverhead;
  plan->program.AddJob(std::move(spec), deps);
  return Status::Ok();
}

Status PlanPparQuery(const sgf::BsgfQuery& q, plan::QueryPlan* plan,
                     size_t* counter) {
  std::vector<FlaggedSource> sources;
  std::vector<size_t> deps;
  for (size_t a = 0; a < q.num_conditional_atoms(); ++a) {
    LojSpec loj;
    loj.guard = q.guard();
    loj.input_dataset = q.guard().relation();
    loj.input_arity = q.guard().arity();
    loj.filter_guard_pattern = true;
    loj.atoms.push_back({q.conditional_atoms()[a],
                         q.conditional_atoms()[a].relation()});
    loj.output_dataset =
        "__pig_" + q.output() + "_cg" + std::to_string((*counter)++);
    loj.overhead = kPigOverhead;
    loj.allocation = mr::ReducerAllocation::kByMapInputSize;
    GUMBO_ASSIGN_OR_RETURN(
        mr::JobSpec spec,
        BuildLojJob(loj, "PIG-COGROUP(" + q.output() + "/" +
                             q.conditional_atoms()[a].ToString() + ")"));
    deps.push_back(plan->program.AddJob(std::move(spec)));
    FlaggedSource src;
    src.dataset = loj.output_dataset;
    src.flags.push_back({q.guard().arity(), a});
    sources.push_back(std::move(src));
  }
  if (sources.empty()) {
    sources.push_back({q.guard().relation(), {}});
  }
  GUMBO_ASSIGN_OR_RETURN(
      mr::JobSpec spec,
      BuildCombineJob(q, std::move(sources), kPigOverhead,
                      mr::ReducerAllocation::kByMapInputSize,
                      "PIG-COMBINE(" + q.output() + ")"));
  plan->program.AddJob(std::move(spec), deps);
  return Status::Ok();
}

}  // namespace

Result<plan::QueryPlan> PlanBaseline(BaselineKind kind,
                                     const sgf::SgfQuery& query,
                                     const Database& db) {
  (void)db;
  // Flat queries only.
  sgf::DependencyGraph graph = query.BuildDependencyGraph();
  for (size_t v = 0; v < graph.size(); ++v) {
    if (!graph.Predecessors(v).empty()) {
      return Status::Unimplemented(
          "baseline planners support flat SGF queries only");
    }
  }
  plan::QueryPlan plan;
  size_t counter = 0;
  for (const auto& q : query.subqueries()) {
    plan.outputs.push_back(q.output());
    switch (kind) {
      case BaselineKind::kHivePar:
        GUMBO_RETURN_IF_ERROR(PlanHparQuery(q, &plan, &counter));
        break;
      case BaselineKind::kHiveParSemiJoin:
        GUMBO_RETURN_IF_ERROR(PlanHparsQuery(q, &plan, &counter));
        break;
      case BaselineKind::kPigPar:
        GUMBO_RETURN_IF_ERROR(PlanPparQuery(q, &plan, &counter));
        break;
    }
  }
  plan.description = plan.program.ToString();
  return plan;
}

}  // namespace gumbo::baselines
