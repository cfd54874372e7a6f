#include "ops/one_round.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "ops/messages.h"

namespace gumbo::ops {

bool CanOneRound(const sgf::BsgfQuery& query) {
  if (!query.has_condition()) return true;
  if (query.AllAtomsShareJoinKey()) return true;
  return query.condition()->IsDisjunctionOfLiterals();
}

namespace {

// A key group: the conditional atoms sharing one join key, evaluated
// together at a reducer.
struct KeyGroup {
  std::vector<std::string> key_vars;
  KeyProjection guard_key;  // pi_{guard;key_vars} (DESIGN.md §7)
  enum class Mode {
    kFullCondition,     // single group covering all atoms (case a)
    kLocalDisjunction,  // OR of this group's literals (case b)
    kUnconditional,     // no WHERE clause: emit always
  };
  Mode mode = Mode::kFullCondition;
  /// Atoms in this group; `negated` applies in kLocalDisjunction mode.
  struct Literal {
    uint32_t atom_index = 0;
    bool negated = false;
    uint32_t cond_id = 0;  // per-group canonical condition id
  };
  std::vector<Literal> literals;
  size_t num_cond_ids = 0;
  /// Bloom pre-filtering (DESIGN.md §5.2): a group's request may be
  /// dropped only when "zero Asserts at this key" already means "do not
  /// emit" — i.e. the condition with every atom false evaluates false
  /// (kFullCondition) or the disjunction has no negated literal
  /// (kLocalDisjunction). Never for kUnconditional groups.
  bool can_filter = false;
  /// First of this group's `num_cond_ids` request filters in the job
  /// FilterSet; SIZE_MAX when the group is not request-filterable.
  size_t filter_base = SIZE_MAX;
  /// Guard-key filter of this group for assert-side suppression: an
  /// Assert at a key no guard fact projects to can reach no Request, and
  /// the reducer only ever emits Requests — dead weight for every mode
  /// (DESIGN.md §5.2). SIZE_MAX when filters are off or the group has no
  /// conditional atoms.
  size_t assert_filter = SIZE_MAX;
};

struct CompiledOneRound {
  struct Task {
    sgf::BsgfQuery query;
    std::vector<KeyGroup> groups;
    KeyProjection select;  // pi_{guard;select_vars} (DESIGN.md §7)
    size_t output_index = 0;
    double payload_bytes = 0.0;  // SELECT projection wire size
  };
  std::vector<Task> tasks;
  size_t num_filters = 0;
  // One Assert emitter of an input: the first atom routed from the input
  // to a (task, group, condition id). Atoms sharing a condition id share
  // the signature, so they conform and project identically and assert
  // the same message; `atoms` counts them, because a filter suppression
  // is counted once per atom.
  struct CondRoute {
    size_t task;
    size_t group;
    uint32_t atom_index;
    uint32_t cond_id;
    KeyProjection key;  // pi_{atom;group key_vars}
    uint64_t atoms = 1;
  };
  // Input routing.
  std::vector<std::vector<size_t>> guard_tasks_of_input;
  std::vector<std::vector<CondRoute>> cond_routes_of_input;
};

// Key layout: (task_id, group_id, join-key values...).
uint64_t KeyWord(size_t id) {
  return Value::Int(static_cast<int64_t>(id)).raw();
}

class OneRoundMapper : public mr::Mapper {
 public:
  explicit OneRoundMapper(std::shared_ptr<const CompiledOneRound> c)
      : c_(std::move(c)) {}

  void AttachFilters(const mr::FilterSet* filters) override {
    filters_ = filters;
  }
  uint64_t SuppressedEmissions() const override { return suppressed_; }

  void Map(size_t input_index, RowView fact, uint64_t tuple_id,
           mr::Emitter* emitter) override {
    (void)tuple_id;
    for (size_t ti : c_->guard_tasks_of_input[input_index]) {
      const auto& task = c_->tasks[ti];
      if (!task.query.guard().Conforms(fact)) continue;
      const TupleView projection = task.select.Gather(fact, &payload_);
      for (size_t gi = 0; gi < task.groups.size(); ++gi) {
        const KeyGroup& group = task.groups[gi];
        // Drop the request only when every condition filter of the group
        // misses: no Assert can reach the reducer for this key, and the
        // group is marked safe to decide "false" on zero Asserts
        // (DESIGN.md §5.2).
        if (filters_ != nullptr && group.can_filter) {
          const uint64_t h = ShuffleKeyHash(group.guard_key, fact);
          bool might = false;
          for (size_t ci = 0; ci < group.num_cond_ids; ++ci) {
            if (filters_->filter(group.filter_base + ci).MightContain(h)) {
              might = true;
              break;
            }
          }
          if (!might) {
            ++suppressed_;
            continue;
          }
        }
        key_.Compose({KeyWord(ti), KeyWord(gi)}, group.guard_key, fact);
        emitter->EmitPrehashed(key_.key, key_.hash, kTagRequest, 0,
                               projection,
                               RequestWireBytes(task.payload_bytes));
      }
    }
    for (const auto& route : c_->cond_routes_of_input[input_index]) {
      const auto& task = c_->tasks[route.task];
      const sgf::Atom& atom =
          task.query.conditional_atoms()[route.atom_index];
      if (!atom.Conforms(fact)) continue;
      const KeyGroup& group = task.groups[route.group];
      if (filters_ != nullptr && group.assert_filter != SIZE_MAX &&
          !filters_->filter(group.assert_filter)
               .MightContain(ShuffleKeyHash(route.key, fact))) {
        suppressed_ += route.atoms;  // no guard fact can request this key
        continue;
      }
      key_.Compose({KeyWord(route.task), KeyWord(route.group)}, route.key,
                   fact);
      emitter->EmitPrehashed(key_.key, key_.hash, kTagAssert, route.cond_id,
                             AssertWireBytes());
    }
  }

 private:
  std::shared_ptr<const CompiledOneRound> c_;
  const mr::FilterSet* filters_ = nullptr;
  uint64_t suppressed_ = 0;
  ShuffleKey key_;                 // per-emission key/fingerprint scratch
  std::vector<uint64_t> payload_;  // SELECT projection scratch
};

class OneRoundReducer : public mr::Reducer {
 public:
  explicit OneRoundReducer(std::shared_ptr<const CompiledOneRound> c)
      : c_(std::move(c)) {}

  void Reduce(TupleView key, const mr::MessageGroup& values,
              mr::ReduceEmitter* emitter) override {
    size_t ti = static_cast<size_t>(key[0].AsInt());
    size_t gi = static_cast<size_t>(key[1].AsInt());
    const auto& task = c_->tasks[ti];
    const KeyGroup& group = task.groups[gi];
    asserted_.assign(group.num_cond_ids, false);
    for (const mr::MessageRef m : values) {
      if (m.tag() == kTagAssert) asserted_[m.aux()] = true;
    }
    bool holds = false;
    switch (group.mode) {
      case KeyGroup::Mode::kUnconditional:
        holds = true;
        break;
      case KeyGroup::Mode::kFullCondition: {
        // truth of atom i = asserted[cond_id of i]; atoms are indexed by
        // their position in the query.
        holds = task.query.condition()->Evaluate([&](size_t atom) {
          for (const auto& lit : group.literals) {
            if (lit.atom_index == atom) return !!asserted_[lit.cond_id];
          }
          return false;  // unreachable: all atoms are in the single group
        });
        break;
      }
      case KeyGroup::Mode::kLocalDisjunction: {
        for (const auto& lit : group.literals) {
          bool truth = asserted_[lit.cond_id];
          if (lit.negated ? !truth : truth) {
            holds = true;
            break;
          }
        }
        break;
      }
    }
    if (!holds) return;
    for (const mr::MessageRef m : values) {
      if (m.tag() == kTagRequest) {
        emitter->Emit(task.output_index, m.PayloadView());  // zero-copy
      }
    }
  }

 private:
  std::shared_ptr<const CompiledOneRound> c_;
  std::vector<bool> asserted_;
};

// Marks which atoms appear under NOT in a disjunction-of-literals tree.
void CollectLiteralSigns(const sgf::Condition& c, std::vector<bool>* negated) {
  switch (c.kind()) {
    case sgf::Condition::Kind::kAtom:
      return;
    case sgf::Condition::Kind::kNot:
      (*negated)[c.child()->atom_index()] = true;
      return;
    case sgf::Condition::Kind::kOr:
      CollectLiteralSigns(*c.lhs(), negated);
      CollectLiteralSigns(*c.rhs(), negated);
      return;
    case sgf::Condition::Kind::kAnd:
      // Unreachable for IsDisjunctionOfLiterals inputs.
      return;
  }
}

}  // namespace

Result<mr::JobSpec> BuildOneRoundJob(const std::vector<OneRoundTask>& tasks,
                                     const OpOptions& options,
                                     const std::string& job_name) {
  if (tasks.empty()) {
    return Status::InvalidArgument("1-ROUND: no tasks");
  }
  auto compiled = std::make_shared<CompiledOneRound>();

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
  auto grow_routes = [&] {
    compiled->guard_tasks_of_input.resize(inputs.size());
    compiled->cond_routes_of_input.resize(inputs.size());
  };

  std::set<std::string> output_names;
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    const OneRoundTask& in = tasks[ti];
    if (!CanOneRound(in.query)) {
      return Status::FailedPrecondition(
          "1-ROUND: query " + in.query.output() +
          " does not qualify (mixed keys with conjunction)");
    }
    if (in.conditional_datasets.size() != in.query.num_conditional_atoms()) {
      return Status::InvalidArgument(
          "1-ROUND: dataset count mismatch for " + in.query.output());
    }
    if (!output_names.insert(in.output_dataset).second) {
      return Status::InvalidArgument("1-ROUND: duplicate output " +
                                     in.output_dataset);
    }

    CompiledOneRound::Task task;
    task.query = in.query;
    task.select = KeyProjection::Of(in.query.guard(), in.query.select_vars());
    task.output_index = ti;
    task.payload_bytes =
        10.0 * static_cast<double>(in.query.select_vars().size());

    // Build key groups.
    const auto& atoms = in.query.conditional_atoms();
    if (!in.query.has_condition()) {
      KeyGroup g;
      g.mode = KeyGroup::Mode::kUnconditional;
      task.groups.push_back(std::move(g));
    } else if (in.query.AllAtomsShareJoinKey()) {
      KeyGroup g;
      g.mode = KeyGroup::Mode::kFullCondition;
      g.key_vars = in.query.JoinKeyOf(0);
      std::map<std::string, uint32_t> ids;
      for (uint32_t ai = 0; ai < atoms.size(); ++ai) {
        std::string sig = in.conditional_datasets[ai] + "|" +
                          atoms[ai].ConditionSignature(g.key_vars);
        auto [it, ins] = ids.emplace(sig, static_cast<uint32_t>(ids.size()));
        g.literals.push_back({ai, false, it->second});
      }
      g.num_cond_ids = ids.size();
      task.groups.push_back(std::move(g));
    } else {
      // Disjunction of literals: group atoms by join key. Literal signs
      // come from the condition tree (atom or NOT atom leaves).
      std::vector<bool> negated(atoms.size(), false);
      CollectLiteralSigns(*in.query.condition(), &negated);
      std::map<std::vector<std::string>, size_t> group_of_key;
      for (uint32_t ai = 0; ai < atoms.size(); ++ai) {
        std::vector<std::string> kv = in.query.JoinKeyOf(ai);
        auto [it, ins] = group_of_key.emplace(kv, task.groups.size());
        if (ins) {
          KeyGroup g;
          g.mode = KeyGroup::Mode::kLocalDisjunction;
          g.key_vars = kv;
          task.groups.push_back(std::move(g));
        }
        KeyGroup& g = task.groups[it->second];
        std::string sig = in.conditional_datasets[ai] + "|" +
                          atoms[ai].ConditionSignature(g.key_vars);
        // Per-group condition ids.
        uint32_t cid = 0;
        bool found = false;
        for (const auto& lit : g.literals) {
          std::string other_sig =
              in.conditional_datasets[lit.atom_index] + "|" +
              atoms[lit.atom_index].ConditionSignature(g.key_vars);
          if (other_sig == sig) {
            cid = lit.cond_id;
            found = true;
            break;
          }
        }
        if (!found) cid = static_cast<uint32_t>(g.num_cond_ids++);
        g.literals.push_back({ai, negated[ai], cid});
      }
    }

    // Filter eligibility per group (see KeyGroup::can_filter) and filter
    // index assignment: one Bloom filter per (group, condition id).
    if (options.bloom_filters) {
      for (KeyGroup& g : task.groups) {
        switch (g.mode) {
          case KeyGroup::Mode::kUnconditional:
            g.can_filter = false;
            break;
          case KeyGroup::Mode::kFullCondition:
            // Safe only if zero Asserts already decides "false".
            g.can_filter = !in.query.condition()->Evaluate(
                [](size_t) { return false; });
            break;
          case KeyGroup::Mode::kLocalDisjunction:
            g.can_filter = std::none_of(
                g.literals.begin(), g.literals.end(),
                [](const KeyGroup::Literal& l) { return l.negated; });
            break;
        }
        if (g.can_filter) {
          g.filter_base = compiled->num_filters;
          compiled->num_filters += g.num_cond_ids;
        }
        if (!g.literals.empty()) {
          g.assert_filter = compiled->num_filters++;
        }
      }
    }

    for (KeyGroup& g : task.groups) {
      g.guard_key = KeyProjection::Of(in.query.guard(), g.key_vars);
    }

    // Routing: one route per distinct (group, condition id) of an input;
    // later atoms with the same condition id only bump its atom count.
    size_t gi = input_index_of(in.guard_dataset);
    grow_routes();
    compiled->guard_tasks_of_input[gi].push_back(ti);
    for (uint32_t ai = 0; ai < atoms.size(); ++ai) {
      size_t ii = input_index_of(in.conditional_datasets[ai]);
      grow_routes();
      // Find the group and cond id of this atom.
      for (size_t g = 0; g < task.groups.size(); ++g) {
        for (const auto& lit : task.groups[g].literals) {
          if (lit.atom_index != ai) continue;
          auto& routes = compiled->cond_routes_of_input[ii];
          auto it = std::find_if(
              routes.begin(), routes.end(),
              [&](const CompiledOneRound::CondRoute& r) {
                return r.task == ti && r.group == g && r.cond_id == lit.cond_id;
              });
          if (it != routes.end()) {
            ++it->atoms;
            continue;
          }
          routes.push_back({ti, g, ai, lit.cond_id,
                            KeyProjection::Of(atoms[ai],
                                              task.groups[g].key_vars)});
        }
      }
    }
    compiled->tasks.push_back(std::move(task));

    mr::JobOutput out;
    out.dataset = in.output_dataset;
    out.arity = in.query.OutputArity();
    out.bytes_per_tuple = 10.0 * static_cast<double>(in.query.OutputArity());
    out.dedupe = true;
    spec.outputs.push_back(std::move(out));
  }
  grow_routes();
  for (const std::string& ds : inputs) spec.inputs.push_back({ds});

  spec.mapper_factory = [compiled] {
    return std::make_unique<OneRoundMapper>(compiled);
  };
  spec.reducer_factory = [compiled] {
    return std::make_unique<OneRoundReducer>(compiled);
  };
  if (options.bloom_filters && compiled->num_filters > 0) {
    spec.filter_builder = [compiled](const std::vector<const Relation*>& rels)
        -> Result<mr::FilterPlan> {
      // Size each filter for the largest input routed to it.
      std::vector<size_t> expected(compiled->num_filters, 0);
      for (size_t i = 0; i < rels.size(); ++i) {
        for (const auto& route : compiled->cond_routes_of_input[i]) {
          const KeyGroup& g =
              compiled->tasks[route.task].groups[route.group];
          if (!g.can_filter) continue;
          const size_t fid = g.filter_base + route.cond_id;
          expected[fid] = std::max(expected[fid], rels[i]->size());
        }
        for (size_t ti : compiled->guard_tasks_of_input[i]) {
          for (const KeyGroup& g : compiled->tasks[ti].groups) {
            if (g.assert_filter == SIZE_MAX) continue;
            expected[g.assert_filter] =
                std::max(expected[g.assert_filter], rels[i]->size());
          }
        }
      }
      mr::FilterPlan plan;
      for (size_t f = 0; f < compiled->num_filters; ++f) {
        plan.filters.Add(mr::BloomFilter(expected[f]));
      }
      for (size_t i = 0; i < rels.size(); ++i) {
        // Request filters: one pass per route (routes are already one per
        // distinct condition id of a group).
        for (const auto& route : compiled->cond_routes_of_input[i]) {
          const auto& task = compiled->tasks[route.task];
          const KeyGroup& g = task.groups[route.group];
          if (!g.can_filter) continue;
          plan.passes.push_back(
              {g.filter_base + route.cond_id, i,
               ConformingKeyHash(
                   compiled, &task.query.conditional_atoms()[route.atom_index],
                   &route.key)});
        }
        // Guard side: every eligible group of every task guarded by this
        // input feeds its assert filter.
        for (size_t ti : compiled->guard_tasks_of_input[i]) {
          const auto& task = compiled->tasks[ti];
          for (const KeyGroup& g : task.groups) {
            if (g.assert_filter == SIZE_MAX) continue;
            plan.passes.push_back(
                {g.assert_filter, i,
                 ConformingKeyHash(compiled, &task.query.guard(),
                                   &g.guard_key)});
          }
        }
      }
      return plan;
    };
  }
  return spec;
}

}  // namespace gumbo::ops
