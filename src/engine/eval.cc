#include "engine/eval.h"

#include "base/logging.h"
#include "engine/plan_cache.h"

namespace wdl {

const std::string* ResolveSym(const SymTerm& sym, const Binding& binding,
                              std::string* storage) {
  if (sym.is_name()) return &sym.name();
  const Value* v = binding.Get(sym.var());
  if (v == nullptr || !v->is_string()) return nullptr;
  *storage = v->AsString();
  return storage;
}

bool SubstituteAtom(const Atom& atom, const Binding& binding, Atom* out) {
  auto sub_sym = [&](const SymTerm& sym, SymTerm* dst) {
    if (sym.is_name()) {
      *dst = sym;
      return true;
    }
    const Value* v = binding.Get(sym.var());
    if (v == nullptr) {
      *dst = sym;
      return true;
    }
    if (!v->is_string()) return false;
    *dst = SymTerm::Name(v->AsString());
    return true;
  };

  Atom result;
  result.negated = atom.negated;
  if (!sub_sym(atom.relation, &result.relation)) return false;
  if (!sub_sym(atom.peer, &result.peer)) return false;
  result.args.reserve(atom.args.size());
  for (const Term& t : atom.args) {
    if (t.is_constant()) {
      result.args.push_back(t);
      continue;
    }
    const Value* v = binding.Get(t.var());
    result.args.push_back(v != nullptr ? Term::Constant(*v) : t);
  }
  *out = std::move(result);
  return true;
}

void RuleEvaluator::Evaluate(const Rule& rule, const DeltaMap* delta,
                             int delta_pos, const Sinks& sinks) {
  if (!options_.use_compiled_plans) {
    Binding binding;
    MatchFrom(rule, 0, &binding, delta, delta_pos, sinks);
    return;
  }
  EvaluatePlan(PlanFor(rule), delta, delta_pos, sinks);
}

void RuleEvaluator::EvaluatePlan(const RulePlan& plan, const DeltaMap* delta,
                                 int delta_pos, const Sinks& sinks) {
  slots_.assign(plan.num_slots, nullptr);
  // A Δ-restricted evaluation prefers the Δ-first variant: the
  // iteration's work becomes proportional to |Δ| (later atoms probe
  // indexes through the Δ tuple's bindings) instead of a scan of the
  // leading atom. Valid only when the body's one constant peer is this
  // evaluator — otherwise atom 0 delegates and order is semantics.
  if (delta != nullptr && delta_pos >= 0 &&
      static_cast<size_t>(delta_pos) < plan.delta_variants.size()) {
    const DeltaVariant& v = plan.delta_variants[delta_pos];
    if (v.valid && plan.common_body_peer == self_sym_) {
      ExecFrom(plan, v.atoms, v.order.data(), 0, delta, 0, sinks);
      return;
    }
  }
  ExecFrom(plan, plan.atoms, nullptr, 0, delta, delta_pos, sinks);
}

const RulePlan& RuleEvaluator::PlanFor(const Rule& rule) {
  std::vector<LocalPlanEntry>& bucket = plans_[rule.Hash()];
  for (const LocalPlanEntry& entry : bucket) {
    if (entry.rule == rule) {
      ++counters_.plan_cache_hits;
      return *entry.plan;
    }
  }
  // First acquisition by this evaluator; the shared cache compiles only
  // if no α-equivalent plan is live anywhere in the process.
  // plans_compiled keeps its per-evaluator meaning (distinct rules this
  // evaluator resolved to plans) — the process-wide compile count is
  // SharedPlanCache::stats().
  bucket.push_back(LocalPlanEntry{rule, SharedPlanCache::Instance().Acquire(rule)});
  ++counters_.plans_compiled;
  return *bucket.back().plan;
}

bool RuleEvaluator::ExistsDerivation(const Rule& rule, const Fact& target) {
  // Note: callers decide what a match *means* — for derivation rules it
  // sustains the tuple (re-derivation), for deletion rules it re-arms a
  // deletion verdict. Both need the raw body-match answer.
  if (options_.use_compiled_plans) {
    return ExistsViaPlan(HeadBoundPlanFor(rule), target);
  }
  Binding binding;
  if (!UnifyHeadWithFact(rule, target, &binding)) return false;
  ++counters_.rederive_checks;
  exists_mode_ = true;
  exists_found_ = false;
  static const Sinks kNoSinks;
  MatchFrom(rule, 0, &binding, nullptr, -1, kNoSinks);
  exists_mode_ = false;
  return exists_found_;
}

const RulePlan& RuleEvaluator::HeadBoundPlanFor(const Rule& rule) {
  std::vector<LocalPlanEntry>& bucket = head_bound_plans_[rule.Hash()];
  for (const LocalPlanEntry& entry : bucket) {
    if (entry.rule == rule) {
      ++counters_.plan_cache_hits;
      return *entry.plan;
    }
  }
  bucket.push_back(LocalPlanEntry{
      rule, SharedPlanCache::Instance().AcquireHeadBound(rule)});
  ++counters_.plans_compiled;
  return *bucket.back().plan;
}

bool RuleEvaluator::ExistsViaPlan(const RulePlan& plan, const Fact& target) {
  if (plan.head.terms.size() != target.args.size()) return false;
  slots_.assign(plan.num_slots, nullptr);
  seed_values_.clear();
  seed_values_.reserve(target.args.size() + 2);

  // The compiled analogue of UnifyHeadWithFact: constants compare,
  // first occurrences seed their slot, repeats compare against the
  // seed.
  auto seed_slot = [&](uint16_t slot, const Value& v) {
    if (slots_[slot] != nullptr) return *slots_[slot] == v;
    seed_values_.push_back(v);
    slots_[slot] = &seed_values_.back();
    return true;
  };
  auto seed_sym = [&](const PlanSym& ps, const std::string& name) {
    if (ps.is_const) return ps.text == name;
    const Value* v = slots_[ps.slot];
    if (v != nullptr) return v->is_string() && v->AsString() == name;
    seed_values_.push_back(Value::String(name));
    slots_[ps.slot] = &seed_values_.back();
    return true;
  };
  if (!seed_sym(plan.head.relation, target.relation)) return false;
  if (!seed_sym(plan.head.peer, target.peer)) return false;
  for (size_t i = 0; i < target.args.size(); ++i) {
    const PlanTerm& pt = plan.head.terms[i];
    if (pt.op == PlanTerm::Op::kConst) {
      if (!(pt.value == target.args[i])) return false;
    } else {
      if (!seed_slot(pt.slot, target.args[i])) return false;
    }
  }

  ++counters_.rederive_checks;
  exists_mode_ = true;
  exists_found_ = false;
  static const Sinks kNoSinks;
  ExecFrom(plan, plan.atoms, nullptr, 0, nullptr, -1, kNoSinks);
  exists_mode_ = false;
  return exists_found_;
}

void RuleEvaluator::EvictPlan(const Rule& rule) {
  // Drops this evaluator's strong references (natural and head-bound
  // flavor alike); a shared entry expires when the last evaluator
  // holding the plan evicts it.
  auto evict_from =
      [&](std::unordered_map<uint64_t, std::vector<LocalPlanEntry>>* plans) {
        auto it = plans->find(rule.Hash());
        if (it == plans->end()) return;
        std::vector<LocalPlanEntry>& bucket = it->second;
        for (auto p = bucket.begin(); p != bucket.end(); ++p) {
          if (p->rule == rule) {
            bucket.erase(p);
            break;
          }
        }
        if (bucket.empty()) plans->erase(it);
      };
  evict_from(&plans_);
  evict_from(&head_bound_plans_);
}

// Unifies one stored tuple against the atom's compiled op sequence.
// Bind ops store pointers into resident tuple storage — no Value copy,
// no allocation. On failure, slots bound so far stay set; the caller
// unconditionally nulls `atom.bound_slots` after the attempt.
bool RuleEvaluator::UnifyTuple(const PlanAtom& atom, const Tuple& tuple) {
  const PlanTerm* terms = atom.terms.data();
  const size_t n = atom.terms.size();
  for (size_t i = 0; i < n; ++i) {
    const PlanTerm& pt = terms[i];
    switch (pt.op) {
      case PlanTerm::Op::kConst:
        if (!(pt.value == tuple[i])) return false;
        break;
      case PlanTerm::Op::kCheck:
        if (!(*slots_[pt.slot] == tuple[i])) return false;
        break;
      case PlanTerm::Op::kBind:
        slots_[pt.slot] = &tuple[i];
        break;
    }
  }
  return true;
}

void RuleEvaluator::ExecFrom(const RulePlan& plan,
                             const std::vector<PlanAtom>& atoms,
                             const uint16_t* order, size_t atom_index,
                             const DeltaMap* delta, int delta_pos,
                             const Sinks& sinks) {
  if (exists_mode_ && exists_found_) return;  // short-circuit: answered
  if (atom_index == atoms.size()) {
    if (exists_mode_) {
      exists_found_ = true;
      return;
    }
    EmitHeadPlan(plan, sinks);
    return;
  }
  const PlanAtom& atom = atoms[atom_index];
  const size_t source_index =
      order != nullptr ? order[atom_index] : atom_index;

  // Resolve the atom's location. Constant names were interned at
  // compile time; a variable name is read out of its slot. A slot that
  // is unbound (unsafe rule) or holds a non-string value makes the
  // branch dead, mirroring the interpreter's ResolveSym.
  Symbol rel_sym;  // invalid when a variable name is not interned
  if (atom.relation.is_const) {
    rel_sym = atom.relation.sym;
  } else {
    const Value* v = slots_[atom.relation.slot];
    if (v == nullptr || !v->is_string()) return;
    // Find, not Intern: a data string that names nothing must neither
    // match nor grow the symbol table.
    rel_sym = Symbol::Find(v->AsString());
  }

  const std::string* remote_peer = nullptr;
  if (atom.peer.is_const) {
    if (atom.peer.sym != self_sym_) remote_peer = &atom.peer.text;
  } else {
    const Value* v = slots_[atom.peer.slot];
    if (v == nullptr || !v->is_string()) return;
    if (v->AsString() != self_peer_) remote_peer = &v->AsString();
  }
  if (remote_peer != nullptr) {
    // Remote atom: delegate the residual rule to that peer. Never
    // reached under a Δ-first variant (single-peer body, evaluated at
    // that peer) or an existence check (local-only by definition).
    if (order == nullptr && !exists_mode_) {
      EmitDelegationPlan(plan, atom_index, *remote_peer, sinks);
    }
    return;
  }

  Relation* relation = rel_sym.valid() ? catalog_->Get(rel_sym) : nullptr;

  if (atom.negated) {
    if (atom.negated_unbound) {
      // Statically never ground; same diagnostic as the interpreter.
      Atom substituted;
      if (SubstituteCompiled(atom.relation, atom.peer, atom.terms,
                             plan.rule.body[source_index], slots_.data(),
                             &substituted)) {
        WDL_LOG(Error) << "negated atom not ground at evaluation time: "
                       << substituted.ToString();
      }
      return;
    }
    // Safety guarantees every slot read here was bound by the prefix.
    probe_scratch_.clear();
    for (const PlanTerm& pt : atom.terms) {
      probe_scratch_.push_back(pt.op == PlanTerm::Op::kConst
                                   ? pt.value
                                   : *slots_[pt.slot]);
    }
    ++counters_.negation_probes;
    bool present = relation != nullptr &&
                   probe_scratch_.size() == relation->arity() &&
                   relation->Contains(probe_scratch_);
    if (!present) {
      ExecFrom(plan, atoms, order, atom_index + 1, delta, delta_pos, sinks);
    }
    return;
  }

  // Unify one stored tuple with the atom's compiled ops, recurse on
  // success, then undo this atom's bindings. `visit` is passed to the
  // storage layer as a template parameter — no std::function, and with
  // the relation's reusable snapshot buffers the steady-state loop
  // performs no per-tuple heap allocation.
  auto visit = [&](const Tuple& tuple) {
    if (exists_mode_ && exists_found_) return;  // drain remaining probes
    ++counters_.tuples_examined;
    if (UnifyTuple(atom, tuple)) {
      counters_.slot_bindings += atom.bound_slots.size();
      ExecFrom(plan, atoms, order, atom_index + 1, delta, delta_pos, sinks);
    }
    for (uint16_t s : atom.bound_slots) slots_[s] = nullptr;
  };

  // Semi-naive: this atom is restricted to the Δ of its relation. The
  // compile-time access path applies here too — a bound key column
  // probes the Δ's lazy index instead of scanning the whole set.
  if (delta != nullptr && delta_pos == static_cast<int>(atom_index)) {
    if (!rel_sym.valid()) return;  // never derived: empty Δ
    auto it = delta->find(rel_sym);
    if (it == delta->end()) return;
    const DeltaSet& ds = it->second;
    if (options_.use_indexes && atom.index_column >= 0) {
      const Value& key = atom.index_key_is_const ? atom.index_const
                                                 : *slots_[atom.index_slot];
      ++counters_.delta_index_probes;
      ds.LookupEqual(static_cast<size_t>(atom.index_column), key,
                     [&](const Tuple& tuple) {
                       if (tuple.size() == atom.terms.size()) visit(tuple);
                     });
      return;
    }
    ++counters_.delta_scans;
    for (const Tuple& tuple : ds.tuples()) {
      if (tuple.size() == atom.terms.size()) visit(tuple);
    }
    return;
  }

  if (relation == nullptr) return;  // empty: no matches
  if (atom.terms.size() != relation->arity()) return;  // arity mismatch

  // Existence checks usually arrive with the atom fully ground (the
  // seeded head bound every variable, so the atom has no bind ops):
  // answer with one O(1) membership probe instead of walking an index
  // bucket — the compiled twin of the interpreter's ground fast path.
  if (exists_mode_ && atom.bound_slots.empty()) {
    probe_scratch_.clear();
    bool ground = true;
    for (const PlanTerm& pt : atom.terms) {
      if (pt.op == PlanTerm::Op::kConst) {
        probe_scratch_.push_back(pt.value);
        continue;
      }
      const Value* v = slots_[pt.slot];
      if (v == nullptr) {
        ground = false;
        break;
      }
      probe_scratch_.push_back(*v);
    }
    if (ground) {
      ++counters_.tuples_examined;
      if (relation->Contains(probe_scratch_)) {
        ExecFrom(plan, atoms, order, atom_index + 1, delta, delta_pos, sinks);
      }
      return;
    }
  }

  // Access path was chosen at compile time: the first column whose key
  // is known before the atom runs drives an index probe.
  if (options_.use_indexes && atom.index_column >= 0) {
    const Value& key = atom.index_key_is_const ? atom.index_const
                                               : *slots_[atom.index_slot];
    ++counters_.index_lookups;
    relation->LookupEqual(static_cast<size_t>(atom.index_column), key, visit);
    return;
  }
  ++counters_.full_scans;
  relation->ForEach(visit);
}

void RuleEvaluator::EmitHeadPlan(const RulePlan& plan, const Sinks& sinks) {
  const PlanHead& head = plan.head;
  if (head.dead) return;  // unsafe rule: a head variable never binds

  Fact& fact = fact_scratch_;
  if (head.relation.is_const) {
    fact.relation = head.relation.text;
  } else {
    const Value* v = slots_[head.relation.slot];
    if (v == nullptr || !v->is_string()) return;  // non-string name: dead
    fact.relation = v->AsString();
  }
  if (head.peer.is_const) {
    fact.peer = head.peer.text;
  } else {
    const Value* v = slots_[head.peer.slot];
    if (v == nullptr || !v->is_string()) return;
    fact.peer = v->AsString();
  }

  fact.args.clear();
  for (const PlanTerm& pt : head.terms) {
    if (pt.op == PlanTerm::Op::kConst) {
      fact.args.push_back(pt.value);
    } else {
      const Value* v = slots_[pt.slot];
      if (v == nullptr) return;  // unreachable for safe rules
      fact.args.push_back(*v);
    }
  }
  ++counters_.bindings_completed;
  if (fact.peer == self_peer_) {
    if (sinks.on_local_fact) sinks.on_local_fact(fact);
  } else {
    if (sinks.on_remote_fact) sinks.on_remote_fact(fact);
  }
}

void RuleEvaluator::EmitDelegationPlan(const RulePlan& plan,
                                       size_t split_index,
                                       const std::string& target,
                                       const Sinks& sinks) {
  Delegation d;
  d.origin_peer = self_peer_;
  d.target_peer = target;
  d.origin_rule_hash = plan.rule_hash;
  // The residual must keep the deletion flag: a split "-head :- body"
  // still deletes when its head finally derives at the target.
  d.rule.head_deletes = plan.rule.head_deletes;
  if (!SubstituteCompiled(plan.head.relation, plan.head.peer,
                          plan.head.terms, plan.rule.head, slots_.data(),
                          &d.rule.head)) {
    return;
  }
  d.rule.body.reserve(plan.atoms.size() - split_index);
  for (size_t i = split_index; i < plan.atoms.size(); ++i) {
    const PlanAtom& atom = plan.atoms[i];
    Atom substituted;
    if (!SubstituteCompiled(atom.relation, atom.peer, atom.terms,
                            plan.rule.body[i], slots_.data(),
                            &substituted)) {
      return;
    }
    d.rule.body.push_back(std::move(substituted));
  }
  ++counters_.delegations_emitted;
  if (sinks.on_delegation) sinks.on_delegation(d);
}

// --- AST interpreter (the seed semantics, kept as the oracle) ---------

void RuleEvaluator::MatchFrom(const Rule& rule, size_t atom_index,
                              Binding* binding, const DeltaMap* delta,
                              int delta_pos, const Sinks& sinks) {
  if (exists_mode_ && exists_found_) return;  // short-circuit: answered
  if (atom_index == rule.body.size()) {
    if (exists_mode_) {
      exists_found_ = true;
      return;
    }
    EmitHead(rule, *binding, sinks);
    return;
  }
  const Atom& atom = rule.body[atom_index];

  // Resolve the atom's location. Safety analysis guarantees relation and
  // peer variables are bound here; a binding of the wrong type (e.g. a
  // peer variable bound to an int) makes the branch dead.
  std::string rel_storage, peer_storage;
  const std::string* rel = ResolveSym(atom.relation, *binding, &rel_storage);
  const std::string* peer = ResolveSym(atom.peer, *binding, &peer_storage);
  if (rel == nullptr || peer == nullptr) return;

  if (*peer != self_peer_) {
    // Remote atom: delegate the residual rule to that peer. An
    // existence check asks for a complete *local* derivation, so a
    // remote atom is a dead branch there.
    if (!exists_mode_) EmitDelegation(rule, atom_index, *peer, *binding, sinks);
    return;
  }

  Relation* relation = catalog_->Get(*rel);

  if (atom.negated) {
    // Safety guarantees the atom is ground under `binding`.
    Atom ground;
    if (!SubstituteAtom(atom, *binding, &ground)) return;
    if (!ground.IsGround()) {
      WDL_LOG(Error) << "negated atom not ground at evaluation time: "
                     << ground.ToString();
      return;
    }
    Tuple probe;
    probe.reserve(ground.args.size());
    for (const Term& t : ground.args) probe.push_back(t.value());
    bool present = relation != nullptr &&
                   probe.size() == relation->arity() &&
                   relation->Contains(probe);
    if (!present) {
      MatchFrom(rule, atom_index + 1, binding, delta, delta_pos, sinks);
    }
    return;
  }

  if (relation == nullptr) return;  // empty: no matches
  if (atom.args.size() != relation->arity()) return;  // arity mismatch

  // Unify one stored tuple with the atom's argument terms.
  auto try_tuple = [&](const Tuple& tuple) {
    if (exists_mode_ && exists_found_) return;  // drain remaining probes
    ++counters_.tuples_examined;
    size_t mark = binding->Mark();
    bool ok = true;
    for (size_t i = 0; i < atom.args.size() && ok; ++i) {
      const Term& t = atom.args[i];
      if (t.is_constant()) {
        ok = t.value() == tuple[i];
        continue;
      }
      const Value* bound = binding->Get(t.var());
      if (bound != nullptr) {
        ok = *bound == tuple[i];
      } else {
        binding->Bind(t.var(), tuple[i]);
      }
    }
    if (ok) {
      MatchFrom(rule, atom_index + 1, binding, delta, delta_pos, sinks);
    }
    binding->Rewind(mark);
  };

  // Semi-naive: this atom is restricted to the Δ of its relation.
  if (delta != nullptr && delta_pos == static_cast<int>(atom_index)) {
    Symbol rel_sym = Symbol::Find(*rel);
    if (!rel_sym.valid()) return;  // never derived: empty Δ
    auto it = delta->find(rel_sym);
    if (it == delta->end()) return;
    for (const Tuple& tuple : it->second.tuples()) {
      if (tuple.size() == atom.args.size()) try_tuple(tuple);
    }
    return;
  }

  // Existence checks usually arrive with the atom fully ground (the
  // head target bound every variable): answer with one O(1) membership
  // probe instead of walking an index bucket.
  if (exists_mode_) {
    bool ground = true;
    probe_scratch_.clear();
    for (const Term& t : atom.args) {
      const Value* v = t.is_constant() ? &t.value() : binding->Get(t.var());
      if (v == nullptr) {
        ground = false;
        break;
      }
      probe_scratch_.push_back(*v);
    }
    if (ground) {
      ++counters_.tuples_examined;
      if (relation->Contains(probe_scratch_)) {
        MatchFrom(rule, atom_index + 1, binding, delta, delta_pos, sinks);
      }
      return;
    }
  }

  // Access-path selection: the first argument position carrying a
  // constant (literal or bound variable) drives an index lookup;
  // otherwise scan.
  if (options_.use_indexes) {
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& t = atom.args[i];
      const Value* key = nullptr;
      if (t.is_constant()) {
        key = &t.value();
      } else {
        key = binding->Get(t.var());
      }
      if (key != nullptr) {
        relation->LookupEqual(i, *key, try_tuple);
        return;
      }
    }
  }
  relation->ForEach(try_tuple);
}

void RuleEvaluator::EmitHead(const Rule& rule, const Binding& binding,
                             const Sinks& sinks) {
  std::string rel_storage, peer_storage;
  const std::string* rel =
      ResolveSym(rule.head.relation, binding, &rel_storage);
  const std::string* peer = ResolveSym(rule.head.peer, binding, &peer_storage);
  if (rel == nullptr || peer == nullptr) return;  // non-string name: dead

  Fact fact;
  fact.relation = *rel;
  fact.peer = *peer;
  fact.args.reserve(rule.head.args.size());
  for (const Term& t : rule.head.args) {
    if (t.is_constant()) {
      fact.args.push_back(t.value());
    } else {
      const Value* v = binding.Get(t.var());
      if (v == nullptr) return;  // unreachable for safe rules
      fact.args.push_back(*v);
    }
  }
  ++counters_.bindings_completed;
  if (fact.peer == self_peer_) {
    if (sinks.on_local_fact) sinks.on_local_fact(fact);
  } else {
    if (sinks.on_remote_fact) sinks.on_remote_fact(fact);
  }
}

void RuleEvaluator::EmitDelegation(const Rule& rule, size_t split_index,
                                   const std::string& target,
                                   const Binding& binding,
                                   const Sinks& sinks) {
  Delegation d;
  d.origin_peer = self_peer_;
  d.target_peer = target;
  d.origin_rule_hash = rule.Hash();
  // Keep the deletion flag on the residual (see EmitDelegationPlan).
  d.rule.head_deletes = rule.head_deletes;
  if (!SubstituteAtom(rule.head, binding, &d.rule.head)) return;
  d.rule.body.reserve(rule.body.size() - split_index);
  for (size_t i = split_index; i < rule.body.size(); ++i) {
    Atom substituted;
    if (!SubstituteAtom(rule.body[i], binding, &substituted)) return;
    d.rule.body.push_back(std::move(substituted));
  }
  ++counters_.delegations_emitted;
  if (sinks.on_delegation) sinks.on_delegation(d);
}

}  // namespace wdl
