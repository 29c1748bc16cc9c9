#include "engine/engine.h"

#include <algorithm>

#include "base/logging.h"
#include "base/string_util.h"

namespace wdl {

Engine::Engine(std::string self_peer, EngineOptions options)
    : self_peer_(std::move(self_peer)),
      self_sym_(Symbol::Intern(self_peer_)),
      options_(options),
      catalog_(self_peer_),
      evaluator_(&catalog_, self_peer_,
                 EvalOptions{options_.use_indexes,
                             options_.use_compiled_plans}) {}

Status Engine::LoadProgram(const Program& program,
                           std::vector<uint64_t>* rule_ids) {
  WDL_RETURN_IF_ERROR(ValidateProgram(program, options_.dialect));
  for (const RelationDecl& d : program.declarations) {
    WDL_RETURN_IF_ERROR(DeclareRelation(d));
  }
  for (const Fact& f : program.facts) {
    WDL_RETURN_IF_ERROR(InsertFact(f).status());
  }
  for (const Rule& r : program.rules) {
    WDL_ASSIGN_OR_RETURN(uint64_t id, AddRule(r));
    if (rule_ids != nullptr) rule_ids->push_back(id);
  }
  return Status::OK();
}

Status Engine::DeclareRelation(const RelationDecl& decl) {
  return catalog_.Declare(decl);
}

Status Engine::ValidateNewRule(const Rule& rule) const {
  WDL_RETURN_IF_ERROR(CheckRuleSafety(rule));
  if (rule.head_deletes && rule.head.HasConcreteLocation() &&
      rule.head.peer.name() == self_peer_) {
    const Relation* rel = catalog_.Get(rule.head.relation.name());
    if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
      return Status::FailedPrecondition(
          "deletion rule targets intensional relation " +
          rule.head.PredicateId() + "; views cannot be deleted from");
    }
  }
  bool negated = false;
  for (const Atom& a : rule.body) negated |= a.negated;
  if (negated && options_.dialect == Dialect::kPaper2013) {
    return Status::Unimplemented(
        "negation is not implemented in the 2013 system (rule: " +
        rule.ToString() + ")");
  }
  if (negated) {
    // The new rule must stratify together with the existing program.
    std::vector<Rule> all;
    all.reserve(rules_.size() + 1);
    for (const InstalledRule& ir : rules_) all.push_back(ir.rule);
    all.push_back(rule);
    WDL_ASSIGN_OR_RETURN(Stratification s, Stratify(all));
    (void)s;
  }
  return Status::OK();
}

void Engine::NoteRuleSetChanged() {
  dirty_ = true;
  rules_changed_ = true;
}

Result<uint64_t> Engine::AddRule(const Rule& rule) {
  WDL_RETURN_IF_ERROR(ValidateNewRule(rule));
  InstalledRule ir;
  ir.id = next_rule_id_++;
  ir.rule = rule;
  ir.origin_peer = self_peer_;
  ir.rule_hash = rule.Hash();
  ir.info = ComputeStaticInfo(rule);
  rules_.push_back(std::move(ir));
  NoteRuleSetChanged();
  return rules_.back().id;
}

Status Engine::RemoveRule(uint64_t id) {
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if (it->id == id) {
      evaluator_.EvictPlan(it->rule);
      rules_.erase(it);
      NoteRuleSetChanged();
      return Status::OK();
    }
  }
  return Status::NotFound("no rule with id " + std::to_string(id));
}

Status Engine::InstallDelegatedRule(const Delegation& delegation) {
  if (delegation.target_peer != self_peer_) {
    return Status::InvalidArgument(StrFormat(
        "delegation targets peer '%s', not '%s'",
        delegation.target_peer.c_str(), self_peer_.c_str()));
  }
  WDL_RETURN_IF_ERROR(ValidateNewRule(delegation.rule));
  uint64_t key = delegation.Key();
  for (const InstalledRule& ir : rules_) {
    if (ir.delegation_key == key) return Status::OK();  // idempotent
  }
  InstalledRule ir;
  ir.id = next_rule_id_++;
  ir.rule = delegation.rule;
  ir.origin_peer = delegation.origin_peer;
  ir.delegation_key = key;
  ir.rule_hash = delegation.rule.Hash();
  ir.info = ComputeStaticInfo(delegation.rule);
  rules_.push_back(std::move(ir));
  NoteRuleSetChanged();
  return Status::OK();
}

void Engine::RetractDelegatedRule(uint64_t delegation_key) {
  dirty_ = true;
  size_t before = rules_.size();
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [&](const InstalledRule& ir) {
                                if (ir.delegation_key != delegation_key) {
                                  return false;
                                }
                                evaluator_.EvictPlan(ir.rule);
                                return true;
                              }),
               rules_.end());
  if (rules_.size() != before) NoteRuleSetChanged();
}

Status Engine::RestoreInstalledRule(uint64_t id, const Rule& rule,
                                    const std::string& origin_peer,
                                    uint64_t delegation_key) {
  WDL_RETURN_IF_ERROR(ValidateNewRule(rule));
  InstalledRule ir;
  ir.id = id;
  ir.rule = rule;
  ir.origin_peer = origin_peer;
  ir.delegation_key = delegation_key;
  ir.rule_hash = rule.Hash();
  ir.info = ComputeStaticInfo(rule);
  rules_.push_back(std::move(ir));
  if (id >= next_rule_id_) next_rule_id_ = id + 1;
  NoteRuleSetChanged();
  return Status::OK();
}

void Engine::SetNextRuleId(uint64_t id) {
  if (id > next_rule_id_) next_rule_id_ = id;
}

void Engine::RestoreSliceStream(const std::string& relation,
                                const std::string& sender, uint64_t version,
                                const std::vector<Tuple>& tuples) {
  TupleSet slice;
  slice.reserve(tuples.size());
  for (const Tuple& t : tuples) slice.insert(t);
  slice_store_.RestoreStream(relation, sender, version, std::move(slice));
}

void Engine::RestoreSentContribution(const std::string& target_peer,
                                     const std::string& relation,
                                     uint64_t version,
                                     const std::vector<Tuple>& tuples) {
  SentContribution& sent =
      sent_contributions_[ContributionKey{target_peer, relation}];
  sent.version = version;
  sent.tuples.clear();
  sent.tuples.reserve(tuples.size());
  for (const Tuple& t : tuples) sent.tuples.insert(t);
}

void Engine::RestoreSentDelegation(const Delegation& delegation) {
  sent_delegations_[delegation.Key()] = delegation;
}

void Engine::ApplyShippedDelta(const DerivedDelta& delta) {
  SentContribution& sent = sent_contributions_[ContributionKey{
      delta.target_peer, delta.relation}];
  if (delta.snapshot) {
    // Resync snapshots re-ship the current set at the current version;
    // only a snapshot at-or-ahead of the restored state replaces it.
    if (delta.version < sent.version) return;
    sent.version = delta.version;
    sent.tuples.clear();
    for (const Tuple& t : delta.inserts) sent.tuples.insert(t);
    return;
  }
  // Deltas move the stream base_version -> version; a replayed
  // duplicate (version already reached) must not re-apply.
  if (delta.version <= sent.version) return;
  sent.version = delta.version;
  for (const Tuple& t : delta.deletes) sent.tuples.erase(t);
  for (const Tuple& t : delta.inserts) sent.tuples.insert(t);
}

void Engine::ApplyShippedDelegationRetract(uint64_t delegation_key) {
  sent_delegations_.erase(delegation_key);
}

uint64_t Engine::SentStreamVersion(const std::string& target_peer,
                                   const std::string& relation) const {
  auto it =
      sent_contributions_.find(ContributionKey{target_peer, relation});
  return it == sent_contributions_.end() ? 0 : it->second.version;
}

Result<bool> Engine::InsertFact(const Fact& fact) {
  if (fact.peer != self_peer_) {
    return Status::InvalidArgument("InsertFact of remote fact " +
                                   fact.ToString() +
                                   "; route it through the runtime");
  }
  const Relation* rel = catalog_.Get(fact.relation);
  if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
    return Status::FailedPrecondition(
        "relation " + fact.PredicateId() +
        " is intensional (a view); base updates are not allowed");
  }
  dirty_ = true;
  Result<bool> r = catalog_.InsertFact(fact);
  if (options_.use_incremental_maintenance && r.ok() && *r) {
    direct_changes_.RecordInsert(fact.relation, fact.args);
  }
  return r;
}

Result<bool> Engine::RemoveFact(const Fact& fact) {
  if (fact.peer != self_peer_) {
    return Status::InvalidArgument("RemoveFact of remote fact " +
                                   fact.ToString());
  }
  const Relation* rel = catalog_.Get(fact.relation);
  if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
    return Status::FailedPrecondition(
        "relation " + fact.PredicateId() +
        " is intensional (a view); base updates are not allowed");
  }
  dirty_ = true;
  Result<bool> r = catalog_.RemoveFact(fact);
  if (options_.use_incremental_maintenance && r.ok() && *r) {
    direct_changes_.RecordRemove(fact.relation, fact.args);
  }
  return r;
}

void Engine::EnqueueFactInserts(std::vector<Fact> facts) {
  for (Fact& f : facts) inbound_inserts_.push_back(std::move(f));
}

void Engine::EnqueueFactDeletes(std::vector<Fact> facts) {
  for (Fact& f : facts) inbound_deletes_.push_back(std::move(f));
}

void Engine::EnqueueDerivedSet(const std::string& sender, DerivedSet set) {
  // Full-slice sets are version-less snapshots: both protocols flow
  // through one queue so application order matches arrival order.
  InboundDerived in;
  in.sender = sender;
  in.versioned = false;
  in.delta.target_peer = std::move(set.target_peer);
  in.delta.relation = std::move(set.relation);
  in.delta.snapshot = true;
  in.delta.inserts = std::move(set.tuples);
  inbound_derived_.push_back(std::move(in));
}

void Engine::EnqueueDerivedDelta(const std::string& sender,
                                 DerivedDelta delta) {
  InboundDerived in;
  in.sender = sender;
  in.versioned = true;
  in.delta = std::move(delta);
  inbound_derived_.push_back(std::move(in));
}

void Engine::EnqueueResyncRequest(const std::string& peer,
                                  const std::string& relation) {
  pending_resync_serves_.emplace(peer, relation);
  dirty_ = true;  // the snapshot must go out even with no local change
}

void Engine::NoteLinkReset(const std::string& peer) {
  if (peer == self_peer_) return;
  if (options_.preserve_streams_on_reset) {
    // Durable-peer mode: stream versions on both sides survived the
    // restart, so the amnesty below would only buy redundant full
    // snapshots. Delegations still re-ship (installs are idempotent by
    // key and the receiver may genuinely lack one), and any real gap —
    // deltas shipped while the link was down — surfaces through
    // heartbeats and is repaired per stream.
    for (const auto& [dkey, d] : sent_delegations_) {
      if (d.target_peer == peer) pending_delegation_reships_.insert(dkey);
    }
    dirty_ = true;
    return;
  }
  // Outbound: re-ship every stream and delegation held for `peer`, as
  // if it had requested a resync of each.
  for (const auto& [key, sent] : sent_contributions_) {
    if (key.target_peer == peer) {
      pending_resync_serves_.emplace(peer, key.relation);
    }
  }
  for (const auto& [dkey, d] : sent_delegations_) {
    if (d.target_peer == peer) pending_delegation_reships_.insert(dkey);
  }
  // Inbound: version continuity of `peer`'s streams is gone. Forget the
  // positions and ask for fresh snapshots; any snapshot that arrives
  // before the request goes out (version >= 1 against the reset
  // position) heals the stream and suppresses the request.
  for (const std::string& relation :
       slice_store_.RelationsFromSender(peer)) {
    uint64_t& missing = resync_needed_[{peer, relation}];
    missing = std::max<uint64_t>(missing, 1);
  }
  slice_store_.ResetStreamVersions(peer);
  dirty_ = true;  // the re-ships and requests must go out in a stage
}

bool Engine::HasPendingWork() const {
  return dirty_ || !inbound_inserts_.empty() || !inbound_deletes_.empty() ||
         !inbound_derived_.empty() || !pending_resync_serves_.empty() ||
         !pending_delegation_reships_.empty() ||
         !pending_stream_forgets_.empty() ||
         !pending_self_updates_.empty() || !pending_self_deletes_.empty() ||
         !pending_delete_rechecks_.empty() || !ran_any_stage_;
}

void Engine::ApplyInputs(StageStats* stats, bool* changed,
                         StageChangeLog* log) {
  (void)stats;
  // Deferred self-updates from the previous stage land first.
  for (const Fact& f : pending_self_updates_) {
    Result<bool> r = catalog_.InsertFact(f);
    if (!r.ok()) {
      WDL_LOG(Error) << "self-update " << f.ToString()
                     << " failed: " << r.status();
    } else if (*r) {
      *changed = true;
      if (log != nullptr) log->RecordInsert(f.relation, f.args);
    }
  }
  pending_self_updates_.clear();

  for (const Fact& f : pending_self_deletes_) {
    Result<bool> r = catalog_.RemoveFact(f);
    if (r.ok() && *r) {
      *changed = true;
      if (log != nullptr) log->RecordRemove(f.relation, f.args);
    }
  }
  pending_self_deletes_.clear();

  for (const Fact& f : inbound_inserts_) {
    const Relation* rel = catalog_.Get(f.relation);
    if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
      WDL_LOG(Warning) << "dropping base insert into intensional relation "
                       << f.PredicateId();
      continue;
    }
    Result<bool> r = catalog_.InsertFact(f);
    if (!r.ok()) {
      WDL_LOG(Error) << "inbound insert " << f.ToString()
                     << " failed: " << r.status();
    } else if (*r) {
      *changed = true;
      if (log != nullptr) log->RecordInsert(f.relation, f.args);
    }
  }
  inbound_inserts_.clear();

  for (const Fact& f : inbound_deletes_) {
    if (log != nullptr) {
      // Incremental mode: a base delete aimed at a view has no durable
      // effect (the recompute oracle re-seeds the view in the same
      // stage, netting it out) — skip it instead of corrupting the
      // persistent view state.
      const Relation* rel = catalog_.Get(f.relation);
      if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
        continue;
      }
    }
    Result<bool> r = catalog_.RemoveFact(f);
    if (r.ok() && *r) {
      *changed = true;
      if (log != nullptr) log->RecordRemove(f.relation, f.args);
    }
  }
  inbound_deletes_.clear();

  for (InboundDerived& in : inbound_derived_) {
    ApplyInboundDerived(in, changed, log);
  }
  inbound_derived_.clear();
}

void Engine::ApplyInboundDerived(InboundDerived& in, bool* changed,
                                 StageChangeLog* log) {
  DerivedDelta& d = in.delta;

  // Version-only heartbeat (version == base_version, no payload): the
  // sender is telling us where its stream stands. If we have applied
  // less, a frame was lost and no later traffic repaired it — ask for a
  // resync; otherwise ignore. Never commits a version or applies data.
  if (in.versioned && !d.snapshot && d.version == d.base_version) {
    if (slice_store_.StreamVersion(d.relation, in.sender) < d.version) {
      uint64_t& missing = resync_needed_[{in.sender, d.relation}];
      missing = std::max(missing, d.version);
      ++prop_counters_.heartbeat_gaps_detected;
    }
    return;
  }

  Relation* rel = catalog_.Get(d.relation);
  if (rel == nullptr) {
    // A peer is telling us about a relation we do not know yet: the
    // paper's "peers may discover new relations". Create it as
    // extensional with inferred arity. A tuple-less update to an
    // unknown relation has nothing to create or apply — but a
    // *versioned* one still moves the stream: without the commit, an
    // empty resync snapshot would leave the applied version behind and
    // every later heartbeat would re-request the same resync forever.
    if (d.inserts.empty()) {
      if (in.versioned) {
        SliceStore::Gate gate =
            d.snapshot
                ? slice_store_.CheckSnapshot(d.relation, in.sender, d.version)
                : slice_store_.CheckDelta(d.relation, in.sender,
                                          d.base_version, d.version);
        if (gate == SliceStore::Gate::kApply) {
          if (d.snapshot) ++prop_counters_.snapshots_applied;
          slice_store_.CommitVersion(d.relation, in.sender, d.version);
        } else if (gate == SliceStore::Gate::kGap) {
          uint64_t& missing = resync_needed_[{in.sender, d.relation}];
          missing = std::max(missing, d.version);
        }
      }
      return;
    }
    RelationDecl decl;
    decl.relation = d.relation;
    decl.peer = self_peer_;
    decl.kind = RelationKind::kExtensional;
    decl.columns.resize(d.inserts[0].size());
    for (size_t i = 0; i < decl.columns.size(); ++i) {
      decl.columns[i].name = "c" + std::to_string(i);
    }
    Status st = catalog_.Declare(decl);
    if (!st.ok()) {
      WDL_LOG(Error) << "auto-declare failed: " << st;
      return;
    }
    rel = catalog_.Get(d.relation);
  }

  if (rel->kind() == RelationKind::kExtensional) {
    // Updates are persistent: union-insert, never delete. Inserts apply
    // regardless of stream position (monotone, so replays and gapped
    // deltas can only add facts the sender really derived); the version
    // gate below only decides bookkeeping and gap repair.
    for (Tuple& t : d.inserts) {
      // Copy instead of move when recording: the change log needs the
      // tuple after a successful insert.
      Result<bool> r =
          log != nullptr ? rel->Insert(t) : rel->Insert(std::move(t));
      if (!r.ok()) {
        WDL_LOG(Error) << "inbound derived tuple rejected by "
                       << rel->decl().PredicateId() << ": " << r.status();
      } else if (*r) {
        *changed = true;
        if (log != nullptr) log->RecordInsert(d.relation, t);
      }
    }
    if (in.versioned) {
      SliceStore::Gate gate =
          d.snapshot
              ? slice_store_.CheckSnapshot(d.relation, in.sender, d.version)
              : slice_store_.CheckDelta(d.relation, in.sender,
                                        d.base_version, d.version);
      if (gate == SliceStore::Gate::kApply) {
        if (d.snapshot) ++prop_counters_.snapshots_applied;
        slice_store_.CommitVersion(d.relation, in.sender, d.version);
      } else if (gate == SliceStore::Gate::kGap) {
        uint64_t& missing = resync_needed_[{in.sender, d.relation}];
        missing = std::max(missing, d.version);
      }
    }
    return;
  }

  // View semantics: the update targets this sender's slice. Only
  // schema-valid tuples enter the slice (invalid ones could never seed
  // the view anyway).
  auto filtered = [&](std::vector<Tuple>& tuples) {
    TupleSet set;
    set.reserve(tuples.size());
    for (Tuple& t : tuples) {
      if (rel->CheckTuple(t).ok()) set.insert(std::move(t));
    }
    return set;
  };

  // Support transitions (view membership gained/lost) feed the
  // incremental maintenance log; the recompute oracle re-seeds views
  // from the aggregate support map instead and skips the bookkeeping.
  std::vector<Tuple> gained_storage, lost_storage;
  std::vector<Tuple>* gained = log != nullptr ? &gained_storage : nullptr;
  std::vector<Tuple>* lost = log != nullptr ? &lost_storage : nullptr;
  auto record_transitions = [&]() {
    if (log == nullptr) return;
    for (Tuple& t : gained_storage) {
      log->RecordSliceGain(d.relation, std::move(t));
    }
    for (Tuple& t : lost_storage) {
      log->RecordSliceLoss(d.relation, std::move(t));
    }
  };

  if (!in.versioned) {
    // Full-slice protocol: replace wholesale. Change detection compares
    // the stored and arriving sets directly — a hash collision must
    // never suppress a real view change.
    *changed |= slice_store_.ReplaceSlice(d.relation, in.sender,
                                          filtered(d.inserts), gained, lost);
    record_transitions();
    return;
  }

  SliceStore::Gate gate =
      d.snapshot
          ? slice_store_.CheckSnapshot(d.relation, in.sender, d.version)
          : slice_store_.CheckDelta(d.relation, in.sender, d.base_version,
                                    d.version);
  switch (gate) {
    case SliceStore::Gate::kApply:
      if (d.snapshot) {
        ++prop_counters_.snapshots_applied;
        *changed |= slice_store_.ApplySnapshot(d.relation, in.sender,
                                               filtered(d.inserts),
                                               d.version, gained, lost);
      } else {
        // Validate in place; ApplyDelta dedups per tuple itself.
        d.inserts.erase(
            std::remove_if(d.inserts.begin(), d.inserts.end(),
                           [&](const Tuple& t) {
                             return !rel->CheckTuple(t).ok();
                           }),
            d.inserts.end());
        *changed |= slice_store_.ApplyDelta(d.relation, in.sender,
                                            std::move(d.inserts),
                                            d.deletes, d.version, gained,
                                            lost);
      }
      record_transitions();
      break;
    case SliceStore::Gate::kStale:
      break;  // duplicate or reordered-old update: already reflected
    case SliceStore::Gate::kGap: {
      // A predecessor was lost; applying would corrupt the slice. Ask
      // the sender for a snapshot instead (step 3 ships the request).
      uint64_t& missing = resync_needed_[{in.sender, d.relation}];
      missing = std::max(missing, d.version);
      break;
    }
  }
}

void Engine::ClearIntensionalRelations() {
  catalog_.ForEachRelation([](Relation& rel) {
    if (rel.kind() == RelationKind::kIntensional) rel.Clear();
  });
}

void Engine::SeedIntensionalFromContributions(bool track_support) {
  slice_store_.ForEachContributedRelation([&](const std::string& name) {
    Relation* rel = catalog_.Get(name);
    if (rel == nullptr || rel->kind() != RelationKind::kIntensional) return;
    slice_store_.ForEachContribution(name, [&](const Tuple& t) {
      Result<bool> r = rel->Insert(t);
      if (!r.ok()) {
        WDL_LOG(Warning) << "contribution tuple rejected: " << r.status();
        return;
      }
      if (track_support) tracker_.Ensure(name, t).external = true;
    });
  });
}

void Engine::RunFixpoint(
    StageStats* stats, std::map<ContributionKey, TupleSet>* contributions,
    std::map<uint64_t, Delegation>* delegations,
    std::unordered_set<Fact, FactHasher>* self_updates,
    std::unordered_set<Fact, FactHasher>* self_deletes,
    std::unordered_set<Fact, FactHasher>* remote_deletes,
    DerivationTracker* tracker) {
  // Stratify the active rule set (single stratum when negation-free).
  std::vector<Rule> rule_bodies;
  rule_bodies.reserve(rules_.size());
  for (const InstalledRule& ir : rules_) rule_bodies.push_back(ir.rule);
  Stratification strat;
  Result<Stratification> strat_result = Stratify(rule_bodies);
  if (strat_result.ok()) {
    strat = std::move(strat_result).value();
  } else {
    // A delegated rule may have broken stratification after install
    // validation (dynamic arrivals); fall back to one stratum and log.
    WDL_LOG(Error) << "stratification failed; evaluating in one stratum: "
                   << strat_result.status();
    strat.rule_stratum.assign(rules_.size(), 0);
    strat.num_strata = 1;
  }
  stats->strata = strat.num_strata;

  // The evaluator (and its plan cache) lives across stages; stage stats
  // report the delta of its cumulative counters.
  uint64_t tuples_before = evaluator_.counters().tuples_examined;

  for (int stratum = 0; stratum < strat.num_strata; ++stratum) {
    // Resolve each active rule's compiled plan once per stage; the
    // iteration loops below re-drive the plan directly instead of
    // re-hashing the rule through the cache every call. `plan` stays
    // null on the interpreter path.
    struct ActiveRule {
      const Rule* rule;
      const RulePlan* plan;
    };
    std::vector<ActiveRule> active;
    for (size_t i = 0; i < rules_.size(); ++i) {
      if (strat.rule_stratum[i] != stratum) continue;
      const Rule& rule = rules_[i].rule;
      active.push_back(ActiveRule{
          &rule, options_.use_compiled_plans ? &evaluator_.PlanFor(rule)
                                             : nullptr});
    }
    if (active.empty()) continue;

    DeltaMap delta;      // tuples new in the previous iteration
    DeltaMap next_delta; // tuples new in this iteration

    // Set per evaluation: whether the rule being evaluated is a
    // deletion rule (its head derivations remove instead of insert).
    bool current_rule_deletes = false;

    RuleEvaluator::Sinks sinks;
    sinks.on_local_fact = [&](const Fact& f) {
      Relation* rel = catalog_.Get(f.relation);
      bool intensional =
          rel != nullptr && rel->kind() == RelationKind::kIntensional;
      if (current_rule_deletes) {
        if (intensional) {
          WDL_LOG(Warning) << "deletion rule derived into view "
                           << f.PredicateId() << "; dropped";
        } else if (rel != nullptr && rel->Contains(f.args)) {
          self_deletes->insert(f);  // deferred, Bud's <-
        }
        return;
      }
      if (intensional) {
        // Every derivation event marks rule support, including events
        // for tuples already resident (slice-seeded or re-derived):
        // semi-naive evaluation fires each valid derivation at least
        // once, so after the fixpoint the derived bit is exact.
        if (tracker != nullptr) {
          tracker->Ensure(f.relation, f.args).derived = true;
        }
        Result<bool> r = rel->Insert(f.args);
        if (r.ok() && *r) {
          next_delta[rel->symbol()].Insert(f.args);
          ++stats->local_derivations;
        }
      } else {
        // Local update rule: deferred to the next stage (Bud's <+).
        if (rel == nullptr || !rel->Contains(f.args)) {
          self_updates->insert(f);
        }
      }
    };
    sinks.on_remote_fact = [&](const Fact& f) {
      if (current_rule_deletes) {
        remote_deletes->insert(f);
      } else {
        (*contributions)[ContributionKey{f.peer, f.relation}].insert(
            f.args);
      }
    };
    sinks.on_delegation = [&](const Delegation& d) {
      delegations->emplace(d.Key(), d);
    };

    auto evaluate = [&](const ActiveRule& ar, const DeltaMap* d, int pos) {
      current_rule_deletes = ar.rule->head_deletes;
      if (ar.plan != nullptr) {
        evaluator_.EvaluatePlan(*ar.plan, d, pos, sinks);
      } else {
        evaluator_.Evaluate(*ar.rule, d, pos, sinks);
      }
    };

    // Iteration 1: full evaluation.
    int iterations = 1;
    for (const ActiveRule& ar : active) evaluate(ar, nullptr, -1);

    if (options_.mode == EvalMode::kNaive) {
      // Naive: re-run everything until no new local facts appear.
      while (!next_delta.empty() &&
             iterations < options_.max_fixpoint_iterations) {
        next_delta.clear();
        ++iterations;
        for (const ActiveRule& ar : active) evaluate(ar, nullptr, -1);
      }
    } else {
      // Semi-naive: only join against the Δ of the previous iteration.
      while (!next_delta.empty() &&
             iterations < options_.max_fixpoint_iterations) {
        delta = std::move(next_delta);
        next_delta = DeltaMap();
        ++iterations;
        for (const ActiveRule& ar : active) {
          for (size_t pos = 0; pos < ar.rule->body.size(); ++pos) {
            if (ar.rule->body[pos].negated) continue;
            evaluate(ar, &delta, static_cast<int>(pos));
          }
        }
      }
    }
    if (iterations >= options_.max_fixpoint_iterations) {
      WDL_LOG(Error) << "fixpoint iteration limit reached at peer "
                     << self_peer_;
    }
    stats->iterations += iterations;
  }
  stats->tuples_examined =
      evaluator_.counters().tuples_examined - tuples_before;
}

namespace {
std::vector<Tuple> SortedVector(
    const std::unordered_set<Tuple, TupleHasher>& set) {
  std::vector<Tuple> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());  // deterministic wire
  return out;
}
}  // namespace

void Engine::ClearDeleteSuppression(const std::string& relation,
                                    const std::string& peer,
                                    const Tuple& tuple) {
  Fact f(relation, peer, tuple);
  if (sent_remote_deletes_.erase(f) == 0) return;
  // The fact went out as an insert after we had shipped its deletion:
  // if a deletion rule still derives it, the deletion must ship again.
  // The next stage settles the verdict — the recompute oracle re-fires
  // every deletion rule there anyway; the incremental path re-checks
  // exactly the queued facts.
  pending_delete_rechecks_.insert(std::move(f));
  dirty_ = true;
}

/// Contribution sets ship only when they changed — decided by direct
/// set comparison against what was last sent (hash-collision-proof).
/// Under full-slice the whole contribution is re-sent; under the
/// differential protocol only the inserts/deletes against the last-sent
/// state go out, with stream versions so the receiver can order them.
/// An emptied contribution ships once (as an empty set, or as a delta
/// deleting the remainder) so the receiver clears its slice.
void Engine::EmitContributions(
    std::map<ContributionKey, TupleSet>* contributions,
    StageResult* result) {
  const bool differential = options_.use_differential_propagation;

  // Vanished contributions first: keys we shipped before that this
  // stage derived nothing for.
  for (auto& [key, sent] : sent_contributions_) {
    if (contributions->count(key) || sent.tuples.empty()) continue;
    if (differential) {
      DerivedDelta dd;
      dd.target_peer = key.target_peer;
      dd.relation = key.relation;
      dd.base_version = sent.version;
      dd.version = sent.version + 1;
      dd.deletes = SortedVector(sent.tuples);
      result->stats.derived_tuples_out += dd.deletes.size();
      prop_counters_.delta_deletes_shipped += dd.deletes.size();
      ++prop_counters_.deltas_shipped;
      result->outbound[key.target_peer].derived_deltas.push_back(
          std::move(dd));
    } else {
      DerivedSet empty_set;
      empty_set.target_peer = key.target_peer;
      empty_set.relation = key.relation;
      ++prop_counters_.full_sets_shipped;
      result->outbound[key.target_peer].derived_sets.push_back(
          std::move(empty_set));
    }
    sent.tuples.clear();
    ++sent.version;
  }

  // Changed contributions.
  for (auto& [key, set] : *contributions) {
    SentContribution& sent = sent_contributions_[key];
    if (sent.tuples == set) continue;  // unchanged, stay silent
    if (differential) {
      DerivedDelta dd;
      dd.target_peer = key.target_peer;
      dd.relation = key.relation;
      dd.base_version = sent.version;
      dd.version = sent.version + 1;
      for (const Tuple& t : set) {
        if (!sent.tuples.count(t)) dd.inserts.push_back(t);
      }
      for (const Tuple& t : sent.tuples) {
        if (!set.count(t)) dd.deletes.push_back(t);
      }
      std::sort(dd.inserts.begin(), dd.inserts.end());
      std::sort(dd.deletes.begin(), dd.deletes.end());
      for (const Tuple& t : dd.inserts) {
        ClearDeleteSuppression(key.relation, key.target_peer, t);
      }
      result->stats.derived_tuples_out +=
          dd.inserts.size() + dd.deletes.size();
      prop_counters_.delta_inserts_shipped += dd.inserts.size();
      prop_counters_.delta_deletes_shipped += dd.deletes.size();
      ++prop_counters_.deltas_shipped;
      result->outbound[key.target_peer].derived_deltas.push_back(
          std::move(dd));
    } else {
      DerivedSet ds;
      ds.target_peer = key.target_peer;
      ds.relation = key.relation;
      ds.tuples = SortedVector(set);
      // The full set re-sends every tuple as an insert; each one lands
      // at the receiver again, so each one lifts its suppression.
      for (const Tuple& t : ds.tuples) {
        ClearDeleteSuppression(key.relation, key.target_peer, t);
      }
      result->stats.derived_tuples_out += ds.tuples.size();
      prop_counters_.full_tuples_shipped += ds.tuples.size();
      ++prop_counters_.full_sets_shipped;
      result->outbound[key.target_peer].derived_sets.push_back(
          std::move(ds));
    }
    sent.tuples = std::move(set);
    ++sent.version;
  }

  ServeResyncs(result);
}

/// The O(change) emission path of incremental stages: only keys whose
/// contribution actually changed this stage are visited, and the delta
/// payload comes straight from the recorded per-stage changes instead
/// of a full set diff.
void Engine::EmitContributionsIncremental(
    std::map<ContributionKey, TupleSet>* contrib_added,
    std::map<ContributionKey, TupleSet>* contrib_removed,
    StageResult* result) {
  const bool differential = options_.use_differential_propagation;
  std::set<ContributionKey> dirty;
  for (const auto& [key, tuples] : *contrib_added) {
    if (!tuples.empty()) dirty.insert(key);
  }
  for (const auto& [key, tuples] : *contrib_removed) {
    if (!tuples.empty()) dirty.insert(key);
  }

  for (const ContributionKey& key : dirty) {
    SentContribution& sent = sent_contributions_[key];
    TupleSet& adds = (*contrib_added)[key];
    TupleSet& rems = (*contrib_removed)[key];
    if (differential) {
      DerivedDelta dd;
      dd.target_peer = key.target_peer;
      dd.relation = key.relation;
      dd.base_version = sent.version;
      dd.version = sent.version + 1;
      dd.inserts = SortedVector(adds);
      dd.deletes = SortedVector(rems);
      for (const Tuple& t : dd.inserts) {
        sent.tuples.insert(t);
        ClearDeleteSuppression(key.relation, key.target_peer, t);
      }
      for (const Tuple& t : dd.deletes) sent.tuples.erase(t);
      result->stats.derived_tuples_out +=
          dd.inserts.size() + dd.deletes.size();
      prop_counters_.delta_inserts_shipped += dd.inserts.size();
      prop_counters_.delta_deletes_shipped += dd.deletes.size();
      ++prop_counters_.deltas_shipped;
      result->outbound[key.target_peer].derived_deltas.push_back(
          std::move(dd));
    } else {
      DerivedSet ds;
      ds.target_peer = key.target_peer;
      ds.relation = key.relation;
      auto it = current_contributions_.find(key);
      if (it != current_contributions_.end()) {
        ds.tuples = SortedVector(it->second);
        sent.tuples = it->second;
      } else {
        sent.tuples.clear();
      }
      for (const Tuple& t : ds.tuples) {
        ClearDeleteSuppression(key.relation, key.target_peer, t);
      }
      result->stats.derived_tuples_out += ds.tuples.size();
      prop_counters_.full_tuples_shipped += ds.tuples.size();
      ++prop_counters_.full_sets_shipped;
      result->outbound[key.target_peer].derived_sets.push_back(
          std::move(ds));
    }
    ++sent.version;
    // Emptied contributions leave the current map (mirrors the
    // recompute path, where an underived key simply stops appearing).
    auto cur = current_contributions_.find(key);
    if (cur != current_contributions_.end() && cur->second.empty()) {
      current_contributions_.erase(cur);
    }
  }

  ServeResyncs(result);
}

void Engine::ServeResyncs(StageResult* result) {
  // Serve resync requests: a full snapshot of the current contribution
  // at its current version (possibly just updated by contribution
  // emission — if a regular delta for the same key also shipped this
  // stage, the snapshot subsumes it at the receiver).
  for (const auto& [peer, relation] : pending_resync_serves_) {
    ContributionKey key{peer, relation};
    DerivedDelta dd;
    dd.snapshot = true;
    dd.target_peer = peer;
    dd.relation = relation;
    auto it = sent_contributions_.find(key);
    if (it != sent_contributions_.end()) {
      dd.version = it->second.version;
      dd.inserts = SortedVector(it->second.tuples);
    }
    // A snapshot re-ships every tuple as an insert, exactly like a full
    // set: each one lands at the receiver again and lifts any pending
    // delete suppression for that fact.
    for (const Tuple& t : dd.inserts) {
      ClearDeleteSuppression(relation, peer, t);
    }
    result->stats.derived_tuples_out += dd.inserts.size();
    ++prop_counters_.snapshots_shipped;
    result->outbound[peer].derived_deltas.push_back(std::move(dd));
  }
  pending_resync_serves_.clear();

  // Re-ship delegations whose target's link was reset: the target may
  // have restarted and lost the installed rule. Installs are
  // idempotent by delegation key, so a target that kept the rule is
  // unaffected.
  for (uint64_t key : pending_delegation_reships_) {
    auto it = sent_delegations_.find(key);
    if (it == sent_delegations_.end()) continue;  // retracted since
    result->outbound[it->second.target_peer].delegation_installs.push_back(
        it->second);
  }
  pending_delegation_reships_.clear();

  // Tell former senders to forget streams for relations dropped here,
  // so a recycled scratch name starts from version 0 on both ends
  // instead of eating a gap->resync round trip on first reuse.
  for (const auto& [sender, relation] : pending_stream_forgets_) {
    result->outbound[sender].stream_forgets.push_back(relation);
  }
  pending_stream_forgets_.clear();

  // And raise our own: gaps detected while applying inbound deltas —
  // unless a later message of the same batch (duplicate, reordered
  // original, snapshot) already advanced the stream past the missing
  // update, in which case the gap healed itself.
  for (const auto& [key, missing_version] : resync_needed_) {
    const auto& [sender, relation] = key;
    if (slice_store_.StreamVersion(relation, sender) >= missing_version) {
      continue;
    }
    result->outbound[sender].resync_requests.push_back(relation);
    ++prop_counters_.resyncs_requested;
  }
  resync_needed_.clear();
}

void Engine::EmitDelegationDiff(std::map<uint64_t, Delegation> delegations,
                                StageResult* result) {
  for (const auto& [key, d] : delegations) {
    if (!sent_delegations_.count(key)) {
      result->outbound[d.target_peer].delegation_installs.push_back(d);
    }
  }
  for (const auto& [key, d] : sent_delegations_) {
    if (!delegations.count(key)) {
      result->outbound[d.target_peer].delegation_retracts.push_back(key);
    }
  }
  sent_delegations_ = std::move(delegations);
  result->stats.delegations_active = sent_delegations_.size();
}

void Engine::FinalizeOutbound(StageResult* result) {
  for (auto it = result->outbound.begin(); it != result->outbound.end();) {
    if (it->second.empty()) {
      it = result->outbound.erase(it);
    } else {
      result->stats.messages_out += it->second.MessageCount();
      ++it;
    }
  }
}

uint64_t Engine::IntensionalContentHash() const {
  uint64_t h = 0;
  TupleHasher hasher;
  for (const std::string& name : catalog_.RelationNames()) {
    const Relation* rel = catalog_.Get(name);
    if (rel->kind() != RelationKind::kIntensional) continue;
    uint64_t rel_hash = HashString(name);
    rel->ForEach([&](const Tuple& t) { rel_hash ^= hasher(t) | 1; });
    h = HashCombine(h, rel_hash);
  }
  return h;
}

void Engine::RefreshProgramInfo() {
  program_info_ = ProgramInfo();
  // The naive-mode ablation measures full-fixpoint cost; Δ-driven
  // stages would bypass exactly what it measures.
  program_info_.incremental_ok = options_.mode == EvalMode::kSemiNaive;
  bool any_negation = false;
  for (const InstalledRule& ir : rules_) {
    if (ir.info.negated_relation_var) {
      // A negated atom that names its relation with a variable can read
      // any relation: no change is provably outside its footprint.
      program_info_.incremental_ok = false;
      any_negation = true;
    }
    for (Symbol s : ir.info.negated_relations) {
      any_negation = true;
      program_info_.negated_ids.insert(s.id());
    }
  }
  if (any_negation) {
    // Derivations must never write a negated relation, or stratified
    // re-evaluation order matters mid-Δ and the incremental pass is
    // unsound. Direct EDB changes to negated relations are caught per
    // stage in ChangesEligible.
    for (const InstalledRule& ir : rules_) {
      if (ir.info.head_relation_var ||
          program_info_.negated_ids.count(ir.info.head_relation.id())) {
        program_info_.incremental_ok = false;
        break;
      }
    }
  }
}

bool Engine::ChangesEligible(const StageChangeLog& log) const {
  if (log.empty()) return true;  // nothing to propagate: trivially sound
  if (!program_info_.incremental_ok) return false;
  bool ok = true;
  log.ForEachChangedRelation([&](const std::string& name) {
    Symbol s = Symbol::Find(name);
    if (s.valid() && program_info_.negated_ids.count(s.id())) ok = false;
  });
  return ok;
}

bool Engine::HasLocalDerivation(const Fact& target) {
  for (const InstalledRule& ir : rules_) {
    if (ir.rule.head_deletes) continue;
    if (evaluator_.ExistsDerivation(ir.rule, target)) return true;
  }
  return false;
}

StageResult Engine::RunStage() {
  StageResult result;
  result.stats.active_rules = rules_.size();
  ran_any_stage_ = true;
  dirty_ = false;

  const bool rule_set_changed = rules_changed_;
  if (rule_set_changed) {
    RefreshProgramInfo();
    rules_changed_ = false;
  }

  bool changed_local = false;
  if (!options_.use_incremental_maintenance) {
    // Step 1: load inputs received since the previous stage.
    ApplyInputs(&result.stats, &changed_local, nullptr);
    RunStageRecompute(&result, changed_local,
                      /*rebuild_derived_state=*/false);
    return result;
  }

  StageChangeLog log = std::move(direct_changes_);
  direct_changes_ = StageChangeLog();
  ApplyInputs(&result.stats, &changed_local, &log);

  if (!derived_state_ready_ || rule_set_changed || !ChangesEligible(log)) {
    RunStageRecompute(&result, changed_local, /*rebuild_derived_state=*/true);
  } else {
    RunStageIncremental(&result, changed_local, &log);
  }
  return result;
}

void Engine::RunStageRecompute(StageResult* result, bool changed_local,
                               bool rebuild_derived_state) {
  DerivationTracker* tracker = nullptr;
  uint64_t pre_hash = 0;
  // A full fixpoint re-derives every deletion-rule verdict, so the
  // queued per-fact rechecks are subsumed (this path *is* the oracle
  // behavior the rechecks emulate).
  pending_delete_rechecks_.clear();
  if (rebuild_derived_state) {
    ++evaluator_.mutable_counters()->stages_full;
    pre_hash = IntensionalContentHash();
    tracker_.Clear();
    tracker = &tracker_;
  }

  // Step 2: local fixpoint. Intensional relations are views: reset, then
  // re-seed with remote contributions, then derive.
  ClearIntensionalRelations();
  SeedIntensionalFromContributions(/*track_support=*/tracker != nullptr);

  std::map<ContributionKey, TupleSet> contributions;
  std::map<uint64_t, Delegation> delegations;
  std::unordered_set<Fact, FactHasher> self_updates;
  std::unordered_set<Fact, FactHasher> self_deletes;
  std::unordered_set<Fact, FactHasher> remote_deletes;
  RunFixpoint(&result->stats, &contributions, &delegations, &self_updates,
              &self_deletes, &remote_deletes, tracker);

  pending_self_updates_ = std::move(self_updates);
  pending_self_deletes_ = std::move(self_deletes);

  // Remote deletions ship once per unique fact (idempotent at the
  // receiver; re-sending is pure waste until an insert re-ships it).
  for (const Fact& f : remote_deletes) {
    if (sent_remote_deletes_.insert(f).second) {
      result->outbound[f.peer].fact_deletes.push_back(f);
    }
  }

  if (rebuild_derived_state) {
    // Snapshot the derived outputs before emission consumes them: they
    // are the baseline the next incremental stages evolve.
    current_contributions_ = contributions;
    current_delegations_ = delegations;
  }

  // Step 3: emit facts (updates) and rules (delegations) to other peers.
  EmitContributions(&contributions, result);
  EmitDelegationDiff(std::move(delegations), result);
  FinalizeOutbound(result);

  bool views_changed;
  uint64_t intensional_hash = IntensionalContentHash();
  if (rebuild_derived_state) {
    // Incremental stages don't maintain the cross-stage hash, so a
    // fallback stage compares its own before/after states instead.
    views_changed = intensional_hash != pre_hash;
    derived_state_ready_ = true;
  } else {
    views_changed = intensional_hash != prev_intensional_hash_;
  }
  prev_intensional_hash_ = intensional_hash;

  result->changed = changed_local || views_changed ||
                    !result->outbound.empty() ||
                    !pending_self_updates_.empty() ||
                    !pending_self_deletes_.empty() ||
                    !pending_delete_rechecks_.empty();
}

void Engine::RunStageIncremental(StageResult* result, bool changed_local,
                                 StageChangeLog* log) {
  EvalCounters* counters = evaluator_.mutable_counters();
  ++counters->stages_incremental;
  StageStats* stats = &result->stats;
  uint64_t tuples_before = evaluator_.counters().tuples_examined;
  bool state_mutated = false;

  // Per-stage contribution changes, netted (a tuple removed by the
  // deletion cascade and restored by re-derivation or the insert pass
  // must not ship at all).
  std::map<ContributionKey, TupleSet> contrib_added;
  std::map<ContributionKey, TupleSet> contrib_removed;
  auto record_contrib_add = [&](const ContributionKey& key, const Tuple& t) {
    auto it = contrib_removed.find(key);
    if (it != contrib_removed.end() && it->second.erase(t) > 0) return;
    contrib_added[key].insert(t);
  };
  auto record_contrib_remove = [&](const ContributionKey& key,
                                   const Tuple& t) {
    auto it = contrib_added.find(key);
    if (it != contrib_added.end() && it->second.erase(t) > 0) return;
    contrib_removed[key].insert(t);
  };

  std::unordered_set<Fact, FactHasher> self_updates;
  std::unordered_set<Fact, FactHasher> self_deletes;
  std::unordered_set<Fact, FactHasher> remote_deletes;

  // Resolve each active rule's compiled plan once (mirrors RunFixpoint).
  struct ActiveRule {
    const InstalledRule* ir;
    const RulePlan* plan;
  };
  std::vector<ActiveRule> active;
  active.reserve(rules_.size());
  for (const InstalledRule& ir : rules_) {
    active.push_back(ActiveRule{
        &ir, options_.use_compiled_plans ? &evaluator_.PlanFor(ir.rule)
                                         : nullptr});
  }
  auto body_reads_delta = [](const ActiveRule& ar, const DeltaMap& delta) {
    for (const auto& [sym, ds] : delta) {
      if (!ds.empty() && ar.ir->info.BodyReads(sym)) return true;
    }
    return false;
  };

  bool current_rule_deletes = false;
  DeltaMap next_delta;

  // The forward (insert) sinks: also used by the full re-fires below —
  // every action is idempotent against resident state.
  RuleEvaluator::Sinks sinks;
  sinks.on_local_fact = [&](const Fact& f) {
    Relation* rel = catalog_.Get(f.relation);
    bool intensional =
        rel != nullptr && rel->kind() == RelationKind::kIntensional;
    if (current_rule_deletes) {
      if (intensional) {
        WDL_LOG(Warning) << "deletion rule derived into view "
                         << f.PredicateId() << "; dropped";
      } else if (rel != nullptr && rel->Contains(f.args)) {
        self_deletes.insert(f);  // deferred, Bud's <-
      }
      return;
    }
    if (intensional) {
      tracker_.Ensure(f.relation, f.args).derived = true;
      Result<bool> r = rel->Insert(f.args);
      if (r.ok() && *r) {
        next_delta[rel->symbol()].Insert(f.args);
        ++stats->local_derivations;
        state_mutated = true;
      }
    } else if (rel == nullptr || !rel->Contains(f.args)) {
      self_updates.insert(f);  // deferred, Bud's <+
    }
  };
  sinks.on_remote_fact = [&](const Fact& f) {
    if (current_rule_deletes) {
      remote_deletes.insert(f);
      return;
    }
    ContributionKey key{f.peer, f.relation};
    if (current_contributions_[key].insert(f.args).second) {
      record_contrib_add(key, f.args);
    }
  };
  bool delegations_changed = false;
  sinks.on_delegation = [&](const Delegation& d) {
    delegations_changed |= current_delegations_.emplace(d.Key(), d).second;
  };

  auto evaluate = [&](const ActiveRule& ar, const RuleEvaluator::Sinks& s,
                      const DeltaMap* delta, int pos) {
    current_rule_deletes = ar.ir->rule.head_deletes;
    if (ar.plan != nullptr) {
      evaluator_.EvaluatePlan(*ar.plan, delta, pos, s);
    } else {
      evaluator_.Evaluate(ar.ir->rule, delta, pos, s);
    }
  };
  auto evaluate_delta_positions = [&](const ActiveRule& ar,
                                      const RuleEvaluator::Sinks& s,
                                      const DeltaMap* delta) {
    const Rule& rule = ar.ir->rule;
    for (size_t pos = 0; pos < rule.body.size(); ++pos) {
      if (rule.body[pos].negated) continue;
      evaluate(ar, s, delta, static_cast<int>(pos));
    }
  };

  // ---- Deletion-verdict rechecks queued by insert re-ships ----------
  for (const Fact& f : pending_delete_rechecks_) {
    for (const ActiveRule& ar : active) {
      if (!ar.ir->rule.head_deletes) continue;
      if (evaluator_.ExistsDerivation(ar.ir->rule, f)) {
        remote_deletes.insert(f);
        break;
      }
    }
  }
  pending_delete_rechecks_.clear();

  // ---- Deletion phase: seeds ----------------------------------------
  // Net-removed extensional tuples were already taken out by
  // ApplyInputs; ghost-reinsert them so over-delete matching sees the
  // pre-deletion database (a derivation joining two deleted tuples must
  // still be discoverable from either Δ⁻ position).
  DeltaMap frontier;
  std::vector<std::pair<Relation*, const Tuple*>> ghosts;
  for (const auto& [rel_name, tuples] : log->removed()) {
    Relation* rel = catalog_.Get(rel_name);
    if (rel == nullptr) continue;
    for (const Tuple& t : tuples) {
      Result<bool> r = rel->Insert(t);
      if (r.ok() && *r) ghosts.emplace_back(rel, &t);
      frontier[rel->symbol()].Insert(t);
    }
  }
  // View tuples whose slice support withdrew: external bit drops; the
  // tuple dies — and cascades — only when no rule derivation holds it
  // either (the support count hitting zero).
  std::map<std::string, TupleSet> marked;
  for (const auto& [rel_name, tuples] : log->slice_lost()) {
    Relation* rel = catalog_.Get(rel_name);
    if (rel == nullptr || rel->kind() != RelationKind::kIntensional) {
      continue;
    }
    for (const Tuple& t : tuples) {
      TupleSupport* s = tracker_.Find(rel_name, t);
      if (s != nullptr) s->external = false;
      if (s != nullptr && s->derived) continue;  // count still positive
      if (rel->Contains(t)) {
        frontier[rel->symbol()].Insert(t);
        marked[rel_name].insert(t);
      }
    }
  }
  // Slice support gained: the external bit rises immediately (so the
  // cascade below never retracts through these tuples); the physical
  // insert seeds the forward pass after deletions settle.
  for (const auto& [rel_name, tuples] : log->slice_gained()) {
    Relation* rel = catalog_.Get(rel_name);
    if (rel == nullptr || rel->kind() != RelationKind::kIntensional) {
      continue;
    }
    for (const Tuple& t : tuples) {
      tracker_.Ensure(rel_name, t).external = true;
    }
  }

  // ---- Over-delete closure (marking; nothing removed yet) -----------
  std::map<ContributionKey, TupleSet> marked_contrib;
  std::unordered_set<Fact, FactHasher> recheck_derived;
  const bool any_deletions = !frontier.empty();

  RuleEvaluator::Sinks del_sinks;
  del_sinks.on_local_fact = [&](const Fact& f) {
    if (current_rule_deletes) return;  // deletion rules sustain nothing
    Relation* rel = catalog_.Get(f.relation);
    if (rel == nullptr || rel->kind() != RelationKind::kIntensional) {
      return;  // extensional updates persist; never retract them
    }
    if (!rel->Contains(f.args)) return;
    TupleSet& m = marked[f.relation];
    if (m.count(f.args) > 0) return;
    TupleSupport* s = tracker_.Find(f.relation, f.args);
    if (s != nullptr && s->external) {
      // Remote support keeps the count positive: no cascade. The
      // derived bit may have just gone stale, though — re-check it once
      // the deletions have settled.
      recheck_derived.insert(f);
      return;
    }
    m.insert(f.args);
    next_delta[rel->symbol()].Insert(f.args);
  };
  del_sinks.on_remote_fact = [&](const Fact& f) {
    if (current_rule_deletes) return;
    ContributionKey key{f.peer, f.relation};
    auto it = current_contributions_.find(key);
    if (it == current_contributions_.end() || it->second.count(f.args) == 0) {
      return;
    }
    marked_contrib[key].insert(f.args);  // leaf: nothing local reads it
  };

  while (!frontier.empty()) {
    next_delta = DeltaMap();
    for (const ActiveRule& ar : active) {
      if (ar.ir->rule.head_deletes) continue;
      if (!body_reads_delta(ar, frontier)) continue;
      evaluate_delta_positions(ar, del_sinks, &frontier);
    }
    frontier = std::move(next_delta);
    next_delta = DeltaMap();
  }

  // ---- Apply deletions, then re-derive survivors --------------------
  for (auto& [rel, tuple] : ghosts) (void)rel->Remove(*tuple);
  struct Candidate {
    const std::string* relation;
    Relation* rel;
    const Tuple* tuple;
  };
  std::vector<Candidate> candidates;
  for (auto& [rel_name, tuples] : marked) {
    Relation* rel = catalog_.Get(rel_name);
    if (rel == nullptr) continue;
    for (const Tuple& t : tuples) {
      Result<bool> r = rel->Remove(t);
      if (!r.ok() || !*r) continue;
      tracker_.Erase(rel_name, t);
      candidates.push_back(Candidate{&rel_name, rel, &t});
    }
  }
  if (!candidates.empty()) state_mutated = true;

  // DRed re-derivation loop: a candidate with an alternative derivation
  // over the post-deletion database returns; returned tuples can in
  // turn sustain other candidates, so iterate to a fixpoint. Everything
  // here is bounded by the over-deleted set, not the view.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = candidates.begin(); it != candidates.end();) {
      Fact f(*it->relation, self_peer_, *it->tuple);
      if (HasLocalDerivation(f)) {
        (void)it->rel->Insert(*it->tuple);
        tracker_.Ensure(*it->relation, *it->tuple).derived = true;
        ++counters->tuples_rederived;
        it = candidates.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
  }
  counters->tuples_retracted += candidates.size();

  // Contribution candidates re-derive against the settled local state.
  for (const auto& [key, tuples] : marked_contrib) {
    auto cur = current_contributions_.find(key);
    if (cur == current_contributions_.end()) continue;
    for (const Tuple& t : tuples) {
      Fact f(key.relation, key.target_peer, t);
      if (HasLocalDerivation(f)) {
        ++counters->tuples_rederived;
        continue;
      }
      cur->second.erase(t);
      record_contrib_remove(key, t);
      ++counters->tuples_retracted;
    }
  }

  // Externally-supported tuples the cascade reached: their rule-support
  // bit must reflect the post-deletion database, or a later slice
  // withdrawal would trust a stale count and fail to cascade.
  for (const Fact& f : recheck_derived) {
    TupleSupport* s = tracker_.Find(f.relation, f.args);
    if (s == nullptr || !s->derived) continue;
    if (!HasLocalDerivation(f)) s->derived = false;
  }

  // ---- Delegation rebuild -------------------------------------------
  // A deletion can invalidate the prefix binding a delegation was
  // emitted from, and emitted residuals carry no back-pointers to their
  // prefix tuples. Rules that can delegate and whose body may read a
  // deleted relation rebuild their delegation output from scratch;
  // everything else keeps its entries.
  if (any_deletions) {
    DeltaMap deleted;
    for (const auto& [rel_name, tuples] : log->removed()) {
      Relation* rel = catalog_.Get(rel_name);
      if (rel == nullptr) continue;
      for (const Tuple& t : tuples) deleted[rel->symbol()].Insert(t);
    }
    for (const auto& [rel_name, tuples] : marked) {
      Relation* rel = catalog_.Get(rel_name);
      if (rel == nullptr) continue;
      for (const Tuple& t : tuples) deleted[rel->symbol()].Insert(t);
    }
    RuleEvaluator::Sinks delegation_only;
    delegation_only.on_delegation = sinks.on_delegation;
    for (const ActiveRule& ar : active) {
      if (!ar.ir->info.CanDelegate(self_sym_)) continue;
      if (!body_reads_delta(ar, deleted)) continue;
      for (auto it = current_delegations_.begin();
           it != current_delegations_.end();) {
        if (it->second.origin_rule_hash == ar.ir->rule_hash) {
          it = current_delegations_.erase(it);
          delegations_changed = true;
        } else {
          ++it;
        }
      }
      evaluate(ar, delegation_only, nullptr, -1);
    }
  }

  // ---- Forward pass: semi-naive from the Δ⁺ seeds -------------------
  DeltaMap delta;
  for (const auto& [rel_name, tuples] : log->added()) {
    Relation* rel = catalog_.Get(rel_name);
    if (rel == nullptr) continue;
    for (const Tuple& t : tuples) delta[rel->symbol()].Insert(t);
  }
  for (const auto& [rel_name, tuples] : log->slice_gained()) {
    Relation* rel = catalog_.Get(rel_name);
    if (rel == nullptr || rel->kind() != RelationKind::kIntensional) {
      continue;
    }
    for (const Tuple& t : tuples) {
      if (rel->Contains(t)) continue;  // already resident (e.g. derived)
      Result<bool> r = rel->Insert(t);
      if (r.ok() && *r) {
        delta[rel->symbol()].Insert(t);
        state_mutated = true;
      }
    }
  }

  // Continuous-enforcement re-fires, seeding the loop: a deletion rule
  // whose head relation regained tuples must delete them again, and an
  // update rule whose (extensional) head relation lost tuples must
  // re-assert them — exactly what the recompute oracle does by
  // re-firing everything every stage.
  next_delta = DeltaMap();
  {
    std::unordered_set<uint32_t> added_ids, removed_ids;
    for (const auto& [rel_name, tuples] : log->added()) {
      if (tuples.empty()) continue;
      Symbol s = Symbol::Find(rel_name);
      if (s.valid()) added_ids.insert(s.id());
    }
    for (const auto& [rel_name, tuples] : log->removed()) {
      if (tuples.empty()) continue;
      Symbol s = Symbol::Find(rel_name);
      if (s.valid()) removed_ids.insert(s.id());
    }
    for (const ActiveRule& ar : active) {
      const PlanStaticInfo& info = ar.ir->info;
      bool refire = false;
      if (ar.ir->rule.head_deletes) {
        refire = !added_ids.empty() &&
                 (info.head_relation_var ||
                  added_ids.count(info.head_relation.id()) > 0);
      } else if (!removed_ids.empty()) {
        // Only local extensional heads re-assert; remote heads are
        // contributions (receiver-persistent) and view heads were
        // handled by the cascade.
        bool head_local =
            info.head_peer_var || info.head_peer == self_sym_;
        bool head_ext = info.head_relation_var;
        if (!info.head_relation_var) {
          const Relation* head_rel =
              catalog_.Get(info.head_relation.str());
          head_ext = head_rel == nullptr ||
                     head_rel->kind() == RelationKind::kExtensional;
        }
        refire = head_local && head_ext &&
                 (info.head_relation_var ||
                  removed_ids.count(info.head_relation.id()) > 0);
      }
      if (refire) evaluate(ar, sinks, nullptr, -1);
    }
  }
  for (auto& [sym, ds] : next_delta) {
    for (const Tuple& t : ds.tuples()) delta[sym].Insert(t);
  }

  int iterations = 0;
  while (!delta.empty() && iterations < options_.max_fixpoint_iterations) {
    ++iterations;
    next_delta = DeltaMap();
    for (const ActiveRule& ar : active) {
      if (!body_reads_delta(ar, delta)) continue;
      evaluate_delta_positions(ar, sinks, &delta);
    }
    delta = std::move(next_delta);
    next_delta = DeltaMap();
  }
  if (iterations >= options_.max_fixpoint_iterations) {
    WDL_LOG(Error) << "incremental pass iteration limit reached at peer "
                   << self_peer_;
  }
  stats->iterations += iterations;
  stats->strata = 1;

  // ---- Finalize: deferred updates, shipping, diffs ------------------
  pending_self_updates_ = std::move(self_updates);
  pending_self_deletes_ = std::move(self_deletes);
  for (const Fact& f : remote_deletes) {
    if (sent_remote_deletes_.insert(f).second) {
      result->outbound[f.peer].fact_deletes.push_back(f);
    }
  }
  EmitContributionsIncremental(&contrib_added, &contrib_removed, result);
  if (delegations_changed) {
    EmitDelegationDiff(current_delegations_, result);
  } else {
    // Nothing touched the delegation set: skip the copy + full-map
    // diff so stage cost stays proportional to the change.
    result->stats.delegations_active = sent_delegations_.size();
  }
  FinalizeOutbound(result);

  stats->tuples_examined =
      evaluator_.counters().tuples_examined - tuples_before;

  result->changed = changed_local || state_mutated ||
                    !result->outbound.empty() ||
                    !pending_self_updates_.empty() ||
                    !pending_self_deletes_.empty() ||
                    !pending_delete_rechecks_.empty();
}

std::vector<DerivedDelta> Engine::CollectHeartbeats() {
  std::vector<DerivedDelta> out;
  if (!options_.use_differential_propagation) return out;
  for (const auto& [key, sent] : sent_contributions_) {
    if (sent.version == 0) continue;  // nothing ever shipped
    DerivedDelta dd;
    dd.target_peer = key.target_peer;
    dd.relation = key.relation;
    dd.base_version = sent.version;
    dd.version = sent.version;
    out.push_back(std::move(dd));
    ++prop_counters_.heartbeats_shipped;
  }
  return out;
}

Status Engine::DropScratchRelation(const std::string& relation) {
  for (const InstalledRule& ir : rules_) {
    auto mentions = [&](const Atom& a) {
      return !a.relation.is_variable() && a.relation.name() == relation;
    };
    bool referenced = mentions(ir.rule.head);
    for (const Atom& a : ir.rule.body) referenced |= mentions(a);
    if (referenced) {
      return Status::FailedPrecondition(
          "relation " + relation + " is still referenced by rule " +
          ir.rule.ToString());
    }
  }
  // Queue stream-forget notices before the streams disappear: each
  // remote sender keeps a SentContribution toward us keyed by this
  // relation, and without the notice a recycled name's first remote
  // contribution arrives as a mid-stream delta we must reject (one
  // gap->resync round trip). Dropping the relation is a local act, so
  // self never appears as a sender here.
  for (const std::string& sender : slice_store_.SendersForRelation(relation)) {
    if (sender == self_peer_) continue;
    pending_stream_forgets_.emplace(sender, relation);
    dirty_ = true;  // the notices must go out in a stage
  }
  slice_store_.DropRelation(relation);
  tracker_.DropRelation(relation);
  if (!catalog_.Undeclare(relation)) {
    return Status::NotFound("relation " + relation + " is not declared");
  }
  return Status::OK();
}

void Engine::ForgetSentStream(const std::string& target_peer,
                              const std::string& relation) {
  sent_contributions_.erase(ContributionKey{target_peer, relation});
}

std::string Engine::DumpAsProgramText() const {
  Program program;
  for (const std::string& name : catalog_.RelationNames()) {
    const Relation* rel = catalog_.Get(name);
    if (StartsWith(name, "__query_")) continue;  // ad-hoc query scratch
    program.declarations.push_back(rel->decl());
    if (rel->kind() == RelationKind::kExtensional) {
      for (Tuple& t : rel->SortedTuples()) {
        program.facts.emplace_back(name, self_peer_, std::move(t));
      }
    }
  }
  for (const InstalledRule& ir : rules_) {
    if (ir.delegation_key == 0) program.rules.push_back(ir.rule);
  }
  return program.ToString();
}

std::vector<const InstalledRule*> Engine::rules() const {
  std::vector<const InstalledRule*> out;
  out.reserve(rules_.size());
  for (const InstalledRule& ir : rules_) out.push_back(&ir);
  return out;
}

std::string Engine::ProgramListing() const {
  std::string out = "program of peer " + self_peer_ + ":\n";
  for (const InstalledRule& ir : rules_) {
    out += "  [" + std::to_string(ir.id) + "] ";
    out += ir.rule.ToString();
    if (ir.delegation_key != 0) {
      out += "   (delegated by " + ir.origin_peer + ")";
    }
    out += "\n";
  }
  if (rules_.empty()) out += "  (no rules)\n";
  return out;
}

}  // namespace wdl
