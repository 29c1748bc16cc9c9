#ifndef WDL_ENGINE_ENGINE_H_
#define WDL_ENGINE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "ast/program.h"
#include "base/result.h"
#include "engine/delegation.h"
#include "engine/derivation.h"
#include "engine/eval.h"
#include "storage/catalog.h"
#include "storage/slice_store.h"

namespace wdl {

/// Fixpoint strategy. Semi-naive is the production path; naive exists
/// for the A1 ablation (bench_fixpoint) and as a differential-testing
/// oracle (both must produce identical relations).
enum class EvalMode : uint8_t {
  kSemiNaive = 0,
  kNaive = 1,
};

struct EngineOptions {
  EvalMode mode = EvalMode::kSemiNaive;
  bool use_indexes = true;
  /// Compile rules to RulePlans (production) vs interpret the rule AST
  /// (the seed semantics, kept as a differential-testing oracle).
  bool use_compiled_plans = true;
  /// Ship per-(peer, relation) contribution *changes* (DerivedDelta
  /// messages with stream versions; production) vs re-sending the full
  /// contribution on every change (the seed semantics, kept as a
  /// differential-testing oracle — see DESIGN.md §5). Both converge to
  /// identical state; the delta path's per-round cost is proportional
  /// to the change size, not the view size.
  bool use_differential_propagation = true;
  /// Maintain intensional relations *incrementally* across stages
  /// (production): views persist, per-stage Δ-sets (local EDB changes
  /// plus slice-store support transitions) drive semi-naive evaluation
  /// forward from the changed tuples only, and deletions retract by
  /// support-counted DRed-style over-delete/re-derive (DESIGN.md §6).
  /// When false, every stage clears views and recomputes the fixpoint
  /// from scratch — the seed semantics, kept as the differential-
  /// testing oracle like the plan/propagation oracles above. Stages an
  /// incremental engine cannot serve soundly (rule-set changes, changes
  /// touching negated relations, naive mode) fall back to a full
  /// recompute transparently; both modes converge byte-identically.
  bool use_incremental_maintenance = true;
  Dialect dialect = Dialect::kExtended;
  int max_fixpoint_iterations = 1 << 20;  // safety net; datalog terminates
  /// Not a knob: a peer's stages run on the calling thread (DESIGN.md §8).
  static constexpr int eval_threads = 1;
  /// Durable-peer mode (DESIGN.md §11): on a link reset, keep the
  /// inbound stream versions and skip the blanket outbound contribution
  /// re-serve. A durable peer restarts with its stream state intact, so
  /// the first reconnect needs no amnesty — gaps that do exist (deltas
  /// shipped while this peer was down) surface through heartbeats and
  /// are repaired by per-stream resyncs, which is exactly the narrow
  /// recovery the WAL buys. Only sound when every peer in the cluster
  /// is durable too (a memory-only peer that restarts really has lost
  /// its state and needs the amnesty); see OPERATIONS.md.
  bool preserve_streams_on_reset = false;
};

/// The full current contribution of one sender to a remote relation.
/// Receivers apply it by relation kind: extensional targets union-insert
/// the tuples (updates are persistent); intensional targets replace the
/// sender's previous slice (continuous view maintenance).
struct DerivedSet {
  std::string target_peer;
  std::string relation;
  std::vector<Tuple> tuples;
};

/// One differential update of a sender's contribution to a remote
/// relation (DESIGN.md §5). Versions order one (sender, target,
/// relation) stream: the delta moves it `base_version -> version`, so a
/// receiver can drop duplicates and detect lost predecessors (and then
/// ask for a resync). A `snapshot` carries the whole contribution in
/// `inserts` (deletes empty) and repairs any gap.
struct DerivedDelta {
  std::string target_peer;
  std::string relation;
  uint64_t base_version = 0;
  uint64_t version = 0;
  bool snapshot = false;
  std::vector<Tuple> inserts;
  std::vector<Tuple> deletes;
};

/// Everything a stage wants delivered to one remote peer.
struct Outbound {
  std::vector<DerivedSet> derived_sets;      // full-slice protocol
  std::vector<DerivedDelta> derived_deltas;  // differential protocol
  /// Relations whose contribution *from the target peer* must be re-sent
  /// in full (this peer detected a gap in the inbound delta stream).
  std::vector<std::string> resync_requests;
  std::vector<Fact> fact_deletes;  // from deletion rules (-head :- body)
  std::vector<Delegation> delegation_installs;
  std::vector<uint64_t> delegation_retracts;  // Delegation::Key()s
  /// Relations this peer dropped; the target peer should discard its
  /// contribution-stream state toward us for them (see DESIGN §9).
  std::vector<std::string> stream_forgets;

  bool empty() const {
    return derived_sets.empty() && derived_deltas.empty() &&
           resync_requests.empty() && fact_deletes.empty() &&
           delegation_installs.empty() && delegation_retracts.empty() &&
           stream_forgets.empty();
  }
  size_t MessageCount() const {
    return derived_sets.size() + derived_deltas.size() +
           resync_requests.size() + (fact_deletes.empty() ? 0 : 1) +
           delegation_installs.size() + delegation_retracts.size() +
           stream_forgets.size();
  }
};

struct StageStats {
  int strata = 1;
  int iterations = 0;            // fixpoint iterations across strata
  uint64_t tuples_examined = 0;  // join work
  uint64_t local_derivations = 0;  // intensional tuples inserted
  size_t active_rules = 0;
  size_t delegations_active = 0;
  size_t messages_out = 0;
  /// Tuples shipped in derived sets and deltas this stage — the wire
  /// payload of step 3. Under differential propagation this tracks the
  /// change size; under full-slice it tracks the view size.
  uint64_t derived_tuples_out = 0;
};

/// Cumulative propagation-plane telemetry of one engine, across every
/// stage it has run. Benches surface these next to EvalCounters so perf
/// work can attribute wire-cost wins (ISSUE: bytes/delta telemetry).
struct PropagationCounters {
  uint64_t full_sets_shipped = 0;     // full-slice DerivedSet messages
  uint64_t full_tuples_shipped = 0;   // tuples inside them
  uint64_t deltas_shipped = 0;        // DerivedDelta messages
  uint64_t delta_inserts_shipped = 0;
  uint64_t delta_deletes_shipped = 0;
  uint64_t snapshots_shipped = 0;     // resync responses served
  uint64_t resyncs_requested = 0;     // gaps this engine detected
  uint64_t heartbeats_shipped = 0;    // version-only stream heartbeats
  uint64_t heartbeat_gaps_detected = 0;  // resyncs triggered by heartbeats
  /// Inbound versioned snapshots applied (i.e. full re-sends this engine
  /// accepted). The durability acceptance metric: a cleanly recovered
  /// peer converges with zero of these — every stream resumes from its
  /// restored version.
  uint64_t snapshots_applied = 0;
};

struct StageResult {
  /// True when this stage changed local state, produced messages, or
  /// left deferred self-updates — i.e. the peer is not yet quiescent.
  bool changed = false;
  std::map<std::string, Outbound> outbound;  // by target peer
  StageStats stats;
};

/// A rule active at this peer, either authored locally or installed by
/// a remote peer through delegation.
struct InstalledRule {
  uint64_t id = 0;             // engine-local handle
  Rule rule;
  std::string origin_peer;     // == self for locally authored rules
  uint64_t delegation_key = 0; // nonzero iff installed via delegation
  uint64_t rule_hash = 0;      // rule.Hash(), cached at install
  /// What the rule can read/write/delegate, derived at install; routes
  /// Δ-sets to affected rules in incremental stages (DESIGN.md §6).
  PlanStaticInfo info;
};

/// The WebdamLog engine of a single peer: catalog + active rule set +
/// the three-step stage of §2 — (1) load inputs received since the
/// previous stage, (2) run a local fixpoint, (3) emit facts (updates)
/// and rules (delegations) for other peers.
///
/// Not thread-safe; one Engine per peer, driven by the runtime.
class Engine {
 public:
  explicit Engine(std::string self_peer, EngineOptions options = {});

  // Neither copyable nor movable: evaluator_ holds &catalog_, so a
  // moved Engine would evaluate against the moved-from catalog. (The
  // deleted copy already suppressed implicit moves; spelling the move
  // deletions out documents the self-reference.)
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  Engine(Engine&&) = delete;
  Engine& operator=(Engine&&) = delete;

  const std::string& self_peer() const { return self_peer_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  const EngineOptions& options() const { return options_; }

  /// Declares relations, loads base facts, installs rules; validates the
  /// whole program under the configured dialect first. When `rule_ids`
  /// is non-null it receives the engine-local id of each installed rule
  /// in program order (durable peers log the decomposed program as
  /// individual WAL records and need the ids the rules landed on).
  Status LoadProgram(const Program& program,
                     std::vector<uint64_t>* rule_ids = nullptr);

  Status DeclareRelation(const RelationDecl& decl);

  /// Installs a locally authored rule after safety/dialect validation.
  /// Returns an engine-local id usable with RemoveRule.
  Result<uint64_t> AddRule(const Rule& rule);
  Status RemoveRule(uint64_t id);

  /// Installs a rule delegated by a remote peer (access control happens
  /// above the engine, in the runtime's DelegationGate).
  Status InstallDelegatedRule(const Delegation& delegation);
  /// Removes the rule installed for `delegation_key`; idempotent.
  void RetractDelegatedRule(uint64_t delegation_key);

  /// Immediate base-fact update of a local extensional relation (the
  /// user API: "Upload a picture", ratings, annotations...).
  Result<bool> InsertFact(const Fact& fact);
  Result<bool> RemoveFact(const Fact& fact);

  // --- Step-1 inputs, queued by the runtime between stages -----------
  void EnqueueFactInserts(std::vector<Fact> facts);
  void EnqueueFactDeletes(std::vector<Fact> facts);
  void EnqueueDerivedSet(const std::string& sender, DerivedSet set);
  void EnqueueDerivedDelta(const std::string& sender, DerivedDelta delta);
  /// `peer` lost part of our contribution stream to `relation`@peer and
  /// asks for a full snapshot; served in the next stage's step 3.
  void EnqueueResyncRequest(const std::string& peer,
                            const std::string& relation);

  /// The transport link to `peer` was reset (connection dropped and/or
  /// re-established — on a real network that usually means `peer`
  /// crashed, restarted, or was unreachable for a while). Heals both
  /// directions through the existing resync machinery:
  ///  - outbound: every contribution stream and delegation we hold for
  ///    `peer` is re-shipped (snapshots / idempotent installs), exactly
  ///    as if `peer` had sent a resync request per stream;
  ///  - inbound: the stream positions of everything `peer` sends us are
  ///    forgotten (a restarted sender renumbers from 1, which the gate
  ///    would otherwise drop as stale) and a resync request per stream
  ///    goes out.
  void NoteLinkReset(const std::string& peer);

  /// Runs one computation stage and returns what must be shipped.
  StageResult RunStage();

  /// Version-only DerivedDelta heartbeats for every contribution stream
  /// this engine has shipped (differential protocol only): the receiver
  /// compares the carried version against its applied stream version
  /// and requests a resync on mismatch, bounding the staleness window
  /// of a stream that went silent right after a dropped frame. Pure
  /// observation — emitting heartbeats neither changes state nor marks
  /// the engine dirty; the runtime schedules them periodically.
  std::vector<DerivedDelta> CollectHeartbeats();

  /// True when queued inputs or deferred self-updates exist, i.e. the
  /// next stage has guaranteed work.
  bool HasPendingWork() const;

  /// Active rules in installation order (stable ids).
  std::vector<const InstalledRule*> rules() const;

  /// Evaluator telemetry accumulated across every stage this engine has
  /// run: plan-cache behavior, access-path choices, join work. Benches
  /// surface these in their JSON so perf work can attribute wins.
  const EvalCounters& eval_counters() const { return evaluator_.counters(); }

  /// Propagation-plane telemetry (tuples shipped full vs differential,
  /// resync traffic), accumulated like eval_counters().
  const PropagationCounters& propagation_counters() const {
    return prop_counters_;
  }

  /// Receiver-side contribution store (observability for tests: slices,
  /// support counts, stream versions).
  const SliceStore& slice_store() const { return slice_store_; }

  /// Removes an ad-hoc scratch relation: catalog entry plus any remote
  /// contribution slices, so a recycled `__query_<n>` name starts
  /// clean. Every remote peer that streamed a contribution here is
  /// queued a kStreamForget so the recycled name starts from version 0
  /// on both ends (no gap->resync round trip on first reuse). The
  /// caller must have removed every rule referencing it.
  Status DropScratchRelation(const std::string& relation);

  /// Handles an inbound kStreamForget: `target_peer` dropped `relation`,
  /// so discard the contribution stream we were maintaining toward it
  /// (our next contribution, if any, restarts as a fresh version-1
  /// snapshot instead of a delta the receiver would reject).
  void ForgetSentStream(const std::string& target_peer,
                        const std::string& relation);

  // --- durability restore / WAL replay (DESIGN.md §11) ----------------
  // Called only by a recovering Peer, between construction and its
  // first stage. Restore* methods rebuild state verbatim from a
  // snapshot (no validation beyond structural checks, no dirty-marking
  // beyond what a fresh engine already carries — a fresh engine always
  // recomputes its first stage, which rebuilds intensional views from
  // the restored slices). ApplyShipped* methods replay kStageOutbound
  // WAL records, advancing the emission diff bases to what receivers
  // actually hold; they are idempotent under re-replay because versions
  // only move forward.

  /// Reinstalls a rule under a fixed engine-local id (bumps the id
  /// allocator past it). `delegation_key` nonzero marks a rule that
  /// arrived via delegation.
  Status RestoreInstalledRule(uint64_t id, const Rule& rule,
                              const std::string& origin_peer,
                              uint64_t delegation_key);
  void SetNextRuleId(uint64_t id);
  uint64_t next_rule_id() const { return next_rule_id_; }
  /// Rebuilds one inbound contribution stream: the sender's slice and
  /// its applied version.
  void RestoreSliceStream(const std::string& relation,
                          const std::string& sender, uint64_t version,
                          const std::vector<Tuple>& tuples);
  /// Rebuilds one outbound diff base: what `target_peer` holds of our
  /// contribution to `relation`, at `version`.
  void RestoreSentContribution(const std::string& target_peer,
                               const std::string& relation, uint64_t version,
                               const std::vector<Tuple>& tuples);
  void RestoreSentDelegation(const Delegation& delegation);
  /// Replays one shipped delta from a kStageOutbound WAL record against
  /// the sent-contribution state (never against local relations — the
  /// receiver holds those tuples, not us).
  void ApplyShippedDelta(const DerivedDelta& delta);
  void ApplyShippedDelegationRetract(uint64_t delegation_key);
  /// Current stream version of our contribution to `relation` at
  /// `target_peer` (0 when no stream exists).
  uint64_t SentStreamVersion(const std::string& target_peer,
                             const std::string& relation) const;
  /// Visits every outbound contribution stream as (target_peer,
  /// relation, tuple set, version) — snapshot writers iterate this.
  template <typename Fn>
  void ForEachSentContribution(Fn&& fn) const {
    for (const auto& [key, sent] : sent_contributions_) {
      fn(key.target_peer, key.relation, sent.tuples, sent.version);
    }
  }
  template <typename Fn>
  void ForEachSentDelegation(Fn&& fn) const {
    for (const auto& [key, d] : sent_delegations_) fn(d);
  }

  /// Human-readable program listing with provenance markers — the
  /// per-peer program view of the paper's Figure 3.
  std::string ProgramListing() const;

  /// Serializes this peer's durable state — declarations, extensional
  /// facts, and locally authored rules — as parseable WebdamLog source.
  /// Loading the text into a fresh Engine reproduces the peer (views
  /// rebuild on the first stage; delegated rules re-arrive from their
  /// origins). This is how "users launch their customized peers on
  /// their machines with their own personal data" persists across runs.
  std::string DumpAsProgramText() const;

 private:
  struct ContributionKey {
    std::string target_peer;
    std::string relation;
    bool operator<(const ContributionKey& o) const {
      if (target_peer != o.target_peer) return target_peer < o.target_peer;
      return relation < o.relation;
    }
  };
  using TupleSet = std::unordered_set<Tuple, TupleHasher>;

  /// What we last shipped for one (target peer, relation): the full
  /// tuple set (the diffing base of differential propagation, and the
  /// direct-comparison change detector of both modes — hashes are never
  /// trusted for suppression) plus the stream version.
  struct SentContribution {
    TupleSet tuples;
    uint64_t version = 0;
  };

  /// One queued inbound contribution update. Full-slice DerivedSets
  /// arrive as version-less snapshots, so both protocols flow through
  /// one queue in arrival order.
  struct InboundDerived {
    std::string sender;
    bool versioned = false;
    DerivedDelta delta;
  };

  /// Program-level facts the incremental driver needs per stage,
  /// recomputed when the rule set changes.
  struct ProgramInfo {
    /// False when no incremental stage can be sound for this program /
    /// configuration (variable-named negated atoms, derivations that
    /// can write negated relations, naive-mode ablation).
    bool incremental_ok = true;
    /// Interned ids of relations appearing in (constant-named) negated
    /// atoms; a stage whose Δ touches one falls back to recompute.
    std::unordered_set<uint32_t> negated_ids;
  };

  Status ValidateNewRule(const Rule& rule) const;
  void NoteRuleSetChanged();
  void RefreshProgramInfo();
  bool ChangesEligible(const StageChangeLog& log) const;
  void ApplyInputs(StageStats* stats, bool* changed, StageChangeLog* log);
  void ApplyInboundDerived(InboundDerived& in, bool* changed,
                           StageChangeLog* log);
  void ClearIntensionalRelations();
  void SeedIntensionalFromContributions(bool track_support);
  /// Erases the ship-once suppression entry for a fact this stage
  /// re-ships as an insert, and schedules the next stage to re-derive
  /// (and re-ship) any deletion-rule verdict on it.
  void ClearDeleteSuppression(const std::string& relation,
                              const std::string& peer, const Tuple& tuple);
  void EmitContributions(
      std::map<ContributionKey, TupleSet>* contributions,
      StageResult* result);
  void EmitContributionsIncremental(
      std::map<ContributionKey, TupleSet>* contrib_added,
      std::map<ContributionKey, TupleSet>* contrib_removed,
      StageResult* result);
  void ServeResyncs(StageResult* result);
  void EmitDelegationDiff(std::map<uint64_t, Delegation> delegations,
                          StageResult* result);
  void FinalizeOutbound(StageResult* result);
  void RunFixpoint(StageStats* stats,
                   std::map<ContributionKey, TupleSet>* contributions,
                   std::map<uint64_t, Delegation>* delegations,
                   std::unordered_set<Fact, FactHasher>* self_updates,
                   std::unordered_set<Fact, FactHasher>* self_deletes,
                   std::unordered_set<Fact, FactHasher>* remote_deletes,
                   DerivationTracker* tracker);
  /// The seed semantics: clear views, reseed from slices, recompute the
  /// fixpoint. Serves recompute-mode stages and doubles as the init /
  /// fallback path of incremental mode (`rebuild_derived_state`).
  void RunStageRecompute(StageResult* result, bool changed_local,
                         bool rebuild_derived_state);
  /// The Δ-driven stage: deletion cascade (over-delete / re-derive),
  /// then semi-naive forward evaluation from the change seeds only.
  void RunStageIncremental(StageResult* result, bool changed_local,
                           StageChangeLog* log);
  bool HasLocalDerivation(const Fact& target);
  uint64_t IntensionalContentHash() const;

  std::string self_peer_;
  Symbol self_sym_;  // interned self name (delegation-capability checks)
  EngineOptions options_;
  Catalog catalog_;
  // Owned across stages so the plan cache persists: a rule is compiled
  // once per engine, not once per fixpoint.
  RuleEvaluator evaluator_;

  std::vector<InstalledRule> rules_;
  uint64_t next_rule_id_ = 1;

  // Step-1 queues.
  std::vector<Fact> inbound_inserts_;
  std::vector<Fact> inbound_deletes_;
  std::vector<InboundDerived> inbound_derived_;
  // Resync requests received from peers, served next stage.
  std::set<std::pair<std::string, std::string>> pending_resync_serves_;
  // Delegation keys to re-ship next stage (link reset to their target;
  // installs are idempotent by key at the receiver).
  std::set<uint64_t> pending_delegation_reships_;
  // (sender, relation) stream-forget notices to emit next stage: the
  // relation was dropped here, the sender should clear its
  // SentContribution toward us.
  std::set<std::pair<std::string, std::string>> pending_stream_forgets_;
  // Gaps detected while applying inbound deltas this stage: (sender,
  // relation) -> highest update version we failed to apply. Turned into
  // outbound resync requests in step 3, unless a later message in the
  // batch (duplicate, reordered original, snapshot) already moved the
  // stream to that version — then the gap healed itself and a request
  // would only buy a redundant full snapshot.
  std::map<std::pair<std::string, std::string>, uint64_t> resync_needed_;

  // Deferred local extensional derivations (visible next stage, like
  // Bud's deferred <+ operator), and deferred deletions from deletion
  // rules (Bud's <- operator).
  std::unordered_set<Fact, FactHasher> pending_self_updates_;
  std::unordered_set<Fact, FactHasher> pending_self_deletes_;

  // Remote contributions to local intensional relations: per-sender
  // slices with support counts and delta-stream versions. Under the
  // recompute oracle the union is re-seeded into the view relations at
  // every stage start; under incremental maintenance only support
  // transitions flow into the views.
  SliceStore slice_store_;

  // What we already shipped, for change detection and delta diffing.
  std::map<ContributionKey, SentContribution> sent_contributions_;
  std::map<uint64_t, Delegation> sent_delegations_;
  // Remote deletions already shipped (deletion is idempotent; ship once
  // — until the same fact is re-shipped as an insert, which clears the
  // entry so a later deletion verdict ships again).
  std::unordered_set<Fact, FactHasher> sent_remote_deletes_;

  // --- incremental-maintenance state (DESIGN.md §6) -------------------
  // Per-tuple support records of resident derived tuples.
  DerivationTracker tracker_;
  // Net direct InsertFact/RemoveFact changes since the last stage
  // (incremental mode records them; recompute re-reads everything).
  StageChangeLog direct_changes_;
  // The current derived contribution per (target peer, relation) and
  // the current delegation set — maintained across stages so emission
  // diffs are O(change); the recompute oracle rebuilds them per stage.
  std::map<ContributionKey, TupleSet> current_contributions_;
  std::map<uint64_t, Delegation> current_delegations_;
  // Facts whose delete-suppression entry was cleared by an insert
  // re-ship: next stage re-checks active deletion rules against them.
  std::unordered_set<Fact, FactHasher> pending_delete_rechecks_;
  // True once a full stage has populated tracker_ and the current_*
  // maps; until then every stage recomputes.
  bool derived_state_ready_ = false;
  // Rule set changed since the last stage: the next stage recomputes
  // (and refreshes program_info_).
  bool rules_changed_ = true;
  ProgramInfo program_info_;

  PropagationCounters prop_counters_;

  uint64_t prev_intensional_hash_ = 0;
  bool ran_any_stage_ = false;
  // Set by every mutating API call (rule/fact changes) so the runtime
  // knows a stage is needed; cleared by RunStage.
  bool dirty_ = true;
};

}  // namespace wdl

#endif  // WDL_ENGINE_ENGINE_H_
