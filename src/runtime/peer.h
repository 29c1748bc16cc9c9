#ifndef WDL_RUNTIME_PEER_H_
#define WDL_RUNTIME_PEER_H_

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "acl/delegation_gate.h"
#include "durability/durability.h"
#include "engine/engine.h"
#include "net/message.h"

namespace wdl {

struct PeerOptions {
  EngineOptions engine;
  /// Durability (DESIGN.md §11): a non-empty `durability.dir` gives the
  /// peer a write-ahead log plus periodic snapshots there, and makes a
  /// Peer constructed over an existing directory recover its state from
  /// disk before serving anything. Empty (the default) keeps the peer
  /// fully in-memory — the oracle path, byte-identical to the pre-WAL
  /// runtime. Enabling durability also flips the engine into
  /// preserve-streams-on-reset mode (see EngineOptions), which assumes
  /// every peer of the cluster is durable too.
  DurabilityOptions durability;
  /// When true, every origin is treated as trusted and delegations
  /// install without approval (the behavior of peers that opted out of
  /// delegation control; the default mirrors the paper: untrusted).
  bool trust_all_delegations = false;
  /// When true, the Engine (catalog, evaluator, slice store, trackers)
  /// is not built until the peer first needs it: first fact, first
  /// rule, or first inbound frame that carries engine work. An idle
  /// peer is then a name plus a few empty containers — the property
  /// that lets one process host 100k+ simulated peers (DESIGN.md §9).
  /// False (the default for standalone peers; System sets it from
  /// SystemOptions::lazy_peer_state) allocates eagerly at construction
  /// — the oracle path, byte-identical to the pre-lazy runtime.
  bool lazy_engine = false;
};

/// One WebdamLog peer: an engine plus the delegation gate and the glue
/// that turns engine stage output into network envelopes and inbound
/// envelopes into engine inputs. Peers are driven by a System but can
/// also be used standalone in tests.
///
/// Concurrency contract (DESIGN.md §8): a Peer is touched only by the
/// System's driving thread — stages, envelope delivery
/// (HandleEnvelope) and submission all run there, one peer after
/// another. The only other threads in the process are TcpNetwork's:
/// readers decode inbound frames concurrently with stages and senders
/// write queued frames, both handing data over through the transport's
/// mutex-guarded queues; they never touch peer state. What they share
/// with stages is process-wide and thread-safe: the Symbol intern table
/// and the Value::Hash memo.
///
/// Durability semantics (DESIGN.md §11), active only with a data dir
/// configured: every state-changing input — local writes through the
/// Peer-level API, inbound envelopes, delegation decisions — is
/// appended to the WAL before/as it applies, each stage's shipped
/// output is logged so emission diff bases survive, and construction
/// over an existing directory replays snapshot + log before the peer
/// serves anything. Writes that bypass the Peer API (calling
/// engine().InsertFact directly) are NOT logged; durable hosts must go
/// through Insert/Remove/AddRuleText/RemoveRule. Check
/// durability_status() after constructing a durable peer.
class Peer {
 public:
  explicit Peer(std::string name, PeerOptions options = {});

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  const std::string& name() const { return name_; }
  /// The peer's engine, materializing it on first touch in lazy mode
  /// (const access too — callers that merely *inspect* an idle peer
  /// without forcing allocation should check has_engine() first).
  Engine& engine() { return EnsureEngine(); }
  const Engine& engine() const { return EnsureEngine(); }
  /// True when the engine has been materialized (always, in eager
  /// mode). An engine-less peer holds no facts, no rules, no streams.
  bool has_engine() const { return engine_ != nullptr; }
  DelegationGate& gate() { return gate_; }
  const DelegationGate& gate() const { return gate_; }

  /// Parses `source` as WebdamLog text and loads it into the engine.
  Status LoadProgramText(std::string_view source);
  Status LoadProgram(const Program& program);

  /// The user API: immediate base-fact updates and rule edits, WAL-
  /// logged when durable. Durable hosts must use these (not the engine
  /// directly) or the write is invisible to recovery.
  Result<bool> Insert(const Fact& fact);
  Result<bool> Remove(const Fact& fact);
  Result<uint64_t> AddRuleText(std::string_view rule_text);
  Status RemoveRule(uint64_t rule_id);

  /// Routes one arriving envelope into the engine / delegation gate.
  void HandleEnvelope(const Envelope& envelope);

  /// Runs one engine stage and returns the envelopes to transmit.
  std::vector<Envelope> RunStage();

  /// Version-only heartbeat envelopes for every contribution stream
  /// this peer has shipped (see Engine::CollectHeartbeats). The runtime
  /// submits these periodically so a receiver that lost the last frame
  /// of a then-silent stream detects the gap within one heartbeat
  /// interval instead of waiting for the next organic change.
  std::vector<Envelope> MakeHeartbeats();

  bool HasPendingWork() const {
    return engine_ != nullptr && engine_->HasPendingWork();
  }

  /// A transport-level link to `remote` was lost/re-established; streams
  /// re-establish through the resync machinery. No-op for an engine-less
  /// peer (it has no streams), without materializing it.
  void NoteLinkReset(const std::string& remote) {
    if (engine_ != nullptr) engine_->NoteLinkReset(remote);
  }

  /// Approximate resident bytes of this peer's fixed bookkeeping: the
  /// Peer object plus its heap-allocated name/known-peer strings. For a
  /// materialized peer this *excludes* engine state (catalog tuples,
  /// plans, streams scale with data, not peer count); the idle-peer
  /// memory model (DESIGN.md §9) and its regression ceiling are about
  /// the per-peer fixed cost.
  size_t ApproxIdleBytes() const;

  /// Approves a pending delegation: installs the rule ("the program of
  /// Jules is changed once the approval is granted", §4).
  Status ApproveDelegation(uint64_t delegation_key);
  Status RejectDelegation(uint64_t delegation_key);

  /// Peers this peer has heard of (populated from traffic — envelope
  /// senders and Hello announcements — or explicitly by a host that
  /// wires up a static topology, e.g. wdl_peerd).
  const std::set<std::string>& known_peers() const { return known_peers_; }
  void AddKnownPeer(const std::string& peer) { known_peers_.insert(peer); }

  // --- durability (DESIGN.md §11) -------------------------------------
  /// Non-null iff this peer was constructed with a data dir and the
  /// directory opened cleanly.
  const PeerDurability* durability() const { return durability_.get(); }
  /// True when construction restored state from disk (snapshot and/or
  /// WAL records were found and replayed).
  bool recovered() const { return recovered_; }
  /// OK for a memory-only peer or a durable peer whose open + recovery
  /// succeeded. A durable host must check this after construction: a
  /// non-OK status means the peer is running WITHOUT durability (the
  /// data dir was unusable or its contents did not replay).
  const Status& durability_status() const { return durability_status_; }

  /// Textual UI: program listing plus the pending-delegation queue
  /// (the paper's Figure 3 view).
  std::string RenderProgramView() const;

  /// Textual UI: contents of one relation as a table-ish frame
  /// (the paper's Figure 1 frames).
  std::string RenderRelation(const std::string& relation) const;

 private:
  /// Materializes the engine (lazy mode) or returns the existing one.
  /// Const because materialization is a caching concern, not a logical
  /// state change: a fresh engine holds exactly the state an idle peer
  /// logically has (nothing).
  Engine& EnsureEngine() const;

  /// Appends one record to the WAL; no-op for memory-only peers and
  /// during replay. A failed append logs and latches
  /// durability_status_ — the peer keeps serving, degraded to memory-
  /// only semantics, rather than dropping writes.
  void LogDurable(const WalRecord& record);
  /// True when `envelope` must be logged before applying: it carries
  /// state a recovered peer cannot reconstruct otherwise. Heartbeats,
  /// Hellos, and resync requests are pure control plane and are
  /// regenerated by the protocol itself.
  static bool ShouldLogEnvelope(const Envelope& envelope);
  /// Applies one replayed WAL record (replaying_ is set by the caller).
  void ApplyWalRecord(const WalRecord& record);
  /// Restores snapshot + WAL via durability_; called from the ctor.
  Status RecoverFromDurability();
  /// Serializes current peer state for WriteSnapshot.
  SnapshotData MakeSnapshot() const;
  /// End-of-stage durability hook: batch fsync, then snapshot + log
  /// rotation when the interval elapsed.
  void FinishDurableStage();

  std::string name_;
  PeerOptions options_;
  // The only heavyweight member, lazily allocated when lazy_engine is
  // set; everything else an idle peer carries is a few empty containers.
  mutable std::unique_ptr<Engine> engine_;
  DelegationGate gate_;
  std::set<std::string> known_peers_;
  uint64_t next_seq_ = 0;

  std::unique_ptr<PeerDurability> durability_;
  bool replaying_ = false;  // WAL replay in progress: do not re-log
  bool recovered_ = false;
  Status durability_status_;
};

}  // namespace wdl

#endif  // WDL_RUNTIME_PEER_H_
