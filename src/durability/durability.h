#ifndef WDL_DURABILITY_DURABILITY_H_
#define WDL_DURABILITY_DURABILITY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "durability/snapshot.h"
#include "durability/wal.h"
#include "net/message.h"

namespace wdl {

/// Per-peer durability configuration (DESIGN.md §11). The empty `dir`
/// default keeps durability off — the fully in-memory runtime stays
/// the oracle, exactly like the compiled-plan / differential /
/// incremental options — so every existing path is byte-identical
/// unless a host opts in.
struct DurabilityOptions {
  /// Directory holding this peer's snapshot + WAL generations; created
  /// on open. Empty disables durability.
  std::string dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kBatch;
  /// Write a snapshot (and truncate the log) once this many records
  /// have been appended since the last one; 0 never snapshots (the
  /// log grows until the host rotates it by hand).
  uint64_t snapshot_interval_records = 4096;
};

/// WAL record taxonomy (DESIGN.md §11 has the full table). Everything
/// that mutates durable peer state is logged *before* it is applied;
/// replay re-applies records in order against the restored snapshot.
enum class WalRecordType : uint8_t {
  /// A received envelope, re-encoded with the wire codec. Replay feeds
  /// it back through Peer::HandleEnvelope; the SliceStore version gate
  /// makes duplicated deltas idempotent. Heartbeats, Hellos, and
  /// resync requests are not logged (no durable state change).
  kEnvelope = 1,
  kLocalFactInsert = 2,   // Fact, logged when the insert changed state
  kLocalFactDelete = 3,   // Fact, logged when the delete changed state
  kLocalDecl = 4,         // RelationDecl
  kLocalRuleAdd = 5,      // engine rule id + Rule
  kLocalRuleRemove = 6,   // engine rule id
  /// What one stage shipped: derived deltas (resync snapshots and
  /// full-slice sets are logged as snapshot-deltas), delegation
  /// installs, and delegation retracts. Replay advances the engine's
  /// SentContribution / sent-delegation state to match, so a recovered
  /// peer diffs its next emission against what receivers actually
  /// hold.
  kStageOutbound = 7,
  kDelegationApprove = 8,  // delegation key
  kDelegationReject = 9,   // delegation key
};

const char* WalRecordTypeToString(WalRecordType type);

/// One WAL record. Exactly the payload fields for `type` are
/// meaningful (the Message pattern).
struct WalRecord {
  WalRecordType type = WalRecordType::kEnvelope;
  Envelope envelope;  // kEnvelope
  Fact fact;          // kLocalFactInsert / kLocalFactDelete
  RelationDecl decl;  // kLocalDecl
  uint64_t id = 0;    // kLocalRuleAdd/Remove: rule id; approvals: key
  Rule rule;          // kLocalRuleAdd
  // kStageOutbound:
  std::vector<DerivedDelta> shipped_deltas;
  std::vector<Delegation> shipped_delegations;
  std::vector<uint64_t> shipped_delegation_retracts;
};

std::string EncodeWalRecord(const WalRecord& record);
Result<WalRecord> DecodeWalRecord(std::string_view bytes);

/// Durability-plane telemetry, surfaced by wdl_peerd's recovery log
/// line and asserted by the crash-recovery tests.
struct DurabilityCounters {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t fsyncs = 0;
  uint64_t snapshots_written = 0;
  uint64_t snapshot_bytes = 0;
  // Recovery-time facts, fixed at Open:
  bool snapshot_recovered = false;
  uint64_t wal_records_recovered = 0;
  bool torn_tail_truncated = false;
  uint64_t torn_bytes_dropped = 0;
  uint64_t generation = 0;
};

/// One peer's durability manager: owns the data directory, appends WAL
/// records, rotates snapshot/WAL generations, and carries the
/// recovered state from Open until the peer has replayed it.
///
/// File layout inside `options.dir`:
///   snap-<G>.wdls   snapshot of generation G (absent for G = 0)
///   wal-<G>.log     records appended since snapshot G
///
/// Rotation order makes every crash window recoverable: the new
/// snapshot is written tmp+rename+dir-fsync first, then the fresh
/// (empty) log is created, then older generations are deleted. A crash
/// between any two steps leaves either the old generation complete or
/// the new one complete — recovery picks the newest snapshot that
/// passes its CRC and replays its matching log, truncating any torn
/// tail so appends resume after the last valid record.
///
/// Not thread-safe: owned by one Peer and driven from the System's
/// driving thread, like the rest of the peer (DESIGN.md §8).
class PeerDurability {
 public:
  /// Opens (creating the directory if needed) and performs the disk
  /// side of recovery: selects the newest valid snapshot, reads the
  /// matching WAL, truncates a torn tail. The decoded snapshot and
  /// records stay available until FinishRecovery().
  static Result<std::unique_ptr<PeerDurability>> Open(
      DurabilityOptions options);

  /// True when Open found anything to restore.
  bool has_recovery() const {
    return snapshot_.has_value() || !recovered_records_.empty();
  }
  const SnapshotData* snapshot() const {
    return snapshot_.has_value() ? &*snapshot_ : nullptr;
  }
  const std::vector<WalRecord>& recovered_records() const {
    return recovered_records_;
  }
  /// Frees the recovery buffers once the peer has replayed them.
  void FinishRecovery();

  Status Append(const WalRecord& record);
  /// The FsyncPolicy::kBatch sync point; peers call it at the end of
  /// every stage (and after local write batches).
  Status EndBatch();

  /// True once snapshot_interval_records have been appended since the
  /// last snapshot; the peer then builds a SnapshotData at its next
  /// safe point and calls WriteSnapshot.
  bool ShouldSnapshot() const;
  /// Writes `snap` as generation G+1 and rotates the WAL (compaction:
  /// the old log's records are all covered by the new snapshot).
  Status WriteSnapshot(const SnapshotData& snap);

  const DurabilityCounters& counters() const { return counters_; }
  const DurabilityOptions& options() const { return options_; }
  uint64_t generation() const { return generation_; }
  /// Records appended since the last snapshot (including recovered
  /// ones — they are in the current log).
  uint64_t records_in_log() const { return records_in_log_; }
  std::string WalPath() const;
  std::string SnapshotPath(uint64_t generation) const;

 private:
  explicit PeerDurability(DurabilityOptions options)
      : options_(std::move(options)) {}

  DurabilityOptions options_;
  uint64_t generation_ = 0;
  uint64_t records_in_log_ = 0;
  std::unique_ptr<WalWriter> writer_;
  bool batch_dirty_ = false;
  std::optional<SnapshotData> snapshot_;
  std::vector<WalRecord> recovered_records_;
  DurabilityCounters counters_;
};

}  // namespace wdl

#endif  // WDL_DURABILITY_DURABILITY_H_
