#ifndef WDL_STORAGE_RELATION_H_
#define WDL_STORAGE_RELATION_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ast/program.h"
#include "base/result.h"
#include "base/symbol.h"
#include "storage/hash_index.h"
#include "storage/tuple.h"

namespace wdl {

/// An in-memory stored relation: a set of tuples with a fixed schema and
/// lazily built per-column hash indexes. The container is node-based
/// (unordered_set), so pointers to resident tuples stay valid until that
/// tuple is erased — indexes store such pointers.
///
/// Iteration (ForEach/LookupEqual/ScanEqual) takes the visitor as a
/// template parameter, so the steady-state join loop never constructs a
/// std::function; snapshots go into per-nesting-depth scratch buffers
/// that are reused across calls, so resident iteration performs no heap
/// allocation once the buffers have grown to working-set size.
///
/// Not thread-safe, not even for reads: a Relation belongs to exactly
/// one Peer, peers are share-nothing (see DESIGN.md §1), and a peer is
/// touched only by the System's driving thread (DESIGN.md §8). Const
/// iteration still leases the mutable scratch buffers, and LookupEqual
/// may build an index, so two threads must never read one Relation at
/// once.
class Relation {
 public:
  explicit Relation(RelationDecl decl)
      : decl_(std::move(decl)), symbol_(Symbol::Intern(decl_.relation)) {}

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  const RelationDecl& decl() const { return decl_; }
  const std::string& name() const { return decl_.relation; }
  /// The relation name's interned symbol, cached at construction so
  /// per-derivation paths (Δ-map keys) never touch the intern table.
  Symbol symbol() const { return symbol_; }
  const std::string& peer() const { return decl_.peer; }
  RelationKind kind() const { return decl_.kind; }
  size_t arity() const { return decl_.arity(); }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Inserts a tuple after checking arity and column types.
  /// Returns true when the tuple was new, false when already present.
  Result<bool> Insert(Tuple tuple);

  /// Removes a tuple; returns true when it was present.
  Result<bool> Remove(const Tuple& tuple);

  bool Contains(const Tuple& tuple) const {
    return tuples_.count(tuple) > 0;
  }

  /// Drops all tuples (used for intensional relations at stage start).
  void Clear();

  /// Invokes `fn` on every tuple resident at call time, in unspecified
  /// order. `fn` may insert into this relation (new tuples are not
  /// visited); it must not remove from it. Re-entrant: `fn` may itself
  /// iterate this relation (self-joins).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    // `fn` may insert into this very relation: recursive rules (e.g.
    // same-generation) derive into a relation while joining against it,
    // and an insert can rehash `tuples_`, invalidating live iterators.
    // Iterate a snapshot of node pointers instead — nodes are stable
    // across rehash, so the snapshot stays valid. Tuples inserted by
    // `fn` are not visited (iteration-start semantics); removal during
    // iteration stays unsupported.
    //
    // The snapshot is cached: it is rebuilt only when the relation's
    // version moved, so a scan atom probed once per outer binding (the
    // nested-loop-join inner side) reuses one buffer with zero per-call
    // work. A mid-iteration insert bumps the version; the running loop
    // keeps its (still valid) iteration-start view, and the next scan
    // at this depth rebuilds.
    ScanLease lease(this);
    ScanBuffer& buf = lease.buffer();
    if (buf.version != version_) {
      buf.tuples.clear();
      buf.tuples.reserve(tuples_.size());
      for (const Tuple& t : tuples_) buf.tuples.push_back(&t);
      buf.version = version_;
    }
    for (const Tuple* t : buf.tuples) fn(*t);
  }

  /// Invokes `fn` on tuples whose `column`-th value equals `value`,
  /// using (and if needed building) a hash index on that column. The
  /// same callback contract as ForEach applies.
  template <typename Fn>
  void LookupEqual(size_t column, const Value& value, Fn&& fn) {
    if (column >= decl_.arity()) return;
    const HashIndex& index = EnsureIndex(column);
    // Same hazard as ForEach: `fn` may insert into this relation, and
    // the insert then grows the index mid-probe. Snapshot the matching
    // tuple pointers before invoking the callback; the scratch buffer
    // is reused across calls, so the steady-state probe allocates
    // nothing. ProbeEqual re-confirms equality on each hash hit.
    ScratchLease lease(this);
    std::vector<const Tuple*>& matches = lease.buf();
    LazyColumnIndexes::ProbeEqual(
        index, column, value,
        [&](const Tuple& t) { matches.push_back(&t); });
    for (const Tuple* t : matches) fn(*t);
  }

  /// Index-free variant of LookupEqual, for benchmarking the index
  /// ablation (bench_join): always scans.
  template <typename Fn>
  void ScanEqual(size_t column, const Value& value, Fn&& fn) const {
    if (column >= decl_.arity()) return;
    ScratchLease lease(this);
    std::vector<const Tuple*>& matches = lease.buf();
    for (const Tuple& t : tuples_) {
      if (t[column] == value) matches.push_back(&t);
    }
    for (const Tuple* t : matches) fn(*t);
  }

  /// Snapshot of the contents sorted into canonical order; used by
  /// tests, examples, and the textual "UI frames".
  std::vector<Tuple> SortedTuples() const;

  /// Validates a tuple against the schema without inserting.
  Status CheckTuple(const Tuple& tuple) const;

  /// True when a hash index exists on `column` (observability for tests).
  bool HasIndex(size_t column) const { return indexes_.Has(column); }

 private:
  /// A cached full-scan snapshot, valid while `version` matches the
  /// relation's.
  struct ScanBuffer {
    std::vector<const Tuple*> tuples;
    uint64_t version = 0;  // relation versions start at 1: never valid
  };

  /// RAII lease of the per-nesting-depth buffer of a pool. Buffers are
  /// lazily created per depth (self-joins nest a handful deep) and keep
  /// their capacity across leases, so steady-state iteration allocates
  /// nothing. Scans and keyed lookups draw from separate pools: scan
  /// buffers carry a version and are reused wholesale, lookup buffers
  /// are cleared per probe.
  template <typename Buffer>
  class Lease {
   public:
    // The pools are mutable members, so access through a const Relation
    // already yields non-const lvalues — no cast needed.
    Lease(std::vector<std::unique_ptr<Buffer>>* pool, size_t* depth)
        : pool_(pool), depth_(depth) {
      if (*depth_ == pool_->size()) {
        pool_->push_back(std::make_unique<Buffer>());
      }
      buf_ = (*pool_)[(*depth_)++].get();
    }
    ~Lease() { --*depth_; }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Buffer& buffer() { return *buf_; }

   private:
    std::vector<std::unique_ptr<Buffer>>* pool_;
    size_t* depth_;
    Buffer* buf_;
  };

  class ScanLease : public Lease<ScanBuffer> {
   public:
    explicit ScanLease(const Relation* rel)
        : Lease(&rel->scan_bufs_, &rel->scan_depth_) {}
  };

  class ScratchLease : public Lease<std::vector<const Tuple*>> {
   public:
    explicit ScratchLease(const Relation* rel)
        : Lease(&rel->match_bufs_, &rel->match_depth_) {}
    std::vector<const Tuple*>& buf() {
      buffer().clear();
      return buffer();
    }
  };

  /// Returns the index on `column`, building it on first use.
  const HashIndex& EnsureIndex(size_t column) {
    return indexes_.Ensure(column, tuples_);
  }

  RelationDecl decl_;
  Symbol symbol_;
  std::unordered_set<Tuple, TupleHasher> tuples_;
  LazyColumnIndexes indexes_;
  // Bumped by every successful Insert/Remove/Clear; cached scan
  // snapshots are valid only for the version they were built at.
  uint64_t version_ = 1;
  // Per-depth iteration buffers (mutable: a const scan still leases
  // scratch space).
  mutable std::vector<std::unique_ptr<ScanBuffer>> scan_bufs_;
  mutable size_t scan_depth_ = 0;
  mutable std::vector<std::unique_ptr<std::vector<const Tuple*>>>
      match_bufs_;
  mutable size_t match_depth_ = 0;
};

}  // namespace wdl

#endif  // WDL_STORAGE_RELATION_H_
