#ifndef WDL_STORAGE_HASH_INDEX_H_
#define WDL_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <map>
#include <vector>

#include "storage/tuple.h"

namespace wdl {

/// An open-addressing hash index: 64-bit value hash -> chain of tuple
/// pointers. Purpose-built for the join inner loop, where the probe is
/// the hot operation:
///
///  - power-of-two capacity, so a probe is a mask, not the modulo
///    division a std::unordered_* bucket lookup pays;
///  - linear probing over a contiguous slot array (one cache line
///    covers several slots), entries in a contiguous pool;
///  - the caller supplies the hash (Values cache theirs), so probing
///    never touches value bytes.
///
/// Keys are hashes, so distinct values can share a chain — callers must
/// confirm equality on the surfaced tuples (see Relation::LookupEqual).
/// Not thread-safe, like everything per-peer.
class HashIndex {
 public:
  void Clear() {
    slots_.clear();
    pool_.clear();
    keys_ = 0;
    live_keys_ = 0;
    free_head_ = kNil;
  }

  /// Pre-sizes for `expected` distinct keys.
  void Reserve(size_t expected) {
    size_t want = SizeFor(expected);
    if (want > slots_.size()) Rehash(want);
    pool_.reserve(expected);
  }

  void Insert(uint64_t hash, const Tuple* tuple) {
    if (slots_.empty() || (keys_ + 1) * 4 > slots_.size() * 3) {
      // Load counts dead keys too (they lengthen probe sequences), but
      // the new size is chosen from *live* keys: a rehash drops dead
      // keys, so insert/remove churn compacts instead of ratcheting
      // capacity upward forever.
      Rehash(SizeFor(live_keys_ + 1));
    }
    Slot& s = slots_[FindSlot(hash)];
    if (s.head == kEmpty) {
      s.hash = hash;
      s.head = kNil;
      ++keys_;
      ++live_keys_;
    } else if (s.head == kNil) {
      ++live_keys_;  // resurrecting a dead key
    }
    uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = pool_[idx].next;
      pool_[idx] = Entry{tuple, s.head};
    } else {
      idx = static_cast<uint32_t>(pool_.size());
      pool_.push_back(Entry{tuple, s.head});
    }
    s.head = idx;
  }

  /// Unlinks one chain entry for (hash, tuple); no-op when absent.
  /// An emptied chain leaves its key slot in place as a dead key
  /// (probing must keep walking past it) until the next rehash.
  void Remove(uint64_t hash, const Tuple* tuple) {
    if (slots_.empty()) return;
    Slot& s = slots_[FindSlot(hash)];
    if (s.head == kEmpty) return;
    uint32_t* link = &s.head;
    while (*link != kNil) {
      Entry& e = pool_[*link];
      if (e.tuple == tuple) {
        uint32_t dead = *link;
        *link = e.next;
        e.tuple = nullptr;
        e.next = free_head_;
        free_head_ = dead;
        if (s.head == kNil) --live_keys_;  // chain emptied: key is dead
        return;
      }
      link = &e.next;
    }
  }

  /// Slot-array capacity (tests assert churn does not ratchet it).
  size_t SlotCapacityForTesting() const { return slots_.size(); }

  /// Invokes `fn(const Tuple*)` on every entry whose key equals `hash`,
  /// newest first. `fn` must not mutate this index.
  template <typename Fn>
  void ForEachWithHash(uint64_t hash, Fn&& fn) const {
    if (slots_.empty()) return;
    const Slot& s = slots_[FindSlot(hash)];
    if (s.head == kEmpty) return;
    for (uint32_t e = s.head; e != kNil; e = pool_[e].next) {
      fn(pool_[e].tuple);
    }
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;  // unoccupied slot
  static constexpr uint32_t kNil = 0xFFFFFFFEu;    // chain terminator

  struct Slot {
    uint64_t hash = 0;
    uint32_t head = kEmpty;
  };
  struct Entry {
    const Tuple* tuple;
    uint32_t next;
  };

  /// First slot that is empty or keyed by `hash` (keys are never
  /// displaced, so the probe sequence is stable).
  size_t FindSlot(uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (slots_[i].head != kEmpty && slots_[i].hash != hash) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Smallest power-of-two capacity keeping `keys` under 3/4 load.
  static size_t SizeFor(size_t keys) {
    size_t want = 16;
    while (want * 3 < keys * 4) want <<= 1;
    return want;
  }

  void Rehash(size_t new_size) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_size, Slot{});
    keys_ = 0;
    for (const Slot& s : old) {
      if (s.head == kEmpty || s.head == kNil) continue;  // empty/dead key
      const size_t mask = slots_.size() - 1;
      size_t i = static_cast<size_t>(s.hash) & mask;
      while (slots_[i].head != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
      ++keys_;
    }
    live_keys_ = keys_;
  }

  std::vector<Slot> slots_;   // power-of-two size (or empty)
  std::vector<Entry> pool_;   // chain storage; freed entries recycled
  size_t keys_ = 0;           // occupied key slots, live and dead
  size_t live_keys_ = 0;      // keys with a non-empty chain
  uint32_t free_head_ = kNil;
};

/// A family of per-column HashIndexes built lazily on first probe — the
/// access pattern shared by `Relation` (persistent storage) and the
/// evaluator's `DeltaSet` (per-iteration Δ): a column is indexed only
/// once a join actually probes it, and already-built indexes are kept
/// current on every subsequent insert/remove. Centralizing it here
/// keeps the build-on-first-probe and collision-confirming-probe logic
/// in one place (ROADMAP item); only Relation's snapshot/version layer
/// stays outside.
///
/// Tuples too short for a column are simply not indexed on it, so the
/// helper is safe for heterogeneous scratch sets.
class LazyColumnIndexes {
 public:
  /// The index on `column`, built from `tuples` (any iterable of Tuple
  /// with stable element addresses) when probed for the first time.
  template <typename Container>
  const HashIndex& Ensure(size_t column, const Container& tuples) {
    auto it = indexes_.find(column);
    if (it == indexes_.end()) {
      it = indexes_.emplace(column, HashIndex()).first;
      it->second.Reserve(tuples.size());
      for (const Tuple& t : tuples) {
        if (column < t.size()) it->second.Insert(t[column].Hash(), &t);
      }
    }
    return it->second;
  }

  /// Keeps already-built indexes current; columns never probed stay
  /// unindexed (and unpaid-for).
  void OnInsert(const Tuple* stored) {
    for (auto& [col, index] : indexes_) {
      if (col < stored->size()) index.Insert((*stored)[col].Hash(), stored);
    }
  }
  void OnRemove(const Tuple* stored) {
    for (auto& [col, index] : indexes_) {
      if (col < stored->size()) index.Remove((*stored)[col].Hash(), stored);
    }
  }

  /// Empties every built index without dropping it (the container was
  /// cleared; probed columns stay hot).
  void ClearEntries() {
    for (auto& [col, index] : indexes_) index.Clear();
  }

  bool Has(size_t column) const { return indexes_.count(column) > 0; }

  /// Collision-confirming probe: invokes `fn(const Tuple&)` on entries
  /// of `index` whose `column`-th value *equals* `value` (the index is
  /// keyed by hash only, so equality must be re-checked on every hit).
  template <typename Fn>
  static void ProbeEqual(const HashIndex& index, size_t column,
                         const Value& value, Fn&& fn) {
    index.ForEachWithHash(value.Hash(), [&](const Tuple* t) {
      if ((*t)[column] == value) fn(*t);
    });
  }

 private:
  std::map<size_t, HashIndex> indexes_;
};

}  // namespace wdl

#endif  // WDL_STORAGE_HASH_INDEX_H_
