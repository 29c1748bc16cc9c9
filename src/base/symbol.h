#ifndef WDL_BASE_SYMBOL_H_
#define WDL_BASE_SYMBOL_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "base/hash.h"

namespace wdl {

/// An interned identifier: relation names, peer names, and other
/// program-level strings mapped to a dense uint32 id with a cached
/// content hash. Interning happens at program-load/compile time; the
/// evaluator's inner loops then compare and hash ids instead of
/// re-scanning string bytes (see DESIGN.md §4).
///
/// Ids are process-local and assigned in intern order; they never
/// appear on the wire or in provenance hashes — `hash()` returns the
/// stable content hash (HashString) for that.
///
/// The table is process-wide, append-only, and thread-safe: it is the
/// one structure every peer shares, and the TCP transport's threads
/// run alongside the stage-driving thread (DESIGN.md §8). Intern/Find go
/// through a shared_mutex (exclusive only on a first-time intern);
/// id -> entry resolution (str()/hash(), the evaluator's inner-loop
/// path) is lock-free over chunked storage whose entries never move.
///
/// Append-only means every distinct interned name costs one permanent
/// small entry. Program identifiers are finite; the one unbounded
/// producer is ad-hoc query scratch relations ("__query_<n>"), which
/// leak one entry per query until scratch names are recycled (tracked
/// in ROADMAP). Data strings never intern — runtime name resolution
/// goes through the non-inserting Find().
class Symbol {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// Invalid symbol (valid() == false).
  Symbol() = default;

  /// Interns `text`, creating a table entry when absent.
  static Symbol Intern(std::string_view text);

  /// Looks `text` up without inserting; invalid Symbol when it was
  /// never interned. Used when a runtime string (e.g. a data value in
  /// relation position) may or may not name anything known — absence
  /// means no local relation or peer can match, and the table must not
  /// grow with arbitrary data strings.
  static Symbol Find(std::string_view text);

  /// Number of interned symbols (observability for tests).
  static size_t TableSizeForTesting();

  uint32_t id() const { return id_; }
  bool valid() const { return id_ != kNone; }

  /// The interned text; empty string for the invalid symbol. The
  /// reference is stable for the lifetime of the process.
  const std::string& str() const;

  /// Stable content hash (== HashString(str())), cached at intern time.
  uint64_t hash() const;

  bool operator==(Symbol o) const { return id_ == o.id_; }
  bool operator!=(Symbol o) const { return id_ != o.id_; }
  bool operator<(Symbol o) const { return id_ < o.id_; }

 private:
  explicit Symbol(uint32_t id) : id_(id) {}

  uint32_t id_ = kNone;
};

/// Hashes by id (dense, process-local) — for unordered containers whose
/// lifetime is in-process only, like the evaluator's DeltaMap.
struct SymbolHasher {
  size_t operator()(Symbol s) const {
    return static_cast<size_t>(
        (uint64_t{s.id()} + 1) * 0x9e3779b97f4a7c15ULL >> 32);
  }
};

inline std::ostream& operator<<(std::ostream& os, Symbol s) {
  return os << s.str();
}

}  // namespace wdl

#endif  // WDL_BASE_SYMBOL_H_
