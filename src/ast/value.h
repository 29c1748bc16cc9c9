#ifndef WDL_AST_VALUE_H_
#define WDL_AST_VALUE_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

#include "base/hash.h"

namespace wdl {

/// Runtime type of a Value. kAny is only legal in schema declarations
/// (a column that accepts any value), never as the tag of a live Value.
enum class ValueKind : uint8_t {
  kInt = 0,
  kDouble = 1,
  kString = 2,
  kBlob = 3,
  kAny = 4,
};

const char* ValueKindToString(ValueKind kind);

/// A ground data value flowing through the system: the `a1,...,an` of a
/// WebdamLog fact m@p(a1,...,an). Values are immutable once built and
/// freely copyable. Blobs model binary picture payloads; they compare by
/// content like everything else.
class Value {
 public:
  struct Blob {
    std::string bytes;
    bool operator==(const Blob& o) const { return bytes == o.bytes; }
    bool operator<(const Blob& o) const { return bytes < o.bytes; }
  };

  Value() : rep_(int64_t{0}) {}

  // The atomic hash cache deletes the implicit copy/move operations;
  // these reproduce them exactly (the cached hash travels with the
  // value, so a copy never recomputes). A moved-from Value keeps its
  // old cache, matching the pre-atomic behavior: its rep_ is
  // unspecified and it is only ever assigned-to or destroyed.
  Value(const Value& o)
      : rep_(o.rep_), hash_(o.hash_.load(std::memory_order_relaxed)) {}
  Value(Value&& o) noexcept
      : rep_(std::move(o.rep_)),
        hash_(o.hash_.load(std::memory_order_relaxed)) {}
  Value& operator=(const Value& o) {
    rep_ = o.rep_;
    hash_.store(o.hash_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    rep_ = std::move(o.rep_);
    hash_.store(o.hash_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }
  static Value MakeBlob(std::string bytes) {
    return Value(Rep(Blob{std::move(bytes)}));
  }

  ValueKind kind() const {
    return static_cast<ValueKind>(rep_.index());
  }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_double() const { return kind() == ValueKind::kDouble; }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_blob() const { return kind() == ValueKind::kBlob; }

  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  const Blob& AsBlob() const { return std::get<Blob>(rep_); }

  /// Surface-syntax rendering: ints/doubles bare, strings quoted and
  /// escaped, blobs as 0x-prefixed hex.
  std::string ToString() const;

  /// Stable 64-bit content hash (used in indexes and provenance ids).
  /// Memoized on first use — values are immutable, and string/blob
  /// payloads flow through TupleHasher and index probes far more often
  /// than they are hashed, so the steady state is a plain load, while
  /// construction-only paths (e.g. wire decode) never pay for hashing.
  /// 0 marks "not yet computed"; a real hash of 0 is remapped to 1.
  /// The cache is a relaxed atomic so concurrent readers (the driving
  /// thread and the TCP transport's threads, DESIGN.md §8) race only on
  /// which thread publishes the identical value — the hash is a pure
  /// function of the immutable rep_, so no ordering is needed.
  uint64_t Hash() const {
    uint64_t h = hash_.load(std::memory_order_relaxed);
    if (h == 0) {
      h = ComputeHash();
      if (h == 0) h = 1;
      hash_.store(h, std::memory_order_relaxed);
    }
    return h;
  }

  /// Test-only: a copy of `v` whose cached hash is forced to `hash`.
  /// Lets storage tests manufacture hash collisions between distinct
  /// values (index keys and hash buckets collide, equality must still
  /// discriminate) without hunting for real FNV-1a collisions.
  static Value WithHashForTesting(Value v, uint64_t hash) {
    v.hash_.store(hash, std::memory_order_relaxed);
    return v;
  }

  /// Equality first compares the content hashes: in join loops most
  /// comparisons fail, and a differing hash proves inequality with one
  /// integer compare — no variant dispatch, no byte scan. Join-loop
  /// operands (stored tuples, plan constants) have their hash memoized
  /// already, so Hash() is a load there. (Values with a test-forced
  /// hash must carry consistent forced hashes on both sides of a
  /// comparison.)
  bool operator==(const Value& o) const {
    return Hash() == o.Hash() && rep_ == o.rep_;
  }
  bool operator!=(const Value& o) const { return !(*this == o); }
  /// Total order: by kind tag first, then by content. Gives relations a
  /// canonical sort for deterministic iteration and printing.
  bool operator<(const Value& o) const;

 private:
  using Rep = std::variant<int64_t, double, std::string, Blob>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}
  uint64_t ComputeHash() const;
  Rep rep_;
  // Memoized Hash(); 0 = not yet computed. Relaxed atomic: see Hash().
  mutable std::atomic<uint64_t> hash_{0};
};

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

struct ValueHasher {
  size_t operator()(const Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};

}  // namespace wdl

#endif  // WDL_AST_VALUE_H_
