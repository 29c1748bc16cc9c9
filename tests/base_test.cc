#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ast/value.h"

#include "base/hash.h"
#include "base/result.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/string_util.h"
#include "base/symbol.h"

namespace wdl {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status s = Status::NotFound("missing relation");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing relation");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    WDL_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = 5;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  Result<int> err = Status::InvalidArgument("bad");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.value_or(9), 9);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool fail) -> Result<std::string> {
    if (fail) return Status::NotFound("nope");
    return std::string("value");
  };
  auto consume = [&](bool fail) -> Result<size_t> {
    WDL_ASSIGN_OR_RETURN(std::string s, produce(fail));
    return s.size();
  };
  EXPECT_EQ(*consume(false), 5u);
  EXPECT_EQ(consume(true).status().code(), StatusCode::kNotFound);
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), std::vector<std::string>{""});
}

TEST(StringUtilTest, JoinInvertsSplit) {
  std::vector<std::string> pieces{"x", "y", "z"};
  EXPECT_EQ(StrJoin(pieces, ", "), "x, y, z");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  ab c \t\n"), "ab c");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("pictures@sigmod", "pictures"));
  EXPECT_FALSE(StartsWith("pic", "pictures"));
  EXPECT_TRUE(EndsWith("sea.jpg", ".jpg"));
  EXPECT_FALSE(EndsWith("jpg", "sea.jpg"));
}

TEST(StringUtilTest, EscapeUnescapeRoundTrip) {
  std::string original = "a\"b\\c\nd\te\rf";
  std::string escaped = EscapeString(original);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  std::string back;
  ASSERT_TRUE(UnescapeString(escaped, &back));
  EXPECT_EQ(back, original);
}

TEST(StringUtilTest, UnescapeRejectsBadEscapes) {
  std::string out;
  EXPECT_FALSE(UnescapeString("\\q", &out));
  EXPECT_FALSE(UnescapeString("trailing\\", &out));
}

TEST(StringUtilTest, IsIdentifier) {
  EXPECT_TRUE(IsIdentifier("pictures"));
  EXPECT_TRUE(IsIdentifier("_x9"));
  EXPECT_FALSE(IsIdentifier("9x"));
  EXPECT_FALSE(IsIdentifier(""));
  EXPECT_FALSE(IsIdentifier("has space"));
  EXPECT_FALSE(IsIdentifier("has-dash"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
  // Long output exercises the two-pass sizing.
  std::string big(500, 'a');
  EXPECT_EQ(StrFormat("%s", big.c_str()).size(), 500u);
}

TEST(HashTest, Fnv1aIsStable) {
  // Known-answer: hash must never change across platforms/builds, since
  // it participates in delegation keys on the wire.
  EXPECT_EQ(HashString("webdamlog"), Fnv1a64("webdamlog", 9));
  EXPECT_NE(HashString("a"), HashString("b"));
  EXPECT_EQ(HashString(""), 1469598103934665603ULL);
}

TEST(HashTest, CombineIsOrderDependent) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(RngTest, DeterministicSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.5);
  EXPECT_NEAR(heads / 10000.0, 0.5, 0.03);
}

TEST(SymbolTest, InternIsIdempotentAndIdentityComparable) {
  Symbol a = Symbol::Intern("base_test_sym_a");
  Symbol b = Symbol::Intern("base_test_sym_b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Symbol::Intern("base_test_sym_a"));
  EXPECT_EQ(a.str(), "base_test_sym_a");
  EXPECT_EQ(a.hash(), HashString("base_test_sym_a"));
  EXPECT_TRUE(a.valid());
}

TEST(SymbolTest, FindDoesNotGrowTheTable) {
  size_t before = Symbol::TableSizeForTesting();
  Symbol missing = Symbol::Find("base_test_never_interned");
  EXPECT_FALSE(missing.valid());
  EXPECT_EQ(missing.str(), "");
  EXPECT_EQ(Symbol::TableSizeForTesting(), before);
  Symbol::Intern("base_test_now_interned");
  EXPECT_TRUE(Symbol::Find("base_test_now_interned").valid());
}

TEST(SymbolTest, InvalidSymbolIsDistinctAndStable) {
  Symbol invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(invalid, Symbol());
  EXPECT_NE(invalid, Symbol::Intern("base_test_sym_a"));
}

// The intern table and the Value hash memo are shared by the driving
// thread and TcpNetwork's reader/sender threads. Several threads intern,
// find and hash overlapping names at once, each in a different order;
// every thread must see the same id per name and the same hash per
// value. Run under TSan in CI.
TEST(SymbolTest, ConcurrentInternFindAndValueHashAgree) {
  constexpr int kThreads = 4;
  constexpr int kNames = 2000;
  std::vector<std::string> names;
  std::vector<Value> values;
  for (int i = 0; i < kNames; ++i) {
    names.push_back("base_test_concurrent_" + std::to_string(i));
    values.push_back(Value::String(names.back()));  // hash not yet memoized
  }
  std::vector<std::vector<uint32_t>> ids(kThreads,
                                         std::vector<uint32_t>(kNames));
  std::vector<std::vector<uint64_t>> hashes(kThreads,
                                            std::vector<uint64_t>(kNames));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int k = 0; k < kNames; ++k) {
        // Each thread walks the names from its own offset, so the
        // first-time interns of a name race across threads.
        int i = (k + t * kNames / kThreads) % kNames;
        Symbol found = Symbol::Find(names[i]);
        Symbol interned = Symbol::Intern(names[i]);
        EXPECT_TRUE(!found.valid() || found == interned) << names[i];
        EXPECT_EQ(interned.str(), names[i]);
        ids[t][i] = interned.id();
        hashes[t][i] = values[i].Hash();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kNames; ++i) {
    EXPECT_EQ(Symbol::Find(names[i]).id(), ids[0][i]);
    uint64_t fresh = Value::String(names[i]).Hash();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(ids[t][i], ids[0][i]) << names[i];
      EXPECT_EQ(hashes[t][i], fresh) << names[i];
    }
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace wdl
