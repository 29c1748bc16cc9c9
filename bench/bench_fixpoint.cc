// Experiment A1 — fixpoint strategy ablation (DESIGN.md §3).
//
// The paper's engine (§2) runs "a fixpoint computation of its program"
// every stage; our production path is semi-naive, with naive kept as
// the ablation baseline. This bench regenerates the classic result the
// choice rests on: on recursive programs (transitive closure over a
// chain / a random graph, same-generation), semi-naive evaluation
// scales roughly linearly in the output while naive re-derives
// everything every iteration.
//
// Expected shape: SemiNaive beats Naive, and the gap widens with input
// size (superlinear in chain length for TC).

#include <benchmark/benchmark.h>

#include "engine/engine.h"
#include "parser/parser.h"

namespace wdl {
namespace {

constexpr char kTcProgram[] =
    "collection ext edge@p(x: int, y: int);"
    "collection int tc@p(x: int, y: int);"
    "rule tc@p($x, $y) :- edge@p($x, $y);"
    "rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);";

void LoadChain(Engine* e, int n) {
  for (int64_t i = 0; i < n; ++i) {
    benchmark::DoNotOptimize(
        e->InsertFact(Fact("edge", "p", {Value::Int(i), Value::Int(i + 1)})));
  }
}

/// Plan-cache and access-path telemetry for the bench JSON: future perf
/// PRs can attribute wins (index vs scan vs Δ-probe mix, cache reuse).
void ExportEvalCounters(benchmark::State& state, const EvalCounters& c) {
  state.counters["plans_compiled"] = static_cast<double>(c.plans_compiled);
  state.counters["plan_cache_hits"] =
      static_cast<double>(c.plan_cache_hits);
  state.counters["slot_bindings"] = static_cast<double>(c.slot_bindings);
  state.counters["index_lookups"] = static_cast<double>(c.index_lookups);
  state.counters["full_scans"] = static_cast<double>(c.full_scans);
  state.counters["delta_index_probes"] =
      static_cast<double>(c.delta_index_probes);
  state.counters["delta_scans"] = static_cast<double>(c.delta_scans);
}

void BM_TransitiveClosureChain(benchmark::State& state, EvalMode mode) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    EngineOptions opts;
    opts.mode = mode;
    Engine e("p", opts);
    Program program = *ParseProgram(kTcProgram);
    (void)e.LoadProgram(program);
    LoadChain(&e, n);
    state.ResumeTiming();

    StageResult r = e.RunStage();
    benchmark::DoNotOptimize(r.stats.local_derivations);
    state.counters["derived"] = static_cast<double>(
        e.catalog().Get("tc")->size());
    state.counters["iterations"] = r.stats.iterations;
    state.counters["tuples_examined"] =
        static_cast<double>(r.stats.tuples_examined);
    ExportEvalCounters(state, e.eval_counters());
  }
}

void BM_TcChain_SemiNaive(benchmark::State& state) {
  BM_TransitiveClosureChain(state, EvalMode::kSemiNaive);
}
void BM_TcChain_Naive(benchmark::State& state) {
  BM_TransitiveClosureChain(state, EvalMode::kNaive);
}
BENCHMARK(BM_TcChain_SemiNaive)->Arg(16)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_TcChain_Naive)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_TcRandomGraph(benchmark::State& state, EvalMode mode) {
  int nodes = static_cast<int>(state.range(0));
  int edges = nodes * 3;
  for (auto _ : state) {
    state.PauseTiming();
    EngineOptions opts;
    opts.mode = mode;
    Engine e("p", opts);
    (void)e.LoadProgram(*ParseProgram(kTcProgram));
    uint64_t s = 42;
    for (int i = 0; i < edges; ++i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      int64_t a = (s >> 33) % nodes;
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      int64_t b = (s >> 33) % nodes;
      (void)e.InsertFact(Fact("edge", "p", {Value::Int(a), Value::Int(b)}));
    }
    state.ResumeTiming();
    StageResult r = e.RunStage();
    benchmark::DoNotOptimize(r);
    state.counters["derived"] =
        static_cast<double>(e.catalog().Get("tc")->size());
    ExportEvalCounters(state, e.eval_counters());
  }
}

void BM_TcGraph_SemiNaive(benchmark::State& state) {
  BM_TcRandomGraph(state, EvalMode::kSemiNaive);
}
void BM_TcGraph_Naive(benchmark::State& state) {
  BM_TcRandomGraph(state, EvalMode::kNaive);
}
BENCHMARK(BM_TcGraph_SemiNaive)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_TcGraph_Naive)->Arg(32)->Arg(64)->Arg(128);

// Same-generation: a second recursion shape (bushier deltas).
void BM_SameGeneration(benchmark::State& state, EvalMode mode) {
  int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    EngineOptions opts;
    opts.mode = mode;
    Engine e("p", opts);
    (void)e.LoadProgram(*ParseProgram(
        "collection ext par@p(c: int, d: int);"
        "collection int sg@p(x: int, y: int);"
        "rule sg@p($x, $x) :- par@p($x, $_);"
        "rule sg@p($x, $y) :- par@p($x, $xp), sg@p($xp, $yp), "
        "par@p($y, $yp);"));
    // Complete binary tree: par(child, parent).
    int id = 1;
    for (int level = 0; level < depth; ++level) {
      int level_start = 1 << level;
      for (int i = 0; i < (1 << level); ++i) {
        int parent = level_start + i;
        (void)e.InsertFact(Fact(
            "par", "p", {Value::Int(2 * parent), Value::Int(parent)}));
        (void)e.InsertFact(Fact(
            "par", "p", {Value::Int(2 * parent + 1), Value::Int(parent)}));
        id += 2;
      }
    }
    benchmark::DoNotOptimize(id);
    state.ResumeTiming();
    StageResult r = e.RunStage();
    benchmark::DoNotOptimize(r);
    state.counters["derived"] =
        static_cast<double>(e.catalog().Get("sg")->size());
    ExportEvalCounters(state, e.eval_counters());
  }
}

void BM_SameGen_SemiNaive(benchmark::State& state) {
  BM_SameGeneration(state, EvalMode::kSemiNaive);
}
void BM_SameGen_Naive(benchmark::State& state) {
  BM_SameGeneration(state, EvalMode::kNaive);
}
BENCHMARK(BM_SameGen_SemiNaive)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK(BM_SameGen_Naive)->Arg(4)->Arg(6)->Arg(8);

}  // namespace
}  // namespace wdl

BENCHMARK_MAIN();
