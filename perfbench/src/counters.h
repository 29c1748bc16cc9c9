#ifndef PERFBENCH_COUNTERS_H_
#define PERFBENCH_COUNTERS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "report.h"
#include "runtime/system.h"
#include "trace.h"

namespace perfbench {

/// The counters the library's modules already expose, summed over the
/// peers of one System: EvalCounters and PropagationCounters per
/// engine, DurabilityCounters per durable peer, NetworkStats of the
/// transport and System::rounds_run(). Differences of two snapshots
/// give the work one operation (or one phase) did.
struct LayerCounters {
  // engine (EvalCounters)
  uint64_t tuples_examined = 0;
  uint64_t delegations_emitted = 0;
  uint64_t plans_compiled = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t index_lookups = 0;
  uint64_t full_scans = 0;
  uint64_t stages_incremental = 0;
  uint64_t stages_full = 0;
  uint64_t rederive_checks = 0;
  // propagation (PropagationCounters)
  uint64_t delta_tuples = 0;  // delta inserts + deletes shipped
  uint64_t resyncs = 0;       // resyncs requested + snapshots shipped
  uint64_t snapshots_applied = 0;
  // durability (DurabilityCounters)
  uint64_t wal_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t snapshots_written = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t wal_records_recovered = 0;
  // transport (NetworkStats) and runtime
  uint64_t messages = 0;
  uint64_t wire_bytes = 0;
  uint64_t rounds = 0;

  LayerCounters operator-(const LayerCounters& o) const;
  LayerCounters& operator+=(const LayerCounters& o);
};

/// Keeps a pointer list of a System's peers, refreshed only when the
/// peer count changes, so per-operation snapshots cost one pass over
/// the peers and no name lookups.
class PeerList {
 public:
  explicit PeerList(wdl::System* system) : system_(system) {}
  const std::vector<wdl::Peer*>& Get();

 private:
  wdl::System* system_;
  std::vector<wdl::Peer*> peers_;
};

LayerCounters Collect(const wdl::System& system,
                      const std::vector<wdl::Peer*>& peers);

/// Tuples held at the end of a run: every relation of every
/// materialized engine plus the contribution slices it stores.
uint64_t StorageTuples(const std::vector<wdl::Peer*>& peers);

/// 64-bit FNV-1a of `s`, continuing from `h`.
uint64_t Fnv1a(std::string_view s, uint64_t h = 14695981039346656037ULL);

/// Digest of GlobalStateFingerprint(system), built one peer at a time
/// so the check never holds a whole-system string (which would show in
/// the peak RSS the benchmark reports).
uint64_t StateDigest(const wdl::System& system);

/// What the per-layer metrics shared by every workload are computed
/// from: the traced operations that were updates, and the counter
/// deltas summed over exactly those operations.
struct UpdateSample {
  std::vector<uint64_t> ops;
  LayerCounters delta;
};

/// Fills the per-layer metrics derived from update spans and update
/// counter deltas (runtime.*, engine.* update ratios, net.*,
/// durability.* per-update ratios, wrappers.sync_us) into `report`.
void AddUpdateLayerMetrics(const Tracer& tracer, const UpdateSample& updates,
                           RunReport* report);

/// Writes the traced run's spans to `<run_dir>/../traces/<workload>.json`
/// and appends the self-time table and counter ratios to the report's
/// human summary.
void FinishTrace(const Tracer& tracer, const RunArgs& args,
                 RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_COUNTERS_H_
