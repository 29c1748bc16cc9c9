#include "counters.h"

#include <algorithm>
#include <cstdio>

#include "runtime/fingerprint.h"

namespace perfbench {

#define PERFBENCH_COUNTER_FIELDS(X)                                       \
  X(tuples_examined) X(delegations_emitted) X(plans_compiled)             \
  X(plan_cache_hits) X(index_lookups) X(full_scans) X(stages_incremental) \
  X(stages_full) X(rederive_checks) X(delta_tuples) X(resyncs)            \
  X(snapshots_applied) X(wal_bytes) X(fsyncs) X(snapshots_written)        \
  X(snapshot_bytes) X(wal_records_recovered) X(messages) X(wire_bytes)    \
  X(rounds)

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
#define PERFBENCH_SUB(f) d.f = f - o.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return d;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
#define PERFBENCH_ADD(f) f += o.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  return *this;
}

const std::vector<wdl::Peer*>& PeerList::Get() {
  if (peers_.size() != system_->PeerCount()) {
    peers_.clear();
    for (const std::string& name : system_->PeerNames()) {
      peers_.push_back(system_->GetPeer(name));
    }
  }
  return peers_;
}

LayerCounters Collect(const wdl::System& system,
                      const std::vector<wdl::Peer*>& peers) {
  LayerCounters c;
  for (const wdl::Peer* peer : peers) {
    if (const wdl::PeerDurability* d = peer->durability()) {
      const wdl::DurabilityCounters& dc = d->counters();
      c.wal_bytes += dc.bytes_appended;
      c.fsyncs += dc.fsyncs;
      c.snapshots_written += dc.snapshots_written;
      c.snapshot_bytes += dc.snapshot_bytes;
      c.wal_records_recovered += dc.wal_records_recovered;
    }
    if (!peer->has_engine()) continue;
    const wdl::Engine& engine = peer->engine();
    const wdl::EvalCounters& ec = engine.eval_counters();
    c.tuples_examined += ec.tuples_examined;
    c.delegations_emitted += ec.delegations_emitted;
    c.plans_compiled += ec.plans_compiled;
    c.plan_cache_hits += ec.plan_cache_hits;
    c.index_lookups += ec.index_lookups;
    c.full_scans += ec.full_scans;
    c.stages_incremental += ec.stages_incremental;
    c.stages_full += ec.stages_full;
    c.rederive_checks += ec.rederive_checks;
    const wdl::PropagationCounters& pc = engine.propagation_counters();
    c.delta_tuples += pc.delta_inserts_shipped + pc.delta_deletes_shipped;
    c.resyncs += pc.resyncs_requested + pc.snapshots_shipped;
    c.snapshots_applied += pc.snapshots_applied;
  }
  wdl::NetworkStats ns = system.transport().StatsSnapshot();
  c.messages = ns.messages_submitted;
  c.wire_bytes = ns.bytes_sent;
  c.rounds = static_cast<uint64_t>(system.rounds_run());
  return c;
}

uint64_t StorageTuples(const std::vector<wdl::Peer*>& peers) {
  uint64_t n = 0;
  for (wdl::Peer* peer : peers) {
    if (!peer->has_engine()) continue;
    wdl::Engine& engine = peer->engine();
    engine.catalog().ForEachRelation(
        [&](wdl::Relation& rel) { n += rel.size(); });
    engine.slice_store().ForEachStream(
        [&](const std::string&, const std::string&, uint64_t,
            const auto& slice) { n += slice.size(); });
  }
  return n;
}

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t StateDigest(const wdl::System& system) {
  uint64_t h = Fnv1a("");
  for (const std::string& name : system.PeerNames()) {
    h = Fnv1a(wdl::PeerStateFingerprint(*system.GetPeer(name)), h);
  }
  return h;
}

void AddUpdateLayerMetrics(const Tracer& tracer, const UpdateSample& updates,
                           RunReport* report) {
  const std::vector<uint64_t>& ops = updates.ops;
  const LayerCounters& d = updates.delta;
  const double n = static_cast<double>(ops.size());
  std::vector<double> converge = tracer.SumPerOp("runtime.converge", ops);
  std::vector<double> stage_self = tracer.SelfSumPerOp("runtime.converge", ops);
  std::map<std::string, Metric>& m = report->per_layer;
  m["runtime.converge_ms"].value = Median(converge) / 1e3;
  m["runtime.stage_self_ms"].value = Median(stage_self) / 1e3;
  m["net.submit_us"].value = Median(tracer.SumPerOp("net.submit", ops));
  m["net.deliver_us"].value = Median(tracer.SumPerOp("net.deliver", ops));
  m["wrappers.sync_us"].value = Median(tracer.SumPerOp("wrappers.sync", ops));

  const double stages = static_cast<double>(d.stages_incremental + d.stages_full);
  m["runtime.rounds_per_update"].value = Ratio(d.rounds, n);
  m["runtime.stages_per_update"].value = Ratio(stages, n);
  m["engine.tuples_examined_per_update"].value = Ratio(d.tuples_examined, n);
  m["engine.index_lookup_frac"].value =
      Ratio(d.index_lookups, d.index_lookups + d.full_scans);
  m["engine.full_stage_frac"].value = Ratio(d.stages_full, stages);
  m["engine.rederive_checks_per_update"].value = Ratio(d.rederive_checks, n);
  m["engine.delegations_emitted_per_update"].value =
      Ratio(d.delegations_emitted, n);
  m["net.messages_per_update"].value = Ratio(d.messages, n);
  m["net.bytes_per_message"].value = Ratio(d.wire_bytes, d.messages);
  m["net.delta_tuples_per_update"].value = Ratio(d.delta_tuples, n);
  m["durability.wal_bytes_per_update"].value = Ratio(d.wal_bytes, n);
  m["durability.fsyncs_per_update"].value = Ratio(d.fsyncs, n);

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "  bases over %zu traced updates: rounds=%llu stages=%.0f "
      "(full=%llu) tuples_examined=%llu index_lookups=%llu full_scans=%llu "
      "rederive_checks=%llu delegations_emitted=%llu messages=%llu "
      "wire_bytes=%llu delta_tuples=%llu wal_bytes=%llu fsyncs=%llu\n",
      ops.size(), static_cast<unsigned long long>(d.rounds), stages,
      static_cast<unsigned long long>(d.stages_full),
      static_cast<unsigned long long>(d.tuples_examined),
      static_cast<unsigned long long>(d.index_lookups),
      static_cast<unsigned long long>(d.full_scans),
      static_cast<unsigned long long>(d.rederive_checks),
      static_cast<unsigned long long>(d.delegations_emitted),
      static_cast<unsigned long long>(d.messages),
      static_cast<unsigned long long>(d.wire_bytes),
      static_cast<unsigned long long>(d.delta_tuples),
      static_cast<unsigned long long>(d.wal_bytes),
      static_cast<unsigned long long>(d.fsyncs));
  report->layer_summary += buf;
}

void FinishTrace(const Tracer& tracer, const RunArgs& args,
                 RunReport* report) {
  // Wepic rounds sync every wrapper, so a traced run records millions
  // of spans; the file keeps the first kMaxWritten (the summary below
  // covers all of them).
  constexpr size_t kMaxWritten = 250000;
  std::string path = args.trace_dir + "/" + args.workload + ".json";
  std::string meta = "\"workload\": " + JsonString(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed);
  if (!tracer.WriteChromeTrace(path, meta, kMaxWritten)) {
    report->notes.push_back("could not write trace file " + path);
  }
  report->layer_summary =
      "trace file: " + path + " (" +
      std::to_string(std::min(kMaxWritten, tracer.spans().size())) + " of " +
      std::to_string(tracer.spans().size()) + " spans)\n" +
      FormatTotals(tracer.TotalsByName()) + report->layer_summary;
}

}  // namespace perfbench
