// tcp_cluster: the paper's deployment shape. This process hosts
// attendee `alice` on a TcpNetwork and spawns two memory-only wdl_peerd
// daemons on loopback, `sigmod` and `bob`, rendezvousing through
// --listen 0 and address files. An open-loop generator uploads pictures
// at alice at one fixed rate; a publication rule at sigmod and bob's
// selection of alice echo each picture id back into alice's catalog.
// An update's latency runs from its due time until both echoes are
// visible at alice.
//
// Each episode starts a fresh cluster (one setup_s sample: spawn to
// first echo), runs the generator, then checks that every peer's state
// equals a simulator replay of the same uploads.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "counters.h"
#include "net/tcp_network.h"
#include "process.h"
#include "runtime/fingerprint.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wdl::Value;

constexpr double kRatePerSecond = 500;
constexpr int kEpisodes = 5;  // 1000 updates each at 10 s: p99 has 10 beyond it
constexpr size_t kBlobBytes = 4096;
constexpr int kStartTimeoutMs = 10000;
constexpr int kEchoTimeoutMs = 5000;
constexpr int kFingerprintTimeoutMs = 10000;

const char* kAliceProgram = R"(
  collection ext pictures@alice(id: int, name: string, owner: string, data: blob);
  collection ext catalog@alice(id: int, source: string);
  rule pictures@sigmod($id, $name, $owner, $data) :- pictures@alice($id, $name, $owner, $data);
)";

const char* kSigmodProgram = R"(
  collection ext pictures@sigmod(id: int, name: string, owner: string, data: blob);
  rule catalog@alice($id, "sigmod") :- pictures@sigmod($id, $name, $owner, $data);
)";

const char* kBobProgram = R"(
  collection ext selectedAttendee@bob(attendee: string);
  collection int attendeePictures@bob(id: int, name: string, owner: string, data: blob);
  fact selectedAttendee@bob("alice");
  rule attendeePictures@bob($id, $name, $owner, $data) :- selectedAttendee@bob($attendee), pictures@$attendee($id, $name, $owner, $data);
  rule catalog@alice($id, "bob") :- attendeePictures@bob($id, $name, $owner, $data);
)";

wdl::Fact PictureFact(uint64_t seed, int64_t id) {
  std::string data(kBlobBytes, static_cast<char>('a' + (seed + id) % 26));
  std::snprintf(data.data(), data.size(), "%llu:%lld",
                static_cast<unsigned long long>(seed), static_cast<long long>(id));
  return wdl::Fact("pictures", "alice",
                   {Value::Int(id), Value::String("p" + std::to_string(id) + ".jpg"),
                    Value::String("alice"), Value::MakeBlob(std::move(data))});
}

wdl::PeerOptions TrustAll() {
  wdl::PeerOptions o;
  o.trust_all_delegations = true;  // what wdl_peerd does by default
  return o;
}

/// Per-peer fingerprint digests (alice, sigmod, bob) of a simulator run
/// of the same uploads: the converged state does not depend on the
/// schedule, so the TCP cluster must end on exactly these.
std::vector<uint64_t> SimulatorReplay(uint64_t seed, int64_t last_id) {
  wdl::System sim;
  wdl::Peer* alice = sim.CreatePeer("alice", TrustAll());
  wdl::Peer* bob = sim.CreatePeer("bob", TrustAll());
  wdl::Peer* sigmod = sim.CreatePeer("sigmod", TrustAll());
  bool ok = alice->LoadProgramText(kAliceProgram).ok() &&
            sigmod->LoadProgramText(kSigmodProgram).ok() &&
            bob->LoadProgramText(kBobProgram).ok();
  for (int64_t id = 0; ok && id <= last_id; ++id) {
    ok = alice->Insert(PictureFact(seed, id)).ok();
  }
  if (!ok || !sim.RunUntilQuiescent(10000).ok()) return {};
  return {Fnv1a(wdl::PeerStateFingerprint(*alice)),
          Fnv1a(wdl::PeerStateFingerprint(*sigmod)),
          Fnv1a(wdl::PeerStateFingerprint(*bob))};
}

struct Stats {
  std::vector<double> setup_s;
  std::vector<double> update_ms;
  // Per-cluster percentiles: a scheduling stall delays every update due
  // during it (open loop), so one stalled cluster can own the pooled
  // tail; the reported figures are medians over clusters.
  std::vector<double> episode_p50_ms;
  std::vector<double> episode_p99_ms;
  std::vector<double> lag_ms;
  double load_seconds = 0;  // first due time to last echo, summed
  uint64_t updates = 0;
  uint64_t completed = 0;
  double peak_rss_mb = 0;
  std::vector<double> daemons_rss_mb;  // sigmod + bob, per cluster
  uint64_t storage_tuples = 0;  // alice's, at the end of the last episode
  LayerCounters delta;  // alice's counters over the load phases
  wdl::TcpTransportStats tcp;
  double OpsPerSecond() const { return Ratio(static_cast<double>(completed), load_seconds); }
};

/// One running cluster. Destruction stops the daemons (the ChildProcess
/// destructors kill and reap them) and shuts down alice's transport.
class Cluster {
 public:
  Cluster(const RunArgs& args, const std::string& dir, Tracer* tracer)
      : args_(args), dir_(dir), tracer_(tracer) {}

  bool Start(RunReport* report);
  /// Runs one round at alice and returns whether it did any work.
  bool Round();
  bool HasBothEchoes(int64_t id) const;
  wdl::Peer* alice() { return alice_; }
  wdl::System& system() { return *system_; }
  wdl::TcpNetwork& tcp() { return *tcp_; }
  /// Polls until every peer's state equals `expected` (alice, sigmod,
  /// bob) or the timeout passes.
  bool WaitForFingerprints(const std::vector<uint64_t>& expected);
  /// Stops the daemons and returns their summed peak RSS in MiB.
  double StopDaemons();
  std::string Logs() const;

 private:
  std::vector<std::string> DaemonArgs(const std::string& name) const;

  const RunArgs& args_;
  std::string dir_;
  Tracer* tracer_;
  wdl::TcpNetwork* tcp_ = nullptr;  // owned by system_
  std::unique_ptr<wdl::System> system_;
  wdl::Peer* alice_ = nullptr;
  std::unique_ptr<ChildProcess> sigmod_;
  std::unique_ptr<ChildProcess> bob_;
};

std::vector<std::string> Cluster::DaemonArgs(const std::string& name) const {
  return {args_.peerd_path, "--name", name, "--program", dir_ + "/" + name + ".wdl",
          "--listen", "0", "--addr-file", dir_ + "/" + name + ".addr",
          "--peer", "alice=@" + dir_ + "/alice.addr",
          "--fingerprint", dir_ + "/" + name + ".fp", "--idle-ms", "200"};
}

bool Cluster::Start(RunReport* report) {
  if (!WriteFile(dir_ + "/sigmod.wdl", kSigmodProgram) ||
      !WriteFile(dir_ + "/bob.wdl", kBobProgram)) {
    report->Wrong("cannot write daemon programs in " + dir_);
    return false;
  }
  auto net = std::make_unique<wdl::TcpNetwork>();
  tcp_ = net.get();
  if (!tcp_->Start().ok()) {
    report->Wrong("alice's transport did not start");
    return false;
  }
  tcp_->AddLocalPeer("alice");
  tcp_->SetPeerAddressFile("sigmod", dir_ + "/sigmod.addr");
  tcp_->SetPeerAddressFile("bob", dir_ + "/bob.addr");
  WriteFile(dir_ + "/alice.addr.tmp", "127.0.0.1:" + std::to_string(tcp_->port()) + "\n");
  std::rename((dir_ + "/alice.addr.tmp").c_str(), (dir_ + "/alice.addr").c_str());
  std::unique_ptr<wdl::Network> transport = std::move(net);
  if (tracer_ != nullptr) {
    transport = std::make_unique<TracingNetwork>(std::move(transport), tracer_);
  }
  system_ = std::make_unique<wdl::System>(std::move(transport));
  alice_ = system_->CreatePeer("alice", TrustAll());
  alice_->AddKnownPeer("sigmod");
  alice_->AddKnownPeer("bob");
  if (!alice_->LoadProgramText(kAliceProgram).ok()) {
    report->Wrong("alice's program did not load");
    return false;
  }
  sigmod_ = std::make_unique<ChildProcess>(DaemonArgs("sigmod"), dir_ + "/sigmod.log");
  bob_ = std::make_unique<ChildProcess>(DaemonArgs("bob"), dir_ + "/bob.log");
  Clock::time_point start = Clock::now();
  while (!FileExists(dir_ + "/sigmod.addr") || !FileExists(dir_ + "/bob.addr")) {
    if (SecondsSince(start) * 1e3 > kStartTimeoutMs) {
      report->Wrong("daemons did not publish their addresses:\n" + Logs());
      return false;
    }
    Round();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

bool Cluster::Round() {
  ScopedSpan span(tracer_, "runtime.round");
  wdl::RoundReport r = system_->RunRound();
  return r.envelopes_delivered > 0 || r.stages_run > 0;
}

bool Cluster::HasBothEchoes(int64_t id) const {
  const wdl::Relation* catalog = alice_->engine().catalog().Get("catalog");
  return catalog != nullptr &&
         catalog->Contains({Value::Int(id), Value::String("sigmod")}) &&
         catalog->Contains({Value::Int(id), Value::String("bob")});
}

bool Cluster::WaitForFingerprints(const std::vector<uint64_t>& expected) {
  Clock::time_point start = Clock::now();
  if (expected.size() != 3) return false;
  // The daemons republish their fingerprint files after each idle
  // period (--idle-ms); keep serving alice's rounds while they settle.
  while (SecondsSince(start) * 1e3 < kFingerprintTimeoutMs) {
    Clock::time_point poll = Clock::now();
    while (SecondsSince(poll) < 0.02) {
      if (!Round()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (Fnv1a(ReadFile(dir_ + "/sigmod.fp")) == expected[1] &&
        Fnv1a(ReadFile(dir_ + "/bob.fp")) == expected[2]) {
      return Fnv1a(wdl::PeerStateFingerprint(*alice_)) == expected[0];
    }
  }
  return false;
}

double Cluster::StopDaemons() {
  long kib = sigmod_->Stop() + bob_->Stop();
  return static_cast<double>(kib) / 1024.0;
}

std::string Cluster::Logs() const {
  return "--- sigmod.log\n" + ReadFile(dir_ + "/sigmod.log") +
         "--- bob.log\n" + ReadFile(dir_ + "/bob.log");
}

/// One cluster lifetime: start, first echo, `updates` uploads at the
/// fixed rate, drain, fingerprint check against the simulator.
void RunEpisode(const RunArgs& args, int episode, int64_t updates, Tracer* tracer,
                Stats* stats, RunReport* report) {
  const uint64_t seed = EpisodeSeed(args.seed, episode);
  ScratchDir dir(args.run_dir + "/tcp-" + std::to_string(episode) +
                 (tracer != nullptr ? "-traced" : ""));
  if (!dir.ok()) return report->Wrong("cannot create " + dir.path());
  // The replay runs in a child process, before this episode starts any
  // transport thread, so its memory stays out of alice's peak RSS.
  const std::vector<uint64_t> expected =
      ComputeInChild([&] { return SimulatorReplay(seed, updates); });
  Clock::time_point start = Clock::now();
  Cluster cluster(args, dir.path(), tracer);
  if (!cluster.Start(report)) return;

  // Set-up ends at the first echo of picture 0.
  if (!cluster.alice()->Insert(PictureFact(seed, 0)).ok()) {
    return report->Wrong("alice rejected the first picture");
  }
  while (!cluster.HasBothEchoes(0)) {
    if (SecondsSince(start) * 1e3 > kStartTimeoutMs) {
      return report->Wrong("no first echo:\n" + cluster.Logs());
    }
    if (!cluster.Round()) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stats->setup_s.push_back(SecondsSince(start));

  // Open loop: upload i (from 1) is due at t0 + (i - 1) / rate, whatever
  // happened before it; latency counts from the due time.
  LayerCounters before = Collect(cluster.system(), {cluster.alice()});
  const uint64_t completed_before = stats->completed;
  const Clock::time_point t0 = Clock::now();
  auto due = [&](int64_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i - 1) /
                                                  kRatePerSecond));
  };
  std::vector<int64_t> in_flight;
  int64_t next = 1;
  Clock::time_point last_echo = t0;
  while (next <= updates || !in_flight.empty()) {
    Clock::time_point now = Clock::now();
    while (next <= updates && due(next) <= now) {
      if (!cluster.alice()->Insert(PictureFact(seed, next)).ok()) {
        report->Miss("alice rejected an upload");
      }
      stats->lag_ms.push_back(SecondsBetween(due(next), Clock::now()) * 1e3);
      in_flight.push_back(next++);
      ++stats->updates;
      ++report->attempted;
    }
    bool worked = cluster.Round();
    now = Clock::now();
    auto done = std::remove_if(in_flight.begin(), in_flight.end(), [&](int64_t id) {
      if (!cluster.HasBothEchoes(id)) return false;
      stats->update_ms.push_back(SecondsBetween(due(id), now) * 1e3);
      ++stats->completed;
      last_echo = now;
      return true;
    });
    in_flight.erase(done, in_flight.end());
    if (!in_flight.empty() &&
        SecondsBetween(due(in_flight.front()), now) * 1e3 > kEchoTimeoutMs) {
      for (size_t i = 0; i < in_flight.size(); ++i) {
        report->Miss("echo not seen within the timeout");
      }
      in_flight.clear();
      if (next > updates) break;
    }
    if (!worked) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  stats->load_seconds += SecondsBetween(t0, last_echo);
  const auto echoed = static_cast<std::ptrdiff_t>(stats->completed - completed_before);
  std::vector<double> latencies(stats->update_ms.end() - echoed, stats->update_ms.end());
  stats->episode_p50_ms.push_back(Quantile(latencies, 0.5));
  stats->episode_p99_ms.push_back(Quantile(latencies, 0.99));
  LayerCounters after = Collect(cluster.system(), {cluster.alice()});
  stats->delta += after - before;

  if (expected.size() != 3) {
    report->Wrong("the simulator replay failed");
  } else if (!cluster.WaitForFingerprints(expected)) {
    report->Wrong("TCP cluster state differs from the simulator replay");
  }
  stats->storage_tuples = StorageTuples({cluster.alice()});
  wdl::TcpTransportStats ts = cluster.tcp().TcpStatsSnapshot();
  stats->tcp.reconnects += ts.reconnects;
  stats->tcp.decode_failures += ts.decode_failures;
  double daemons_mb = cluster.StopDaemons();
  stats->daemons_rss_mb.push_back(daemons_mb);
  stats->peak_rss_mb = std::max(stats->peak_rss_mb, SelfPeakRssMb() + daemons_mb);
}

}  // namespace

RunReport RunTcpCluster(const RunArgs& args) {
  RunReport report;
  report.Config("rate_per_s", kRatePerSecond);
  report.Config("client", "open loop at a fixed rate");
  report.Config("blob_bytes", static_cast<double>(kBlobBytes));
  report.Config("processes", "this process (alice) + wdl_peerd sigmod + wdl_peerd bob");
  report.Config("durability", "memory-only peers");
  report.Config("transport", "TcpNetwork on 127.0.0.1, ports from --listen 0");

  Stats untraced;
  if (!args.trace) {
    const int64_t per_episode =
        static_cast<int64_t>(kRatePerSecond * args.seconds / kEpisodes);
    for (int e = 0; e < kEpisodes; ++e) {
      RunEpisode(args, e, per_episode, nullptr, &untraced, &report);
    }
    report.Config("episodes", kEpisodes);
    report.Config("updates_per_episode", static_cast<double>(per_episode));
    auto& m = report.end_to_end;
    m["setup_s"].value = Median(untraced.setup_s);
    m["update_p50_ms"].value = Median(untraced.episode_p50_ms);
    m["update_p99_ms"].value = Median(untraced.episode_p99_ms);
    m["ops_per_s"].value = untraced.OpsPerSecond();
    m["wire_bytes_per_update"].value = Ratio(untraced.delta.wire_bytes, untraced.updates);
    m["peak_rss_mb"].value = untraced.peak_rss_mb;
    report.notes.push_back("updates: " + DescribeSample(untraced.update_ms, "ms"));
    report.notes.push_back(ListValues("update_p99_ms by cluster", untraced.episode_p99_ms));
    report.notes.push_back(ListValues("setup_s by cluster", untraced.setup_s));
    report.notes.push_back(ListValues("daemons' peak RSS MB by cluster",
                                      untraced.daemons_rss_mb));
    report.notes.push_back("generator lag: " + DescribeSample(untraced.lag_ms, "ms"));
    report.notes.push_back("wire bytes are those alice's transport sent");
    return report;
  }

  // Traced run: one untraced and one traced cluster, each for half the
  // time, with the same uploads; both must equal the simulator replay.
  const int64_t per_episode = static_cast<int64_t>(kRatePerSecond * args.seconds / 2);
  Tracer tracer;
  Stats traced;
  RunEpisode(args, 0, per_episode, nullptr, &untraced, &report);
  RunEpisode(args, 0, per_episode, &tracer, &traced, &report);
  report.Config("updates_per_episode", static_cast<double>(per_episode));

  // Counters and spans here cover alice only (the daemons' are in
  // other processes); the update ops are not separable in an open loop,
  // so per-update figures are totals over the load phase divided by
  // the update count.
  const LayerCounters& d = traced.delta;
  const double n = static_cast<double>(traced.updates);
  auto sum = [&](const char* name) {
    double total = 0;
    for (double us : tracer.Durations(name)) total += us;
    return total;
  };
  auto& m = report.per_layer;
  m["runtime.rounds_per_update"].value = Ratio(d.rounds, n);
  m["runtime.stages_per_update"].value = Ratio(d.stages_incremental + d.stages_full, n);
  m["runtime.stage_self_ms"].value =
      Ratio(sum("runtime.round") - sum("net.submit") - sum("net.deliver"), n) / 1e3;
  m["runtime.materialized_peers"].value = 1;
  m["engine.tuples_examined_per_update"].value = Ratio(d.tuples_examined, n);
  m["engine.index_lookup_frac"].value =
      Ratio(d.index_lookups, d.index_lookups + d.full_scans);
  m["engine.full_stage_frac"].value =
      Ratio(d.stages_full, d.stages_incremental + d.stages_full);
  m["engine.delegations_emitted_per_update"].value = Ratio(d.delegations_emitted, n);
  m["net.submit_us"].value = Ratio(sum("net.submit"), n);
  m["net.deliver_us"].value = Ratio(sum("net.deliver"), n);
  m["net.messages_per_update"].value = Ratio(d.messages, n);
  m["net.bytes_per_message"].value = Ratio(d.wire_bytes, d.messages);
  m["net.delta_tuples_per_update"].value = Ratio(d.delta_tuples, n);
  m["net.resyncs"].value = static_cast<double>(d.resyncs);
  m["net.tcp_reconnects"].value = static_cast<double>(traced.tcp.reconnects);
  m["net.tcp_decode_failures"].value = static_cast<double>(traced.tcp.decode_failures);
  m["load.lag_p99_ms"].value = Quantile(traced.lag_ms, 0.99);
  m["storage.tuples"].value = static_cast<double>(traced.storage_tuples);
  m["trace.ops_per_s"].value = traced.OpsPerSecond();
  m["trace.untraced_ops_per_s"].value = untraced.OpsPerSecond();
  // The generator holds throughput at the rate, so the overhead shows
  // in latency instead.
  m["trace.overhead_frac"].value =
      Ratio(Median(traced.update_ms), Median(untraced.update_ms)) - 1.0;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "  bases over %llu uploads at alice: rounds=%llu messages=%llu "
                "wire_bytes=%llu delta_tuples=%llu; traced latency %s\n",
                static_cast<unsigned long long>(traced.updates),
                static_cast<unsigned long long>(d.rounds),
                static_cast<unsigned long long>(d.messages),
                static_cast<unsigned long long>(d.wire_bytes),
                static_cast<unsigned long long>(d.delta_tuples),
                DescribeSample(traced.update_ms, "ms").c_str());
  report.layer_summary += buf;
  FinishTrace(tracer, args, &report);
  return report;
}

}  // namespace perfbench
