// social_durable: the Zipf follower graph of src/workload on durable,
// lazy peers. One closed-loop client applies the churn script (follow,
// unfollow, post), each op followed by RunUntilQuiescent; hub posts fan
// out to hundreds of feeds. At the end of each episode the System is
// abandoned (destroyed without any shutdown step, like a crashed
// process) and a fresh one reopens every peer from the data root.
//
// The episodes share one data root under the run directory, removed
// when the run ends. Its layout (a directory and a WAL file per peer) is
// created once, before any timing, and each episode starts by emptying
// it, so no episode's set-up creates files. On a shared ext4 virtual
// disk, creating a file or a directory cost from 20 to 400 us of kernel
// time, varying over minutes; the 4000 per episode made setup_s a
// measure of the filesystem's state rather than of the program.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "counters.h"
#include "process.h"
#include "trace.h"
#include "workload/social_graph.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wdl::SocialOp;

constexpr uint32_t kPeers = 2000;
constexpr uint32_t kMeanFollowers = 8;
constexpr double kZipf = 1.0;
constexpr size_t kOpsPerEpisode = 600;
// A run does a fixed amount of work for a given --seconds (5 episodes
// at 10 s), so counts and memory depend only on the seed; every
// episode's set-up is one setup_s sample.
constexpr double kEpisodesPerSecond = 0.5;
constexpr int kMaxRounds = 1000;
// The data root must live in the benchmark's checkout, normally on a
// disk rather than a RAM-backed filesystem, where an fsync is a device
// flush. On an ext4 virtual disk, fsync=batch cut ops_per_s from about
// 200 to 85 and raised update_p99_ms from 50 to 150 ms: the workload
// then timed the disk, not the engines, and over 10 seeds its timings
// spread by 0.27-0.40. Skipping the fsync call keeps the WAL append,
// snapshot rotation and replay in the measured path: what fsync=batch
// on a RAM-backed filesystem, where a flush costs a system call, times.
constexpr wdl::FsyncPolicy kFsyncPolicy = wdl::FsyncPolicy::kNever;

wdl::SystemOptions DurableOptions(uint64_t seed, const std::string& root) {
  wdl::SystemOptions o;
  o.network_seed = seed;
  o.durability_root = root;
  o.durability.fsync_policy = kFsyncPolicy;
  return o;
}

std::unique_ptr<wdl::System> MakeSystem(uint64_t seed, const std::string& root,
                                        Tracer* tracer) {
  wdl::SystemOptions o = DurableOptions(seed, root);
  if (tracer == nullptr) return std::make_unique<wdl::System>(o);
  return std::make_unique<wdl::System>(
      std::make_unique<TracingNetwork>(
          std::make_unique<wdl::SimulatedNetwork>(seed, o.default_link),
          tracer),
      o);
}

/// The data root every episode of a run uses.
class DataRoot {
 public:
  explicit DataRoot(const std::string& path) : dir_(path) {}

  /// Creates every peer's durable files, by opening a System with all
  /// peers and abandoning it, and records them as the layout.
  bool Provision() {
    if (!dir_.ok()) return false;
    {
      wdl::System system(DurableOptions(0, dir_.path()));
      for (uint32_t v = 0; v < kPeers; ++v) {
        wdl::Peer* peer =
            system.CreatePeer(wdl::SocialPeerName(v), wdl::SocialPeerOptions());
        if (!peer->durability_status().ok()) return false;
      }
    }
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir_.path(), ec)) {
      if (entry.is_regular_file()) layout_.insert(entry.path().string());
    }
    return !ec && !layout_.empty();
  }

  /// Empties every peer's durable state: the layout's files are
  /// truncated to zero bytes, any other file (a later WAL generation or
  /// a snapshot) is removed. A peer opened afterwards starts empty.
  bool Wipe() {
    std::error_code ec;
    std::vector<std::filesystem::path> extra;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir_.path(), ec)) {
      if (!entry.is_regular_file()) continue;
      if (layout_.count(entry.path().string()) == 0) extra.push_back(entry.path());
    }
    for (const auto& file : extra) std::filesystem::remove(file, ec);
    for (const std::string& file : layout_) {
      if (std::filesystem::exists(file)) std::filesystem::resize_file(file, 0, ec);
    }
    return !ec;
  }

  const std::string& path() const { return dir_.path(); }

 private:
  ScratchDir dir_;
  std::set<std::string> layout_;
};

struct Stats {
  std::vector<double> setup_s;
  std::vector<double> update_ms;
  std::vector<double> recovery_s;
  double op_seconds = 0;
  uint64_t updates = 0;
  uint64_t wire_bytes = 0;
  UpdateSample update_sample;  // traced only
  uint64_t plans_compiled = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t resyncs = 0;
  uint64_t snapshots = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t replayed_records = 0;
  uint64_t recovery_resyncs = 0;
  uint64_t materialized_peers = 0;
  uint64_t storage_tuples = 0;

  std::vector<double> episode_ops_per_s;
};

/// The client's model: who follows whom and who posted what.
struct Model {
  std::vector<std::set<uint32_t>> followers;
  std::vector<std::vector<int64_t>> posts;
};

const wdl::Relation* Feed(wdl::System& system, uint32_t id) {
  wdl::Peer* peer = system.GetPeer(wdl::SocialPeerName(id));
  return peer == nullptr ? nullptr : peer->engine().catalog().Get("feed");
}

bool FeedHas(wdl::System& system, uint32_t follower, uint32_t author,
             int64_t post) {
  const wdl::Relation* feed = Feed(system, follower);
  return feed != nullptr &&
         feed->Contains({wdl::Value::Int(post),
                         wdl::Value::String(wdl::SocialPeerName(author))});
}

bool FeedHasAuthor(wdl::System& system, uint32_t follower, uint32_t author) {
  const wdl::Relation* feed = Feed(system, follower);
  if (feed == nullptr) return false;
  const std::string name = wdl::SocialPeerName(author);
  bool found = false;
  feed->ForEach([&](const wdl::Tuple& t) {
    if (t[1].AsString() == name) found = true;
  });
  return found;
}

/// Checks after each op that it reached its destinations.
void CheckOp(wdl::System& system, const Model& m, const SocialOp& op,
             RunReport* report) {
  switch (op.kind) {
    case SocialOp::Kind::kFollow:
      for (int64_t p : m.posts[op.target]) {
        if (!FeedHas(system, op.actor, op.target, p)) {
          return report->Miss("follow: feed misses a post of the followee");
        }
      }
      return;
    case SocialOp::Kind::kUnfollow:
      if (FeedHasAuthor(system, op.actor, op.target)) {
        report->Miss("unfollow did not retract the followee's posts");
      }
      return;
    case SocialOp::Kind::kPost:
      for (uint32_t f : m.followers[op.actor]) {
        if (!FeedHas(system, f, op.actor, op.post_id)) {
          return report->Miss("post did not reach every follower's feed");
        }
      }
      return;
  }
}

/// Every feed holds exactly the posts of the peers it follows.
bool FeedsMatchModel(wdl::System& system, const Model& m) {
  std::vector<size_t> expected(kPeers, 0);
  for (uint32_t v = 0; v < kPeers; ++v) {
    for (uint32_t f : m.followers[v]) {
      expected[f] += m.posts[v].size();
      for (int64_t p : m.posts[v]) {
        if (!FeedHas(system, f, v, p)) return false;
      }
    }
  }
  for (uint32_t f = 0; f < kPeers; ++f) {
    wdl::Peer* peer = system.GetPeer(wdl::SocialPeerName(f));
    size_t have = 0;
    if (peer != nullptr && peer->has_engine()) {
      const wdl::Relation* feed = peer->engine().catalog().Get("feed");
      have = feed == nullptr ? 0 : feed->size();
    }
    if (have != expected[f]) return false;
  }
  return true;
}

/// One episode: build and seed the graph on the emptied data root, run
/// the churn, abandon the System, recover it, and compare. Returns the
/// pre-crash digest ("" when setup failed).
std::string RunEpisode(const RunArgs& args, int episode, Tracer* tracer,
                       uint64_t* next_op, Stats* stats, RunReport* report,
                       DataRoot* root) {
  const uint64_t seed = EpisodeSeed(args.seed, episode);
  if (!root->Wipe()) {
    report->Wrong("cannot empty data root " + root->path());
    return "";
  }
  Clock::time_point start = Clock::now();
  std::unique_ptr<wdl::System> system = MakeSystem(seed, root->path(), tracer);
  wdl::SocialDriver driver(system.get());
  wdl::SocialGraphOptions gopts;
  gopts.num_peers = kPeers;
  gopts.mean_followers = kMeanFollowers;
  gopts.zipf_exponent = kZipf;
  gopts.seed = seed;
  wdl::SocialGraph graph = wdl::GenerateSocialGraph(gopts);
  wdl::Status st = driver.SeedFollows(graph);
  wdl::Result<int> conv = system->RunUntilQuiescent(kMaxRounds);
  if (!st.ok() || !conv.ok()) {
    report->Wrong("setup: " + (st.ok() ? conv.status() : st).ToString());
    return "";
  }
  stats->setup_s.push_back(SecondsSince(start));
  const uint64_t updates_before = stats->updates;
  const double seconds_before = stats->op_seconds;

  Model m;
  m.followers.resize(kPeers);
  m.posts.resize(kPeers);
  for (uint32_t v = 0; v < kPeers; ++v) {
    m.followers[v].insert(graph.followers[v].begin(), graph.followers[v].end());
  }
  PeerList peers(system.get());
  LayerCounters at_start;
  if (tracer != nullptr) at_start = Collect(*system, peers.Get());

  std::vector<SocialOp> script =
      wdl::MakeChurnScript(kPeers, kPeers, kOpsPerEpisode, kZipf, seed ^ 0x5DEECE66DULL);
  for (const SocialOp& op : script) {
    uint64_t id = ++*next_op;
    LayerCounters before;
    if (tracer != nullptr) {
      tracer->set_op(id);
      stats->update_sample.ops.push_back(id);
      before = Collect(*system, peers.Get());
    }
    uint64_t bytes = system->transport().StatsSnapshot().bytes_sent;
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "peer.apply");
      st = driver.Apply(op);
    }
    {
      ScopedSpan span(tracer, "runtime.converge");
      conv = system->RunUntilQuiescent(kMaxRounds);
    }
    double s = SecondsSince(t0);
    stats->op_seconds += s;
    stats->update_ms.push_back(s * 1e3);
    ++stats->updates;
    ++report->attempted;
    stats->wire_bytes += system->transport().StatsSnapshot().bytes_sent - bytes;
    if (tracer != nullptr) {
      stats->update_sample.delta += Collect(*system, peers.Get()) - before;
    }
    if (!st.ok() || !conv.ok()) {
      report->Miss("op: " + (st.ok() ? conv.status() : st).ToString());
      continue;
    }
    switch (op.kind) {
      case SocialOp::Kind::kFollow:
        m.followers[op.target].insert(op.actor);
        break;
      case SocialOp::Kind::kUnfollow:
        m.followers[op.target].erase(op.actor);
        break;
      case SocialOp::Kind::kPost:
        m.posts[op.actor].push_back(op.post_id);
        break;
    }
    CheckOp(*system, m, op, report);
  }
  stats->episode_ops_per_s.push_back(
      Ratio(static_cast<double>(stats->updates - updates_before),
            stats->op_seconds - seconds_before));
  if (!FeedsMatchModel(*system, m)) {
    report->Wrong("final feeds differ from the follow/post model");
  }

  const uint64_t before_crash = StateDigest(*system);
  std::vector<std::string> names = system->PeerNames();
  if (tracer != nullptr) {
    LayerCounters total = Collect(*system, peers.Get());
    LayerCounters run = total - at_start;
    stats->plans_compiled += total.plans_compiled;
    stats->plan_cache_hits += total.plan_cache_hits;
    stats->resyncs += run.resyncs;
    stats->snapshots += total.snapshots_written;
    stats->snapshot_bytes += total.snapshot_bytes;
    stats->materialized_peers = system->MaterializedPeerCount();
    stats->storage_tuples = StorageTuples(peers.Get());
  }

  // Crash: abandon the System. Recovery: reopen every peer from the
  // data root and converge.
  system.reset();
  Clock::time_point reopen = Clock::now();
  std::unique_ptr<wdl::System> recovered = [&] {
    ScopedSpan span(tracer, "durability.recover");
    std::unique_ptr<wdl::System> sys = MakeSystem(seed, root->path(), tracer);
    for (const std::string& name : names) {
      wdl::Peer* peer = sys->CreatePeer(name, wdl::SocialPeerOptions());
      if (!peer->durability_status().ok()) {
        report->Wrong("reopen " + name + ": " +
                      peer->durability_status().ToString());
      }
    }
    conv = sys->RunUntilQuiescent(kMaxRounds);
    return sys;
  }();
  stats->recovery_s.push_back(SecondsSince(reopen));
  if (!conv.ok()) report->Wrong("recovery converge: " + conv.status().ToString());
  if (StateDigest(*recovered) != before_crash) {
    report->Wrong("recovered state differs from the pre-crash state");
  }
  if (tracer != nullptr) {
    PeerList reopened(recovered.get());
    LayerCounters after = Collect(*recovered, reopened.Get());
    stats->replayed_records += after.wal_records_recovered;
    stats->recovery_resyncs += after.snapshots_applied;
  }
  return std::to_string(before_crash);
}

}  // namespace

RunReport RunSocialDurable(const RunArgs& args) {
  RunReport report;
  report.Config("peers", kPeers);
  report.Config("mean_followers", kMeanFollowers);
  report.Config("zipf_exponent", kZipf);
  report.Config("ops_per_episode", static_cast<double>(kOpsPerEpisode));
  report.Config("op_mix", "MakeChurnScript: ~1/2 follow, 1/4 unfollow, 1/4 post");
  report.Config("client", "closed loop, 1 client");
  report.Config("fsync", wdl::FsyncPolicyToString(kFsyncPolicy));
  report.Config("snapshot_interval_records",
                static_cast<double>(wdl::DurabilityOptions{}.snapshot_interval_records));
  report.Config("data_root_fs", FilesystemType(args.run_dir));
  // Every durable peer keeps its WAL open, even an idle one.
  const long fd_limit = RaiseOpenFileLimit();
  report.Config("open_file_limit", static_cast<double>(fd_limit));
  if (fd_limit < static_cast<long>(kPeers) + 512) {
    report.Wrong("open-file limit " + std::to_string(fd_limit) +
                 " is too low for " + std::to_string(kPeers) + " durable peers");
    return report;
  }

  const int episodes =
      std::max(1, static_cast<int>(std::lround(args.seconds * kEpisodesPerSecond)));
  uint64_t next_op = 0;
  Stats untraced;
  DataRoot root(args.run_dir + "/social");
  if (!root.Provision()) {
    report.Wrong("cannot provision data root " + root.path());
    return report;
  }
  if (!args.trace) {
    for (int e = 0; e < episodes; ++e) {
      RunEpisode(args, e, nullptr, &next_op, &untraced, &report, &root);
    }
    report.Config("episodes", episodes);
    auto& m = report.end_to_end;
    m["setup_s"].value = Median(untraced.setup_s);
    m["update_p50_ms"].value = Quantile(untraced.update_ms, 0.5);
    m["update_p99_ms"].value = Quantile(untraced.update_ms, 0.99);
    m["ops_per_s"].value = Median(untraced.episode_ops_per_s);
    m["wire_bytes_per_update"].value = Ratio(untraced.wire_bytes, untraced.updates);
    report.extra["recovery_s"] = {Median(untraced.recovery_s), "s"};
    report.notes.push_back(ListValues("setup_s by episode", untraced.setup_s));
    report.notes.push_back(ListValues("recovery_s by episode", untraced.recovery_s));
    report.notes.push_back(ListValues("ops_per_s by episode", untraced.episode_ops_per_s));
    report.notes.push_back("updates: " + DescribeSample(untraced.update_ms, "ms"));
    return report;
  }

  // Traced run: half the episodes, each run untraced and traced with
  // the same seed; both must end on the same digest.
  Tracer tracer;
  Stats traced;
  const int pairs = std::max(1, episodes / 2);
  for (int e = 0; e < pairs; ++e) {
    // Alternate which side runs first, so neither always gets the
    // warmer process.
    std::string plain, with_trace;
    if (e % 2 == 0) {
      plain = RunEpisode(args, e, nullptr, &next_op, &untraced, &report, &root);
      with_trace = RunEpisode(args, e, &tracer, &next_op, &traced, &report, &root);
    } else {
      with_trace = RunEpisode(args, e, &tracer, &next_op, &traced, &report, &root);
      plain = RunEpisode(args, e, nullptr, &next_op, &untraced, &report, &root);
    }
    if (plain != with_trace) {
      report.Wrong("traced episode " + std::to_string(e) +
                   " ended on a different fingerprint than the untraced one");
    }
  }
  report.Config("episode_pairs", pairs);
  AddUpdateLayerMetrics(tracer, traced.update_sample, &report);
  auto& m = report.per_layer;
  m["runtime.materialized_peers"].value = static_cast<double>(traced.materialized_peers);
  m["engine.plans_compiled"].value = static_cast<double>(traced.plans_compiled);
  m["engine.plan_cache_hit_frac"].value =
      Ratio(traced.plan_cache_hits, traced.plan_cache_hits + traced.plans_compiled);
  m["net.resyncs"].value = static_cast<double>(traced.resyncs);
  m["durability.snapshots"].value = static_cast<double>(traced.snapshots);
  m["durability.snapshot_mb"].value = static_cast<double>(traced.snapshot_bytes) / (1 << 20);
  m["durability.replayed_records"].value = static_cast<double>(traced.replayed_records);
  m["durability.recovery_resyncs"].value = static_cast<double>(traced.recovery_resyncs);
  m["durability.recovery_s"].value = Median(traced.recovery_s);
  m["storage.tuples"].value = static_cast<double>(traced.storage_tuples);
  m["trace.ops_per_s"].value = Median(traced.episode_ops_per_s);
  m["trace.untraced_ops_per_s"].value = Median(untraced.episode_ops_per_s);
  m["trace.overhead_frac"].value =
      1.0 - Ratio(m["trace.ops_per_s"].value, m["trace.untraced_ops_per_s"].value);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  bases: snapshots_written=%llu snapshot_bytes=%llu "
                "wal_records_recovered=%llu snapshots_applied_after_reopen=%llu\n",
                static_cast<unsigned long long>(traced.snapshots),
                static_cast<unsigned long long>(traced.snapshot_bytes),
                static_cast<unsigned long long>(traced.replayed_records),
                static_cast<unsigned long long>(traced.recovery_resyncs));
  report.layer_summary += buf;
  FinishTrace(tracer, args, &report);
  return report;
}

}  // namespace perfbench
