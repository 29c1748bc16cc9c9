// wdl_perfbench: the repository benchmark driver. Runs one workload
// (wepic, social_durable or tcp_cluster) through the library's public
// API, checks its outputs against the paper's semantics, and prints
// every metric by name with its unit. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; untraced
// runs report the end-to-end metrics, traced runs (--trace 1) the
// per-layer ones. See perfbench/README.md.
//
//   wdl_perfbench --workload wepic --seed 1 --seconds 10 --trace 0
//       --peerd PATH/wdl_peerd --work-dir DIR --trace-dir DIR

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "engine/engine.h"
#include "process.h"
#include "report.h"
#include "runtime/query.h"
#include "runtime/system.h"
#include "workloads.h"

namespace perfbench {

/// Named for later gain claims; never used while the benchmark or a
/// change is being tuned.
constexpr uint64_t kHeldOutSeed = 7919;

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"update_p50_ms", "ms"},
      {"update_p99_ms", "ms"},
      {"ops_per_s", "1/s"},
      {"wire_bytes_per_update", "B"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"wepic.apply_us", "us"},
      {"runtime.converge_ms", "ms"},
      {"runtime.rounds_per_update", "count"},
      {"runtime.stages_per_update", "count"},
      {"runtime.stage_self_ms", "ms"},
      {"runtime.materialized_peers", "count"},
      {"runtime.query_rounds", "count"},
      {"engine.tuples_examined_per_update", "count"},
      {"engine.index_lookup_frac", "ratio"},
      {"engine.full_stage_frac", "ratio"},
      {"engine.rederive_checks_per_update", "count"},
      {"engine.delegations_emitted_per_update", "count"},
      {"engine.plans_compiled", "count"},
      {"engine.plan_cache_hit_frac", "ratio"},
      {"engine.demand_frac", "ratio"},
      {"engine.lookup_tuples_examined", "count"},
      {"parser.rule_install_us", "us"},
      {"acl.approve_us", "us"},
      {"acl.pending_peak", "count"},
      {"net.submit_us", "us"},
      {"net.deliver_us", "us"},
      {"net.messages_per_update", "count"},
      {"net.bytes_per_message", "B"},
      {"net.delta_tuples_per_update", "count"},
      {"net.resyncs", "count"},
      {"net.tcp_reconnects", "count"},
      {"net.tcp_decode_failures", "count"},
      {"load.lag_p99_ms", "ms"},
      {"durability.wal_bytes_per_update", "B"},
      {"durability.fsyncs_per_update", "count"},
      {"durability.snapshots", "count"},
      {"durability.snapshot_mb", "MB"},
      {"durability.replayed_records", "count"},
      {"durability.recovery_resyncs", "count"},
      {"durability.recovery_s", "s"},
      {"wrappers.sync_us", "us"},
      {"wrappers.posts_per_update", "count"},
      {"wrappers.emails_per_update", "count"},
      {"storage.tuples", "count"},
      {"query.lookup_p50_us", "us"},
      {"query.lookup_p99_us", "us"},
      {"query.full_p50_ms", "ms"},
      {"query.full_p99_ms", "ms"},
      {"trace.ops_per_s", "1/s"},
      {"trace.untraced_ops_per_s", "1/s"},
      {"trace.overhead_frac", "ratio"},
  };
  return kSpecs;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wdl_perfbench --workload wepic|social_durable|tcp_cluster\n"
               "  --seed N --seconds S --trace 0|1 --peerd PATH\n"
               "  --work-dir DIR --trace-dir DIR\n");
  return 2;
}

/// Refuses builds whose numbers would mislead: unoptimized, assertion-
/// enabled or sanitized. Returns the reason, or "" when fine.
std::string BuildProblem() {
  std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' (need Release or RelWithDebInfo)";
  }
#ifndef NDEBUG
  return "assertions enabled (NDEBUG not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitizer build";
#endif
#endif
  return "";
}

/// Puts each spec'd metric into `out` with its unit, zero when the
/// workload did not set it; returns names set that no spec lists.
std::vector<std::string> Normalize(const std::map<std::string, Metric>& in,
                                   const std::vector<MetricSpec>& specs,
                                   std::map<std::string, Metric>* out) {
  std::set<std::string> known;
  for (const MetricSpec& s : specs) {
    known.insert(s.name);
    auto it = in.find(s.name);
    (*out)[s.name] = {it == in.end() ? 0.0 : it->second.value, s.unit};
  }
  std::vector<std::string> unknown;
  for (const auto& [name, m] : in) {
    if (!known.count(name)) unknown.push_back(name);
  }
  return unknown;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Production defaults only: these knobs would otherwise override the
  // library's defaults (1 eval thread, 1 worker thread, demand queries
  // on) in this process and in the daemons it spawns.
  unsetenv("WDL_EVAL_THREADS");
  unsetenv("WDL_WORKER_THREADS");
  unsetenv("WDL_QUERY_DEMAND");

  RunArgs args;
  std::string work_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--peerd") {
      args.peerd_path = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || work_dir.empty() ||
      args.trace_dir.empty() || args.seconds <= 0) {
    return Usage();
  }
  std::string problem = BuildProblem();
  if (!problem.empty()) {
    std::fprintf(stderr, "wdl_perfbench: refusing to report from a %s\n",
                 problem.c_str());
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(args.trace_dir, ec);
  RemoveStaleRunDirs(work_dir);
  args.run_dir = work_dir + "/run-" + std::to_string(getpid());
  RunReport report;
  {
    ScratchDir run_dir(args.run_dir);
    if (!run_dir.ok()) {
      std::fprintf(stderr, "wdl_perfbench: cannot create %s\n", args.run_dir.c_str());
      return 1;
    }
    if (args.workload == "wepic") {
      report = RunWepic(args);
    } else if (args.workload == "social_durable") {
      report = RunSocialDurable(args);
    } else if (args.workload == "tcp_cluster") {
      if (!FileExists(args.peerd_path)) {
        std::fprintf(stderr, "wdl_perfbench: no wdl_peerd at %s\n",
                     args.peerd_path.c_str());
        return 1;
      }
      report = RunTcpCluster(args);
    } else {
      return Usage();
    }
  }
  if (!report.end_to_end.count("peak_rss_mb")) {
    report.end_to_end["peak_rss_mb"].value = SelfPeakRssMb();
  }
  // A run must leave nothing behind: no data directory, no child.
  if (FileExists(args.run_dir)) report.Wrong("run directory left behind");
  if (!NoChildrenLeft()) report.Wrong("child process left behind");

  const bool trace = args.trace;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> unknown =
      trace ? Normalize(report.per_layer, PerLayerMetrics(), &metrics)
            : Normalize(report.end_to_end, EndToEndMetrics(), &metrics);
  for (const std::string& name : unknown) {
    report.Wrong("workload set unlisted metric " + name);
  }
  if (!trace) {
    for (const MetricSpec& s : EndToEndMetrics()) {
      if (!report.end_to_end.count(s.name)) {
        report.Wrong(std::string("workload did not measure ") + s.name);
      }
    }
  }

  // Configuration record.
  report.Config("workload", args.workload);
  report.Config("seed", static_cast<double>(args.seed));
  report.Config("held_out_seed", static_cast<double>(kHeldOutSeed));
  report.Config("seconds", args.seconds);
  report.Config("traced", trace ? "yes" : "no");
  report.Config("eval_threads", wdl::EngineOptions{}.eval_threads);
  report.Config("worker_threads", wdl::SystemOptions{}.worker_threads);
  report.Config("demand_queries", wdl::QueryOptions{}.use_demand_evaluation ? "on" : "off");
  report.Config("lazy_peers", wdl::SystemOptions{}.lazy_peer_state ? "on" : "off");
  report.Config("run_dir_fs", FilesystemType(work_dir));
  report.Config("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  report.Config("compiler", PERFBENCH_COMPILER);
  report.Config("build_type", PERFBENCH_BUILD_TYPE);

  std::string config = "{";
  for (size_t i = 0; i < report.config.size(); ++i) {
    const auto& [key, value] = report.config[i];
    config += (i ? ", " : "") + JsonString(key) + ": " + value;
  }
  config += "}";
  std::printf("config %s\n", config.c_str());
  for (const auto& [name, m] : metrics) {
    std::printf("metric %-40s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (!trace) {
    for (const auto& [name, m] : report.extra) {
      std::printf("metric %-40s %14.6g %s  (this workload only)\n", name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  std::printf("failed_frac %.6g (%llu of %llu operations)\n",
              Ratio(static_cast<double>(report.failed), static_cast<double>(report.attempted)),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& note : report.notes) std::printf("note %s\n", note.c_str());
  if (trace) std::printf("per-layer summary\n%s", report.layer_summary.c_str());

  std::string out = "{\"correct\": " + std::string(report.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return report.correct && report.attempted > 0 ? 0 : 1;
}
