#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty
/// sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Counter ratio that is 0 (not NaN) for an empty base.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// What one invocation was asked to do.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string peerd_path;  // wdl_peerd binary (tcp_cluster only)
  std::string run_dir;     // fresh per invocation, removed at exit
  std::string trace_dir;   // traced runs write <workload>.json here
};

/// Seed of episode `episode` of a run with seed `seed`: every episode
/// of a run gets its own inputs, and the same ones in every run.
inline uint64_t EpisodeSeed(uint64_t seed, int episode) {
  return seed * 1000003ULL + static_cast<uint64_t>(episode);
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything a workload hands back to main(): the correctness verdict,
/// the operation counts, both metric sets and the effective
/// configuration.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;  // untraced runs
  std::map<std::string, Metric> per_layer;   // traced runs
  /// Workload-specific figures printed in the human summary only.
  std::map<std::string, Metric> extra;
  /// Effective configuration: key and JSON-encoded value.
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::string> notes;  // first failure messages, kept short
  std::string layer_summary;       // traced runs: self-time table

  /// An update or read whose effect was not visible where the paper's
  /// semantics says it must be: counts in failed_frac.
  void Miss(const std::string& why);
  /// A wrong final state (fingerprint or model mismatch): fails the run.
  void Wrong(const std::string& why);
  void Config(const std::string& key, const std::string& value);
  void Config(const std::string& key, double value);
};

/// Renders one latency sample set as "p50/p99 (n=...)" for the human
/// summary.
std::string DescribeSample(const std::vector<double>& v, const char* unit);

/// "label: v1 v2 ..." with each value printed as %.4g, for notes that
/// show per-episode figures.
std::string ListValues(const char* label, const std::vector<double>& v);

/// JSON string literal (quotes and escapes included).
std::string JsonString(const std::string& s);
/// JSON number with every significant digit; non-finite values render
/// as 0 (JSON has no NaN) — callers guard their denominators.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
