#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "report.h"

namespace perfbench {

/// A metric the benchmark reports: its name and unit, exactly as
/// BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run, on every workload.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Printed by every traced run, on every workload; a layer that does no
/// work on a workload reports 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// The Wepic application (§3/§4 user actions) on the simulated LAN.
RunReport RunWepic(const RunArgs& args);
/// The Zipf follower graph with durable peers, churn and recovery.
RunReport RunSocialDurable(const RunArgs& args);
/// alice in-process on TCP plus two wdl_peerd daemons on loopback.
RunReport RunTcpCluster(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
