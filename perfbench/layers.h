// Per-layer metrics of a traced run: read from the program's own
// trace::TraceSession events, ClusterStats / MetricsRegistry counters, and
// from calls into each layer's public functions replayed on the workload's
// own inputs (the only view into the engine on the process backend, whose
// executor-internal events never reach the master).

#ifndef VLORA_PERFBENCH_LAYERS_H_
#define VLORA_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/cluster/cluster_server.h"
#include "src/common/trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  int64_t samples = 0;  // measurements behind the value
};

// Replica id the replay's events are attributed to, so they never mix with
// a cluster replica's.
inline constexpr int kReplayReplica = 1000;

// What the traced cluster run handed over.
struct TracedRun {
  std::vector<vlora::trace::TraceEvent> events;  // collected after the phases
  int64_t dropped_events = 0;
  vlora::ClusterStats stats;
  std::vector<double> submit_us;    // open-loop Submit() durations
  std::vector<double> lateness_ms;  // open-loop submit time minus due time
  std::vector<vlora::EngineResult> results;  // timed phases only
  int64_t timed_requests = 0;
  // Submit() calls the cluster accepted (MetricsRegistry cluster.submitted);
  // ClusterStats::submitted counts replica enqueues, two per request when
  // disaggregated.
  int64_t cluster_submitted = 0;
  // Request ids of the open-loop phase: the lifecycle latencies (route,
  // queueing, TTFT, TPOT, handoff) are taken over these, the phase the
  // end-to-end latencies come from.
  int64_t open_first_id = 0;
  int64_t open_last_id = -1;
};

// Replays the workload's open-loop inputs through a standalone VloraServer
// (StepOnce timed per call) and records what the per-layer metrics need.
// Runs on the calling thread with trace attribution kReplayReplica; call
// while the trace session is still collecting.
struct ReplayData {
  std::vector<double> step_ms;
  std::vector<std::vector<vlora::RequestView>> queues;  // Alg 1 input before each step
  vlora::ServerStats server;
  double mode_switch_ms = 0.0;
  int64_t mode_switch_samples = 0;
  int64_t requests = 0;
};
ReplayData RunReplay(const Workload& workload);

std::vector<Metric> PerLayerMetrics(const Workload& workload, const TracedRun& run,
                                    const ReplayData& replay);

}  // namespace perfbench

#endif  // VLORA_PERFBENCH_LAYERS_H_
