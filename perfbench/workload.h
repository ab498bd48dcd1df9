// Seeded inputs for the serving benchmark's workloads.
//
// Everything a run serves — adapters, prompts, token budgets, arrival times —
// is derived from (workload name, --seed, --seconds); the cluster receives
// only the generated EngineRequests. See README.md for the make-up of each
// workload and why it was chosen.

#ifndef VLORA_PERFBENCH_WORKLOAD_H_
#define VLORA_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster_server.h"
#include "src/engine/model_config.h"
#include "src/lora/adapter.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  vlora::ReplicaBackend backend = vlora::ReplicaBackend::kThread;
  bool disagg = false;
  int num_replicas = 2;
  int num_prefill = 0;        // disaggregated only
  double open_rate_rps = 0;  // open-loop arrival rate, 15-25% of capacity
};

// One generated request plus what the output check needs to know about it.
struct BenchInput {
  vlora::EngineRequest request;
  int round = 0;                     // the round of the timed phases it belongs to
  double due_ms = 0.0;               // open-loop offset from its round's start
  int64_t requested_tokens = 0;      // max_new_tokens (eos is off)
  int64_t shared_prefix_tokens = 0;  // whole prompt blocks another input also starts with
};

struct Workload {
  WorkloadSpec spec;
  vlora::ModelConfig config;
  vlora::ServerOptions server;
  std::vector<vlora::LoraAdapter> adapters;
  std::vector<double> shares;  // request share per adapter (placement input)
  // The timed phases run in `rounds` rounds, each an open-loop segment then a
  // saturation segment; `open` and `saturation` are in round order.
  int rounds = 1;
  std::vector<BenchInput> warmup;
  std::vector<BenchInput> open;
  std::vector<BenchInput> saturation;
};

// Known names: retrieval_thread, retrieval_disagg. Returns
// false for anything else.
bool LookupSpec(const std::string& name, WorkloadSpec* spec);

Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed, double seconds);

// ClusterOptions for the workload (backend, pools, admission, transport).
vlora::ClusterOptions MakeClusterOptions(const Workload& workload);

// Requests the serving pool's replica queues hold together (the decode pool
// in disaggregated mode): the saturation phase's outstanding window.
int64_t ServingQueueSlots(const Workload& workload);

}  // namespace perfbench

#endif  // VLORA_PERFBENCH_WORKLOAD_H_
