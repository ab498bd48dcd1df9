// The benchmark's output check: exact accounting properties over every
// request of a run, plus the double-precision reference on a seeded sample,
// plus the negative controls that prove both halves can fail.

#ifndef VLORA_PERFBENCH_CHECKS_H_
#define VLORA_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/reference.h"
#include "perfbench/workload.h"
#include "src/engine/engine.h"

namespace perfbench {

// What a run produced, reduced to what the exact properties need.
struct RunRecord {
  std::vector<const BenchInput*> inputs;  // every request the run submitted
  std::vector<vlora::EngineResult> results;
  int64_t cluster_failures = 0;  // TakeFailures() entries
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t rejected = 0;
  int64_t replica_completed_sum = 0;
  int64_t handoffs = 0;
  int64_t handles_created = 0;
  int64_t handles_released = 0;
  // Σ (prefill + reused) over PrefillDone trace events; -1 when the run was
  // not traced. The results' own counts are checked then.
  int64_t prefill_event_tokens = -1;
  size_t events_cover_from = 0;  // the events cover inputs[events_cover_from:]
};

// Names of the exact properties, in the order CheckProperties tests them.
std::vector<std::string> PropertyNames();

// Empty when every property holds; otherwise one line per violated property,
// each starting with the property name.
std::vector<std::string> CheckProperties(const RunRecord& record);

struct SampleReport {
  int64_t checked = 0;
  int64_t near_ties = 0;
  std::vector<std::string> mismatches;  // one per failing request
};

// Runs the reference on `sample` (indices into record.inputs) and compares
// with the served results. `adapter_of` maps each sampled input to the
// adapter the reference should use (the request's own for the real check).
SampleReport CheckSample(const ReferenceModel& reference, const Workload& workload,
                         const RunRecord& record, const std::vector<size_t>& sample,
                         const std::vector<int>& adapter_of);

// Negative controls; each returns an empty string when the check failed as
// it must, else a description of what slipped through.
//   WrongAdapterControl: the reference gets a wrong adapter for the first
//     `count` sampled requests; every one must be reported.
//   BrokenPropertyControl: breaks each exact property in turn on a copy of
//     the record; CheckProperties must name that property each time.
std::string WrongAdapterControl(const ReferenceModel& reference, const Workload& workload,
                                const RunRecord& record, const std::vector<size_t>& sample,
                                size_t count);
std::string BrokenPropertyControl(const RunRecord& record);

}  // namespace perfbench

#endif  // VLORA_PERFBENCH_CHECKS_H_
