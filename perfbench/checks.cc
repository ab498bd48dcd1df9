#include "perfbench/checks.h"

#include <unordered_map>

namespace perfbench {
namespace {

std::string Count(const char* what, int64_t value) {
  return std::string(" ") + what + "=" + std::to_string(value);
}

std::unordered_map<int64_t, const vlora::EngineResult*> ResultsById(const RunRecord& record) {
  std::unordered_map<int64_t, const vlora::EngineResult*> by_id;
  for (const vlora::EngineResult& result : record.results) {
    by_id.emplace(result.request_id, &result);
  }
  return by_id;
}

}  // namespace

std::vector<std::string> PropertyNames() {
  return {"one_result_each", "output_tokens",       "prompt_tokens",
          "reuse_bound",     "handle_conservation", "replica_completions"};
}

std::vector<std::string> CheckProperties(const RunRecord& record) {
  std::vector<std::string> violations;
  const int64_t n = static_cast<int64_t>(record.inputs.size());

  // Every request has exactly one result; nothing failed, was cancelled or
  // was rejected.
  {
    std::unordered_map<int64_t, int> seen;
    for (const BenchInput* input : record.inputs) {
      seen.emplace(input->request.id, 0);
    }
    int64_t unknown = 0;
    int64_t duplicate = 0;
    for (const vlora::EngineResult& result : record.results) {
      auto it = seen.find(result.request_id);
      if (it == seen.end()) {
        ++unknown;
      } else if (++it->second > 1) {
        ++duplicate;
      }
    }
    int64_t missing = 0;
    for (const auto& [id, count] : seen) {
      missing += count == 0 ? 1 : 0;
    }
    if (missing != 0 || unknown != 0 || duplicate != 0 || record.cluster_failures != 0 ||
        record.failed != 0 || record.cancelled != 0 || record.rejected != 0 ||
        record.submitted != n || record.completed != n) {
      violations.push_back("one_result_each:" + Count("inputs", n) + Count("missing", missing) +
                           Count("unknown", unknown) + Count("duplicate", duplicate) +
                           Count("failures", record.cluster_failures) +
                           Count("failed", record.failed) + Count("cancelled", record.cancelled) +
                           Count("rejected", record.rejected) +
                           Count("submitted", record.submitted) +
                           Count("completed", record.completed));
    }
  }

  // Σ output tokens == Σ requested.
  {
    int64_t requested = 0;
    for (const BenchInput* input : record.inputs) {
      requested += input->requested_tokens;
    }
    int64_t served = 0;
    for (const vlora::EngineResult& result : record.results) {
      served += static_cast<int64_t>(result.output_tokens.size());
    }
    if (served != requested) {
      violations.push_back("output_tokens:" + Count("served", served) +
                           Count("requested", requested));
    }
  }

  // Σ prefill + reused == Σ prompt lengths, over the results and, when the
  // run traced them, over the PrefillDone events.
  {
    int64_t prompt = 0;
    for (const BenchInput* input : record.inputs) {
      prompt += static_cast<int64_t>(input->request.prompt_tokens.size());
    }
    int64_t from_results = 0;
    for (const vlora::EngineResult& result : record.results) {
      from_results += result.prefill_tokens + result.reused_tokens;
    }
    int64_t traced_prompt = 0;
    for (size_t i = record.events_cover_from; i < record.inputs.size(); ++i) {
      traced_prompt += static_cast<int64_t>(record.inputs[i]->request.prompt_tokens.size());
    }
    if (from_results != prompt ||
        (record.prefill_event_tokens >= 0 && record.prefill_event_tokens != traced_prompt)) {
      violations.push_back("prompt_tokens:" + Count("prompt", prompt) +
                           Count("results", from_results) +
                           Count("events", record.prefill_event_tokens));
    }
  }

  // Reused tokens never exceed the prefix a request shares with the inputs.
  {
    const auto by_id = ResultsById(record);
    int64_t over = 0;
    for (const BenchInput* input : record.inputs) {
      auto it = by_id.find(input->request.id);
      if (it != by_id.end() && it->second->reused_tokens > input->shared_prefix_tokens) {
        ++over;
      }
    }
    if (over != 0) {
      violations.push_back("reuse_bound:" + Count("requests_over_bound", over));
    }
  }

  if (record.handles_created != record.handoffs || record.handoffs != record.handles_released) {
    violations.push_back("handle_conservation:" + Count("created", record.handles_created) +
                         Count("handoffs", record.handoffs) +
                         Count("released", record.handles_released));
  }

  if (record.replica_completed_sum != record.completed) {
    violations.push_back("replica_completions:" +
                         Count("replica_sum", record.replica_completed_sum) +
                         Count("cluster", record.completed));
  }
  return violations;
}

SampleReport CheckSample(const ReferenceModel& reference, const Workload& workload,
                         const RunRecord& record, const std::vector<size_t>& sample,
                         const std::vector<int>& adapter_of) {
  SampleReport report;
  const auto by_id = ResultsById(record);
  for (size_t i = 0; i < sample.size(); ++i) {
    const vlora::EngineRequest& request = record.inputs[sample[i]]->request;
    auto it = by_id.find(request.id);
    if (it == by_id.end()) {
      report.mismatches.push_back("request " + std::to_string(request.id) + ": no result");
      continue;
    }
    const int adapter = adapter_of[i];
    const ReferenceVerdict verdict = reference.Check(
        request, adapter >= 0 ? &workload.adapters[static_cast<size_t>(adapter)] : nullptr,
        *it->second, kTieTolerance);
    ++report.checked;
    report.near_ties += verdict.near_ties;
    if (!verdict.ok) {
      report.mismatches.push_back(verdict.detail);
    }
  }
  return report;
}

std::string WrongAdapterControl(const ReferenceModel& reference, const Workload& workload,
                                const RunRecord& record, const std::vector<size_t>& sample,
                                size_t count) {
  const int num_adapters = static_cast<int>(workload.adapters.size());
  std::vector<size_t> picked;
  std::vector<int> wrong;
  for (size_t i = 0; i < sample.size() && picked.size() < count; ++i) {
    const vlora::EngineRequest& request = record.inputs[sample[i]]->request;
    // The wrong adapter is the next one (cyclically) under which the right
    // adapter's own reference answer fails the check: an adapter that gives
    // the same answer, or one differing only at near ties, is
    // indistinguishable from the outputs alone.
    vlora::EngineResult right_result;
    right_result.request_id = request.id;
    right_result.output_tokens =
        reference.Answer(request, &workload.adapters[static_cast<size_t>(request.adapter_id)]);
    for (int step = 1; step < num_adapters; ++step) {
      const int candidate = (request.adapter_id + step) % num_adapters;
      if (!reference
               .Check(request, &workload.adapters[static_cast<size_t>(candidate)], right_result,
                      kTieTolerance)
               .ok) {
        picked.push_back(sample[i]);
        wrong.push_back(candidate);
        break;
      }
    }
  }
  if (picked.size() < count) {
    return "wrong_adapter: found only " + std::to_string(picked.size()) +
           " requests with a distinguishable wrong adapter";
  }
  const SampleReport report = CheckSample(reference, workload, record, picked, wrong);
  if (report.mismatches.size() != picked.size()) {
    return "wrong_adapter: " + std::to_string(picked.size() - report.mismatches.size()) + " of " +
           std::to_string(picked.size()) + " wrong-adapter requests passed the check";
  }
  return "";
}

std::string BrokenPropertyControl(const RunRecord& record) {
  if (record.results.empty() || record.inputs.empty()) {
    return "broken_property: empty record";
  }
  const std::vector<std::string> names = PropertyNames();
  std::string missed;
  for (const std::string& name : names) {
    RunRecord broken = record;
    if (name == "one_result_each") {
      broken.results.push_back(broken.results.front());  // a duplicate result
    } else if (name == "output_tokens") {
      broken.results.front().output_tokens.push_back(0);
    } else if (name == "prompt_tokens") {
      broken.results.front().prefill_tokens += 1;
    } else if (name == "reuse_bound") {
      const BenchInput* input = broken.inputs.front();
      for (vlora::EngineResult& result : broken.results) {
        if (result.request_id == input->request.id) {
          result.reused_tokens = input->shared_prefix_tokens + 1;
        }
      }
    } else if (name == "handle_conservation") {
      broken.handles_released += 1;
    } else if (name == "replica_completions") {
      broken.replica_completed_sum += 1;
    }
    bool named = false;
    for (const std::string& violation : CheckProperties(broken)) {
      named = named || violation.rfind(name + ":", 0) == 0;
    }
    if (!named) {
      missed += " " + name;
    }
  }
  return missed.empty() ? "" : "broken_property: not detected:" + missed;
}

}  // namespace perfbench
