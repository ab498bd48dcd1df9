#include "perfbench/layers.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "src/common/stats.h"
#include "src/core/scheduler.h"
#include "src/core/server.h"
#include "src/kernels/atmm.h"
#include "src/kernels/kernel_variant.h"
#include "src/net/channel.h"
#include "src/net/messages.h"

namespace perfbench {
namespace {

using vlora::trace::TraceEvent;
using vlora::trace::TraceEventKind;
using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

// Median per-call time of `fn`, over batches of `reps` calls, for at least
// `min_ms` of wall time.
template <typename Fn>
vlora::SampleStats TimePerCall(Fn&& fn, int reps, double min_ms) {
  vlora::SampleStats per_call_us;
  const Clock::time_point begin = Clock::now();
  do {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < reps; ++i) {
      fn();
    }
    per_call_us.Add(MicrosSince(start) / reps);
  } while (MicrosSince(begin) < min_ms * 1e3 || per_call_us.count() < 5);
  return per_call_us;
}

// Lifecycle timestamps of one request from the trace (-1 = not seen).
struct Lifecycle {
  double admitted = -1, enqueued = -1, prefill_done = -1, handoff = -1;
  double decode_enqueued = -1, completed = -1;
};

std::unordered_map<int64_t, Lifecycle> BuildLifecycles(const std::vector<TraceEvent>& events) {
  std::unordered_map<int64_t, Lifecycle> by_id;
  auto first = [](double& slot, double when) {
    if (slot < 0) {
      slot = when;
    }
  };
  for (const TraceEvent& e : events) {
    if (e.request_id < 0 || e.replica == kReplayReplica) {
      continue;
    }
    Lifecycle& l = by_id[e.request_id];
    switch (e.kind) {
      case TraceEventKind::kRequestAdmitted:
        first(l.admitted, e.when_ms);
        break;
      case TraceEventKind::kEnqueued:
        first(l.enqueued, e.when_ms);
        break;
      case TraceEventKind::kPrefillDone:
        first(l.prefill_done, e.when_ms);
        break;
      case TraceEventKind::kKvHandoff:
        first(l.handoff, e.when_ms);
        break;
      case TraceEventKind::kDecodeEnqueued:
        first(l.decode_enqueued, e.when_ms);
        break;
      case TraceEventKind::kCompleted:
        first(l.completed, e.when_ms);
        break;
      default:
        break;
    }
  }
  return by_id;
}

// Most frequent KernelDispatch shape among events passing `keep`.
template <typename Keep>
bool MostFrequentShape(const std::vector<TraceEvent>& dispatches, Keep keep,
                       vlora::ShapeKey* shape) {
  std::map<std::tuple<int64_t, int64_t, int64_t>, int64_t> counts;
  for (const TraceEvent& e : dispatches) {
    if (keep(e)) {
      ++counts[{e.m, e.n, e.k}];
    }
  }
  if (counts.empty()) {
    return false;
  }
  auto best = std::max_element(counts.begin(), counts.end(), [](const auto& a, const auto& b) {
    return a.second < b.second;
  });
  *shape = {std::get<0>(best->first), std::get<1>(best->first), std::get<2>(best->first)};
  return true;
}

// Median time of AtmmDispatcher::Execute on one shape, with a fresh
// dispatcher (no tiling table, as in serving).
double TimeGemmUs(const vlora::ShapeKey& shape, int64_t* samples) {
  vlora::Rng rng(99);
  vlora::Tensor a = vlora::Tensor::Random(vlora::Shape(shape.m, shape.k), rng, 1.0f);
  vlora::Tensor b = vlora::Tensor::Random(vlora::Shape(shape.k, shape.n), rng, 0.1f);
  vlora::Tensor c = vlora::Tensor::Zeros(vlora::Shape(shape.m, shape.n));
  vlora::AtmmDispatcher atmm;
  const int reps = std::max<int>(1, static_cast<int>(2'000'000 / (shape.m * shape.n * shape.k + 1)));
  const vlora::SampleStats us = TimePerCall(
      [&] { atmm.Execute(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k); }, reps, 150.0);
  *samples = us.count();
  return us.Median();
}

}  // namespace

ReplayData RunReplay(const Workload& workload) {
  ReplayData data;
  vlora::trace::SetCurrentReplica(kReplayReplica);
  vlora::VloraServer server(workload.config, workload.server);
  for (const vlora::LoraAdapter& adapter : workload.adapters) {
    server.AddAdapter(std::make_unique<vlora::LoraAdapter>(adapter));
  }
  // Keep two batches in flight, refilled in arrival order, over the first
  // open-loop inputs.
  const size_t total = std::min<size_t>(workload.open.size(), 240);
  const size_t in_flight = 2 * static_cast<size_t>(workload.server.max_batch_size);
  size_t next = 0;
  size_t done = 0;
  while (done < total) {
    while (next < total && next - done < in_flight) {
      vlora::EngineRequest request = workload.open[next++].request;
      server.Submit(std::move(request));
    }
    // Alg 1's input as the server builds it (queue sizes and adapters).
    std::vector<vlora::RequestView> views;
    for (const auto& entry : server.engine().Queue()) {
      vlora::RequestView view;
      view.index = static_cast<int>(views.size());
      view.adapter_id = entry.adapter_id;
      view.prefilled = entry.prefilled;
      view.input_tokens = entry.prompt_tokens;
      view.remaining_outputs = entry.remaining_new_tokens;
      view.closed_set_output = entry.use_task_head;
      views.push_back(view);
    }
    const Clock::time_point start = Clock::now();
    const std::vector<vlora::EngineResult> finished = server.StepOnce();
    data.step_ms.push_back(MicrosSince(start) * 1e-3);
    if (!views.empty()) {
      data.queues.push_back(std::move(views));
    }
    done += finished.size();
  }
  data.requests = static_cast<int64_t>(total);
  data.server = server.stats();

  // Swift mode switch: merge the hottest adapter, then unmerge.
  vlora::InferenceEngine& engine = server.engine();
  vlora::SampleStats switch_ms;
  for (int i = 0; i < 20; ++i) {
    const Clock::time_point start = Clock::now();
    engine.SetMode(vlora::InferMode::kMerged, 0);
    engine.SetMode(vlora::InferMode::kUnmerged);
    switch_ms.Add(MicrosSince(start) * 1e-3);
  }
  data.mode_switch_ms = switch_ms.Median();
  data.mode_switch_samples = switch_ms.count();
  vlora::trace::SetCurrentReplica(-1);
  return data;
}

std::vector<Metric> PerLayerMetrics(const Workload& workload, const TracedRun& run,
                                    const ReplayData& replay) {
  std::vector<Metric> out;
  auto add = [&](const char* name, const char* unit, double value, int64_t samples) {
    out.push_back(Metric{name, unit, value, samples});
  };
  auto pct = [](const std::vector<double>& values, double p) {
    vlora::SampleStats s;
    for (double v : values) {
      s.Add(v);
    }
    return s.Percentile(p);
  };
  const bool thread_backend = workload.spec.backend == vlora::ReplicaBackend::kThread;
  const vlora::ClusterStats& stats = run.stats;

  // Load generator.
  add("loadgen.lateness_p99_ms", "ms", pct(run.lateness_ms, 99),
      static_cast<int64_t>(run.lateness_ms.size()));

  // cluster: Submit cost, routing, affinity, queueing before prefill.
  const auto lifecycles = BuildLifecycles(run.events);
  std::vector<double> route_ms, queue_ms, ttft_ms, tpot_ms, handoff_ms;
  std::unordered_map<int64_t, const vlora::EngineResult*> results;
  for (const vlora::EngineResult& result : run.results) {
    results.emplace(result.request_id, &result);
  }
  for (const auto& [id, l] : lifecycles) {
    if (id < run.open_first_id || id > run.open_last_id) {
      continue;
    }
    if (l.admitted >= 0 && l.enqueued >= 0) {
      route_ms.push_back(l.enqueued - l.admitted);
    }
    if (l.enqueued >= 0 && l.prefill_done >= 0) {
      queue_ms.push_back(l.prefill_done - l.enqueued);
    }
    if (l.admitted >= 0 && l.prefill_done >= 0) {
      ttft_ms.push_back(l.prefill_done - l.admitted);
    }
    auto it = results.find(id);
    if (l.prefill_done >= 0 && l.completed >= 0 && it != results.end() &&
        it->second->output_tokens.size() > 1) {
      tpot_ms.push_back((l.completed - l.prefill_done) /
                        static_cast<double>(it->second->output_tokens.size() - 1));
    }
    if (l.prefill_done >= 0 && l.decode_enqueued >= 0) {
      handoff_ms.push_back(l.decode_enqueued - l.prefill_done);
    }
  }
  add("cluster.submit_us_p50", "us", pct(run.submit_us, 50),
      static_cast<int64_t>(run.submit_us.size()));
  add("cluster.submit_us_p99", "us", pct(run.submit_us, 99),
      static_cast<int64_t>(run.submit_us.size()));
  add("cluster.route_ms_p50", "ms", pct(route_ms, 50), static_cast<int64_t>(route_ms.size()));
  add("cluster.affinity_hit_ratio", "ratio",
      run.cluster_submitted > 0
          ? static_cast<double>(stats.affinity_hits) / static_cast<double>(run.cluster_submitted)
          : 0.0,
      run.cluster_submitted);
  add("cluster.queue_to_prefill_ms_p50", "ms", pct(queue_ms, 50),
      static_cast<int64_t>(queue_ms.size()));

  // core: Alg 1 counters — the cluster's own on the thread backend; the
  // replay server's where they live in executor processes.
  vlora::ServerStats server;
  if (thread_backend) {
    for (const vlora::ReplicaSnapshot& replica : stats.replicas) {
      server.iterations += replica.server.iterations;
      server.mode_switches += replica.server.mode_switches;
      server.mixture_iterations += replica.server.mixture_iterations;
      server.unmerged_iterations += replica.server.unmerged_iterations;
      server.adapter_swap_ins += replica.server.adapter_swap_ins;
      server.visible_swap_ms += replica.server.visible_swap_ms;
    }
  } else {
    server = replay.server;
  }
  const double iterations = static_cast<double>(std::max<int64_t>(1, server.iterations));
  add("core.iterations", "count", static_cast<double>(server.iterations), 1);
  add("core.mode_switches", "count", static_cast<double>(server.mode_switches), 1);
  add("core.mixture_share", "ratio", server.mixture_iterations / iterations, server.iterations);
  add("core.unmerged_share", "ratio", server.unmerged_iterations / iterations,
      server.iterations);
  {
    vlora::PolicyContext context;
    context.max_batch_size = workload.server.max_batch_size;
    vlora::SampleStats alg1_us;
    for (const auto& queue : replay.queues) {
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < 20; ++i) {
        // Alg1Schedule lives in another translation unit, so the call is
        // never elided.
        (void)vlora::Alg1Schedule(queue, context, workload.server.alg1);
      }
      alg1_us.Add(MicrosSince(start) / 20);
    }
    add("core.alg1_us", "us", alg1_us.Median(), alg1_us.count());
  }

  // lora: swap accounting and the swift switch.
  add("lora.swap_ins", "count", static_cast<double>(server.adapter_swap_ins), 1);
  add("lora.visible_swap_ms", "ms", server.visible_swap_ms, server.adapter_swap_ins);
  add("lora.mode_switch_ms", "ms", replay.mode_switch_ms, replay.mode_switch_samples);

  // engine: batch steps (cluster spans on the thread backend, the replay's
  // otherwise), TTFT / TPOT from lifecycle events, prefix reuse.
  {
    std::vector<double> step_ms;
    double batch_sum = 0.0;
    int64_t batches = 0;
    std::unordered_map<int32_t, double> open_step;
    for (const TraceEvent& e : run.events) {
      const bool from_cluster = e.replica >= 0 && e.replica != kReplayReplica;
      if (thread_backend ? !from_cluster : e.replica != kReplayReplica) {
        continue;
      }
      if (e.kind == TraceEventKind::kBatchStepBegin) {
        open_step[e.replica] = e.when_ms;
        batch_sum += static_cast<double>(e.batch_size());
        ++batches;
      } else if (e.kind == TraceEventKind::kBatchStepEnd) {
        auto it = open_step.find(e.replica);
        if (it != open_step.end()) {
          step_ms.push_back(e.when_ms - it->second);
          open_step.erase(it);
        }
      }
    }
    add("engine.step_ms_p50", "ms", pct(step_ms, 50), static_cast<int64_t>(step_ms.size()));
    add("engine.step_ms_p99", "ms", pct(step_ms, 99), static_cast<int64_t>(step_ms.size()));
    add("engine.batch_size_mean", "count", batches > 0 ? batch_sum / batches : 0.0, batches);
  }
  add("engine.ttft_ms_p50", "ms", pct(ttft_ms, 50), static_cast<int64_t>(ttft_ms.size()));
  add("engine.tpot_ms_p50", "ms", pct(tpot_ms, 50), static_cast<int64_t>(tpot_ms.size()));
  {
    int64_t reused = 0;
    int64_t prompt = 0;
    for (const vlora::EngineResult& result : run.results) {
      reused += result.reused_tokens;
      prompt += result.reused_tokens + result.prefill_tokens;
    }
    add("engine.prefix_reuse_ratio", "ratio",
        prompt > 0 ? static_cast<double>(reused) / prompt : 0.0,
        static_cast<int64_t>(run.results.size()));
  }

  // kernels: dispatch shapes the engine issued, re-timed standalone.
  {
    std::vector<TraceEvent> dispatches;
    for (const TraceEvent& e : run.events) {
      const bool from_cluster = e.replica != kReplayReplica;
      if (e.kind == TraceEventKind::kKernelDispatch &&
          (thread_backend ? from_cluster : !from_cluster)) {
        dispatches.push_back(e);
      }
    }
    // Base-weight projections only (n, k >= d_model); the rank-r LoRA
    // branches are timed with them inside the engine step. Decode-sized m is
    // at most one token per sequence of a full batch.
    const int64_t batch = workload.server.max_batch_size;
    const int64_t d = workload.config.d_model;
    auto base_weight = [d](const TraceEvent& e) { return e.n >= d && e.k >= d; };
    vlora::ShapeKey decode{1, d, d};
    vlora::ShapeKey prefill{0, 0, 0};
    MostFrequentShape(
        dispatches, [&](const TraceEvent& e) { return base_weight(e) && e.m <= batch; }, &decode);
    const bool saw_prefill = MostFrequentShape(
        dispatches, [&](const TraceEvent& e) { return base_weight(e) && e.m > batch; }, &prefill);
    int64_t decode_samples = 0;
    int64_t prefill_samples = 0;
    const double decode_us = TimeGemmUs(decode, &decode_samples);
    const double prefill_us = saw_prefill ? TimeGemmUs(prefill, &prefill_samples) : 0.0;
    auto gflops = [](const vlora::ShapeKey& s, double us) {
      return us > 0 ? 2.0 * s.m * s.n * s.k / (us * 1e3) : 0.0;
    };
    auto gbytes = [](const vlora::ShapeKey& s, double us) {
      return us > 0 ? 4.0 * (s.m * s.k + s.k * s.n + s.m * s.n) / (us * 1e3) : 0.0;
    };
    add("kernels.decode_gemm_us", "us", decode_us, decode_samples);
    add("kernels.decode_gemm_gflops", "GFLOP/s", gflops(decode, decode_us), decode_samples);
    add("kernels.decode_gemm_gbps", "GB/s", gbytes(decode, decode_us), decode_samples);
    add("kernels.prefill_gemm_us", "us", prefill_us, prefill_samples);
    add("kernels.prefill_gemm_gflops", "GFLOP/s", gflops(prefill, prefill_us), prefill_samples);
    const int64_t requests = thread_backend ? run.timed_requests : replay.requests;
    add("kernels.dispatches_per_request", "count",
        requests > 0 ? static_cast<double>(dispatches.size()) / requests : 0.0, requests);
    const vlora::KernelVariant variant = vlora::ActiveKernelVariant();
    int64_t heuristic = 0;
    for (const TraceEvent& e : dispatches) {
      const vlora::TileConfig h = vlora::AtmmDispatcher::HeuristicConfig(e.m, e.n, e.k, variant);
      heuristic += (h.mc == e.tile_mc && h.nc == e.tile_nc && h.kc == e.tile_kc &&
                    h.mr == e.tile_mr && h.nr == e.tile_nr)
                       ? 1
                       : 0;
    }
    add("kernels.heuristic_share", "ratio",
        dispatches.empty() ? 0.0 : static_cast<double>(heuristic) / dispatches.size(),
        static_cast<int64_t>(dispatches.size()));
  }

  // net: the src/net codecs and a Channel pair, on this workload's messages.
  {
    const size_t count = std::min<size_t>(workload.open.size(), 200);
    std::vector<std::string> frames;
    double frame_bytes = 0.0;
    for (size_t i = 0; i < count; ++i) {
      vlora::net::RequestMessage message;
      message.request = workload.open[i].request;
      frames.push_back(vlora::net::EncodeMessageFrame(message));
      frame_bytes += static_cast<double>(frames.back().size());
    }
    add("net.request_frame_bytes", "B", frame_bytes / static_cast<double>(count),
        static_cast<int64_t>(count));
    size_t cursor = 0;
    const vlora::SampleStats encode_us = TimePerCall(
        [&] {
          vlora::net::RequestMessage message;
          message.request = workload.open[cursor++ % count].request;
          frames[0] = vlora::net::EncodeMessageFrame(message);
        },
        static_cast<int>(count), 100.0);
    frames[0] = vlora::net::EncodeMessageFrame(vlora::net::RequestMessage{workload.open[0].request});
    bool decoded_all = true;
    const vlora::SampleStats decode_us = TimePerCall(
        [&] {
          const std::string& frame = frames[cursor++ % count];
          vlora::net::FrameAssembler assembler;
          std::string payload;
          decoded_all = decoded_all && assembler.Feed(frame.data(), frame.size()).ok() &&
                        assembler.Next(&payload);
          vlora::Result<vlora::net::Envelope> envelope = vlora::net::DecodeEnvelope(payload);
          decoded_all = decoded_all && envelope.ok() &&
                        vlora::net::DecodeAs<vlora::net::RequestMessage>(envelope.value()).ok();
        },
        static_cast<int>(count), 100.0);
    add("net.encode_us", "us", encode_us.Median(), encode_us.count());
    add("net.decode_us", "us", decoded_all ? decode_us.Median() : 0.0, decode_us.count());

    // Round trip: a Request frame out, a Result frame of the requested size
    // back, over a socket pair with an echo thread on the far end.
    vlora::Result<std::pair<vlora::net::Fd, vlora::net::Fd>> pair = vlora::net::MakeSocketPair();
    double roundtrip_us = 0.0;
    int64_t roundtrips = 0;
    if (pair.ok()) {
      vlora::net::Channel near(std::move(pair.value().first));
      vlora::net::Channel far(std::move(pair.value().second));
      std::thread echo([&far] {
        while (true) {
          vlora::Result<vlora::net::Envelope> envelope = far.Recv();
          if (!envelope.ok() || envelope.value().type != vlora::net::MessageType::kRequest) {
            return;
          }
          vlora::Result<vlora::net::RequestMessage> request =
              vlora::net::DecodeAs<vlora::net::RequestMessage>(envelope.value());
          if (!request.ok()) {
            return;
          }
          vlora::net::ResultMessage reply;
          reply.result.request_id = request.value().request.id;
          reply.result.output_tokens.assign(
              static_cast<size_t>(request.value().request.max_new_tokens), 7);
          if (!far.SendMsg(reply).ok()) {
            return;
          }
        }
      });
      vlora::SampleStats rtt_us;
      for (size_t i = 0; i < 4 * count; ++i) {
        const Clock::time_point start = Clock::now();
        if (!near.SendMsg(vlora::net::RequestMessage{workload.open[i % count].request}).ok() ||
            !near.Recv().ok()) {
          break;
        }
        rtt_us.Add(MicrosSince(start));
      }
      (void)near.SendMsg(vlora::net::StopMessage{});
      echo.join();
      roundtrip_us = rtt_us.Median();
      roundtrips = rtt_us.count();
    }
    add("net.roundtrip_us", "us", roundtrip_us, roundtrips);
  }

  // process backend: the master-side per-replica latency.
  {
    vlora::LatencyRecorder latency;
    for (const vlora::ReplicaSnapshot& replica : stats.replicas) {
      latency.Merge(replica.latency);
    }
    add("process.replica_latency_ms_p50", "ms", latency.P50Ms(), latency.count());
  }

  // Disaggregated handoff.
  {
    int64_t floats = 0;
    int64_t handoffs = 0;
    for (const TraceEvent& e : run.events) {
      if (e.kind == TraceEventKind::kKvHandoff) {
        floats += e.handoff_floats();
        ++handoffs;
      }
    }
    add("disagg.handoffs", "count", static_cast<double>(stats.handoffs), 1);
    add("disagg.handoff_ms_p50", "ms", pct(handoff_ms, 50),
        static_cast<int64_t>(handoff_ms.size()));
    add("disagg.kv_bytes_per_handoff", "B",
        handoffs > 0 ? 4.0 * static_cast<double>(floats) / handoffs : 0.0, handoffs);
  }
  return out;
}

}  // namespace perfbench
