#include "perfbench/workload.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <utility>

#include "src/common/rng.h"

namespace perfbench {
namespace {

using vlora::EngineRequest;
using vlora::LoraAdapter;
using vlora::Rng;

constexpr int kNumAdapters = 12;
constexpr int64_t kAdapterRank = 8;
// Factor scale: large enough that a wrong adapter changes greedy outputs
// beyond near ties, as a fine-tuned adapter does.
constexpr float kAdapterInitScale = 0.1f;
constexpr int kPoolAdapterSlots = 6;   // device pool holds half the adapters
constexpr double kHottestShare = 0.6;  // skew: share of the hottest adapter
constexpr int kImagesPerAdapter = 8;   // per-adapter image pool (Zipf popularity)
constexpr int kAdapterDeck = 100;      // requests per block of exact adapter shares
constexpr int64_t kImageBlocks = 3;    // image prefix = 3 whole KV blocks
constexpr int64_t kReplicaQueueCapacity = 64;
constexpr int kWarmupRequests = 64;
constexpr double kRoundSeconds = 5.0;          // open-loop length of one round
constexpr double kSaturationPerSecond = 60.0;  // saturation requests per open-loop second

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  return x;
}

int32_t RandomToken(Rng& rng, const vlora::ModelConfig& config) {
  return static_cast<int32_t>(rng.NextInt(2, config.vocab_size - 1));
}

// Hottest adapter at kHottestShare, the rest a Zipf(1) tail.
std::vector<double> SkewedShares() {
  std::vector<double> shares(kNumAdapters, 0.0);
  double tail = 0.0;
  for (int i = 1; i < kNumAdapters; ++i) {
    tail += 1.0 / i;
  }
  shares[0] = kHottestShare;
  for (int i = 1; i < kNumAdapters; ++i) {
    shares[static_cast<size_t>(i)] = (1.0 - kHottestShare) * (1.0 / i) / tail;
  }
  return shares;
}

class InputMaker {
 public:
  InputMaker(const Workload& workload, uint64_t seed)
      : workload_(workload), seed_(seed), rng_(Mix(seed, 0x1A7E)) {
    for (int i = 1; i <= kImagesPerAdapter; ++i) {
      image_weights_.push_back(1.0 / i);
    }
    // Largest-remainder rounding of the shares to kAdapterDeck requests.
    const std::vector<double>& shares = workload.shares;
    std::vector<int> counts(shares.size());
    std::vector<std::pair<double, size_t>> remainders;
    int dealt = 0;
    for (size_t a = 0; a < shares.size(); ++a) {
      const double exact = shares[a] * kAdapterDeck;
      counts[a] = static_cast<int>(exact);
      dealt += counts[a];
      remainders.emplace_back(exact - counts[a], a);
    }
    std::sort(remainders.begin(), remainders.end(), std::greater<>());
    for (int i = 0; dealt < kAdapterDeck; ++i, ++dealt) {
      ++counts[remainders[static_cast<size_t>(i)].second];
    }
    for (size_t a = 0; a < counts.size(); ++a) {
      deck_.insert(deck_.end(), static_cast<size_t>(counts[a]), static_cast<int>(a));
    }
    next_card_ = deck_.size();
  }

  BenchInput Next(int64_t id) {
    const vlora::ModelConfig& config = workload_.config;
    BenchInput input;
    EngineRequest& request = input.request;
    request.id = id;
    request.adapter_id = NextAdapter();
    request.eos_token = -1;  // never sampled: every request decodes its full budget
    // Visual retrieval: a pooled image prefix, then a private question.
    const int image = static_cast<int>(rng_.NextWeighted(image_weights_));
    Rng image_rng(Mix(Mix(seed_, static_cast<uint64_t>(request.adapter_id)),
                      static_cast<uint64_t>(image) + 1000));
    const int64_t image_tokens = kImageBlocks * workload_.server.engine.kv_block_size;
    for (int64_t t = 0; t < image_tokens; ++t) {
      request.prompt_tokens.push_back(RandomToken(image_rng, config));
    }
    const int64_t question = rng_.NextInt(6, 14);
    for (int64_t t = 0; t < question; ++t) {
      request.prompt_tokens.push_back(RandomToken(rng_, config));
    }
    request.max_new_tokens = static_cast<int>(rng_.NextInt(32, 48));
    input.requested_tokens = request.max_new_tokens;
    return input;
  }

  Rng& rng() { return rng_; }

 private:
  // Adapters are dealt from a shuffled deck holding each adapter's share of
  // kAdapterDeck requests, so every block of that many requests has the same
  // adapter mix whatever the seed; only the order is random.
  int NextAdapter() {
    if (next_card_ == deck_.size()) {
      for (size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[static_cast<size_t>(rng_.NextBounded(i + 1))]);
      }
      next_card_ = 0;
    }
    return deck_[next_card_++];
  }

  const Workload& workload_;
  uint64_t seed_;
  Rng rng_;
  std::vector<double> image_weights_;
  std::vector<int> deck_;
  size_t next_card_ = 0;
};

// Whole leading blocks each prompt shares with at least one other input of
// the same adapter — the most prefix reuse any execution order could give.
void FillSharedPrefix(Workload& workload) {
  const int64_t block = workload.server.engine.kv_block_size;
  std::vector<BenchInput*> all;
  for (auto* phase : {&workload.warmup, &workload.open, &workload.saturation}) {
    for (BenchInput& input : *phase) {
      all.push_back(&input);
    }
  }
  auto key = [&](const BenchInput& input, int64_t blocks) {
    std::string k = std::to_string(input.request.adapter_id) + ":";
    k.append(reinterpret_cast<const char*>(input.request.prompt_tokens.data()),
             static_cast<size_t>(blocks * block) * sizeof(int32_t));
    return k;
  };
  std::map<std::string, int> counts;
  for (const BenchInput* input : all) {
    const int64_t len = static_cast<int64_t>(input->request.prompt_tokens.size());
    for (int64_t b = 1; b * block <= len - 1; ++b) {
      ++counts[key(*input, b)];
    }
  }
  for (BenchInput* input : all) {
    const int64_t len = static_cast<int64_t>(input->request.prompt_tokens.size());
    int64_t shared = 0;
    for (int64_t b = 1; b * block <= len - 1; ++b) {
      if (counts[key(*input, b)] < 2) {
        break;
      }
      shared = b * block;
    }
    input->shared_prefix_tokens = shared;
  }
}

}  // namespace

bool LookupSpec(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "retrieval_thread") {
    s.backend = vlora::ReplicaBackend::kThread;
    s.num_replicas = 2;
    s.open_rate_rps = 50.0;
  } else if (name == "retrieval_disagg") {
    s.backend = vlora::ReplicaBackend::kProcess;
    s.disagg = true;
    s.num_replicas = 3;
    s.num_prefill = 1;
    s.open_rate_rps = 65.0;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Workload workload;
  workload.spec = spec;
  workload.config = vlora::SmallConfig();
  workload.config.num_layers = 2;
  workload.server.max_batch_size = 16;
  workload.shares = SkewedShares();

  Rng adapter_rng(Mix(seed, 0xADA9));
  for (int i = 0; i < kNumAdapters; ++i) {
    workload.adapters.push_back(LoraAdapter::Random("bench-" + std::to_string(i),
                                                    workload.config.num_layers,
                                                    workload.config.d_model, kAdapterRank,
                                                    adapter_rng, kAdapterInitScale));
  }
  workload.server.device_pool_bytes =
      kPoolAdapterSlots * workload.adapters.front().SizeBytesFp16() + 64;

  InputMaker maker(workload, seed);
  int64_t id = 1;
  for (int i = 0; i < kWarmupRequests; ++i) {
    workload.warmup.push_back(maker.Next(id++));
  }
  // Open-loop requests first, then saturation requests, so each phase keeps
  // one contiguous id range; Run() interleaves them round by round.
  workload.rounds = std::max(1, static_cast<int>(std::lround(seconds / kRoundSeconds)));
  const double round_seconds = seconds / workload.rounds;
  const int64_t open_per_round = std::llround(spec.open_rate_rps * round_seconds);
  for (int round = 0; round < workload.rounds; ++round) {
    double due_ms = 0.0;
    for (int64_t i = 0; i < open_per_round; ++i) {
      BenchInput input = maker.Next(id++);
      input.round = round;
      input.due_ms = due_ms;
      workload.open.push_back(std::move(input));
      due_ms += maker.rng().NextExponential(spec.open_rate_rps) * 1e3;
    }
  }
  const int64_t saturation_per_round = std::llround(kSaturationPerSecond * round_seconds);
  for (int round = 0; round < workload.rounds; ++round) {
    for (int64_t i = 0; i < saturation_per_round; ++i) {
      BenchInput input = maker.Next(id++);
      input.round = round;
      workload.saturation.push_back(std::move(input));
    }
  }
  FillSharedPrefix(workload);
  return workload;
}

vlora::ClusterOptions MakeClusterOptions(const Workload& workload) {
  vlora::ClusterOptions options;
  options.num_replicas = workload.spec.num_replicas;
  options.server = workload.server;
  options.policy = vlora::RoutePolicy::kAdapterAffinity;
  options.admission = vlora::AdmissionPolicy::kBlock;
  options.backend = workload.spec.backend;
  options.replica_queue_capacity = kReplicaQueueCapacity;
  // TCP loopback keeps the benchmark from creating socket files outside its
  // checkout (the Unix transport binds under /tmp).
  options.process.transport = vlora::net::Transport::kTcp;
  options.process.max_inflight = 2LL * workload.server.max_batch_size;
  if (workload.spec.disagg) {
    options.disagg.enabled = true;
    options.disagg.num_prefill = workload.spec.num_prefill;
  }
  return options;
}

int64_t ServingQueueSlots(const Workload& workload) {
  return (workload.spec.num_replicas - workload.spec.num_prefill) * kReplicaQueueCapacity;
}

}  // namespace perfbench
