#include "perfbench/reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/status.h"

namespace perfbench {
namespace {

std::vector<double> ToDouble(const vlora::Tensor& t) {
  return std::vector<double>(t.data(), t.data() + t.shape().NumElements());
}

// out[j] += sum_i x[i] * w[i * cols + j]
void AddMatVec(const double* x, const std::vector<double>& w, int64_t rows, int64_t cols,
               double* out) {
  for (int64_t i = 0; i < rows; ++i) {
    const double xi = x[i];
    const double* row = w.data() + i * cols;
    for (int64_t j = 0; j < cols; ++j) {
      out[j] += xi * row[j];
    }
  }
}

std::vector<double> RmsNorm(const std::vector<double>& x, const std::vector<double>& gain) {
  double ss = 0.0;
  for (double v : x) {
    ss += v * v;
  }
  const double inv = 1.0 / std::sqrt(ss / static_cast<double>(x.size()) + 1e-5);
  std::vector<double> out(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] * inv * gain[i];
  }
  return out;
}

int64_t ArgMax(const std::vector<double>& v) {
  return std::max_element(v.begin(), v.end()) - v.begin();
}

}  // namespace

// Incremental decoding state of one request: per-layer K/V rows in double.
class ReferenceModel::Session {
 public:
  Session(const ReferenceModel& model, const Lora& lora)
      : m_(model), lora_(lora), k_(model.layers_.size()), v_(model.layers_.size()) {}

  // Appends one token at the next position; returns the final-norm hidden.
  std::vector<double> Feed(int32_t token) {
    const int64_t d = m_.d_;
    const int64_t pos = static_cast<int64_t>(k_[0].size()) / d;
    VLORA_CHECK(token >= 0 && token < m_.vocab_);
    std::vector<double> x(m_.embedding_.begin() + token * d,
                          m_.embedding_.begin() + (token + 1) * d);
    for (int64_t i = 0; i < d; i += 2) {
      const double angle = static_cast<double>(pos) /
                           std::pow(10000.0, static_cast<double>(i) / static_cast<double>(d));
      x[static_cast<size_t>(i)] += 0.1 * std::sin(angle);
      if (i + 1 < d) {
        x[static_cast<size_t>(i + 1)] += 0.1 * std::cos(angle);
      }
    }
    const int64_t dh = d / m_.num_heads_;
    for (size_t l = 0; l < m_.layers_.size(); ++l) {
      const Layer& w = m_.layers_[l];
      const std::vector<double> h = RmsNorm(x, w.attn_norm);
      std::vector<double> q(static_cast<size_t>(d), 0.0);
      std::vector<double> k(static_cast<size_t>(d), 0.0);
      std::vector<double> v(static_cast<size_t>(d), 0.0);
      AddMatVec(h.data(), w.wq, d, d, q.data());
      AddMatVec(h.data(), w.wk, d, d, k.data());
      AddMatVec(h.data(), w.wv, d, d, v.data());
      Bypass(0, l, h, q);
      Bypass(1, l, h, v);
      k_[l].insert(k_[l].end(), k.begin(), k.end());
      v_[l].insert(v_[l].end(), v.begin(), v.end());

      std::vector<double> attn(static_cast<size_t>(d), 0.0);
      const double scale = 1.0 / std::sqrt(static_cast<double>(dh));
      std::vector<double> scores(static_cast<size_t>(pos + 1));
      for (int head = 0; head < m_.num_heads_; ++head) {
        const int64_t off = head * dh;
        double max_score = -1e300;
        for (int64_t p = 0; p <= pos; ++p) {
          double dot = 0.0;
          for (int64_t i = 0; i < dh; ++i) {
            dot += q[static_cast<size_t>(off + i)] * k_[l][static_cast<size_t>(p * d + off + i)];
          }
          scores[static_cast<size_t>(p)] = dot * scale;
          max_score = std::max(max_score, dot * scale);
        }
        double denom = 0.0;
        for (double& s : scores) {
          s = std::exp(s - max_score);
          denom += s;
        }
        for (int64_t p = 0; p <= pos; ++p) {
          const double weight = scores[static_cast<size_t>(p)] / denom;
          for (int64_t i = 0; i < dh; ++i) {
            attn[static_cast<size_t>(off + i)] +=
                weight * v_[l][static_cast<size_t>(p * d + off + i)];
          }
        }
      }
      std::vector<double> proj(static_cast<size_t>(d), 0.0);
      AddMatVec(attn.data(), w.wo, d, d, proj.data());
      Bypass(2, l, attn, proj);
      for (int64_t i = 0; i < d; ++i) {
        x[static_cast<size_t>(i)] += proj[static_cast<size_t>(i)];
      }

      const std::vector<double> h2 = RmsNorm(x, w.mlp_norm);
      std::vector<double> mid(static_cast<size_t>(m_.ff_), 0.0);
      AddMatVec(h2.data(), w.w1, d, m_.ff_, mid.data());
      for (double& value : mid) {
        value = value / (1.0 + std::exp(-value));
      }
      AddMatVec(mid.data(), w.w2, m_.ff_, d, x.data());
    }
    return RmsNorm(x, m_.final_norm_);
  }

  std::vector<double> Logits(const std::vector<double>& hidden) const {
    std::vector<double> logits(static_cast<size_t>(m_.vocab_), 0.0);
    AddMatVec(hidden.data(), m_.lm_head_, m_.d_, m_.vocab_, logits.data());
    return logits;
  }

 private:
  // out += scaling * (in * down) * up for one adapted target.
  void Bypass(int target, size_t layer, const std::vector<double>& in,
              std::vector<double>& out) const {
    if (lora_.down[target].empty()) {
      return;
    }
    const int64_t d = m_.d_;
    std::vector<double> mid(static_cast<size_t>(lora_.rank), 0.0);
    AddMatVec(in.data(), lora_.down[target][layer], d, lora_.rank, mid.data());
    for (double& value : mid) {
      value *= lora_.scaling;
    }
    AddMatVec(mid.data(), lora_.up[target][layer], lora_.rank, d, out.data());
  }

  const ReferenceModel& m_;
  const Lora& lora_;
  std::vector<std::vector<double>> k_;
  std::vector<std::vector<double>> v_;
};

ReferenceModel::ReferenceModel(const vlora::TransformerModel& model) {
  const vlora::ModelConfig& config = model.config();
  d_ = config.d_model;
  ff_ = config.d_ff;
  vocab_ = config.vocab_size;
  num_heads_ = config.num_heads;
  for (int l = 0; l < model.num_layers(); ++l) {
    const vlora::LayerWeights& w = model.layer(l);
    layers_.push_back(Layer{ToDouble(w.wq), ToDouble(w.wk), ToDouble(w.wv), ToDouble(w.wo),
                            ToDouble(w.w1), ToDouble(w.w2), ToDouble(w.attn_norm),
                            ToDouble(w.mlp_norm)});
  }
  embedding_ = ToDouble(model.embedding());
  lm_head_ = ToDouble(model.lm_head());
  final_norm_ = ToDouble(model.final_norm());
}

ReferenceModel::Lora ReferenceModel::LoadLora(const vlora::LoraAdapter* adapter) const {
  Lora lora;
  if (adapter == nullptr) {
    return lora;
  }
  lora.rank = adapter->rank();
  lora.scaling = adapter->scaling();
  const vlora::LoraTarget targets[3] = {vlora::LoraTarget::kWq, vlora::LoraTarget::kWv,
                                        vlora::LoraTarget::kWo};
  for (int t = 0; t < 3; ++t) {
    if (!adapter->HasTarget(targets[t])) {
      continue;
    }
    for (int l = 0; l < adapter->num_layers(); ++l) {
      lora.down[t].push_back(ToDouble(adapter->layer(targets[t], l).down));
      lora.up[t].push_back(ToDouble(adapter->layer(targets[t], l).up));
    }
  }
  return lora;
}

ReferenceVerdict ReferenceModel::Check(const vlora::EngineRequest& request,
                                       const vlora::LoraAdapter* adapter,
                                       const vlora::EngineResult& served,
                                       double tolerance) const {
  VLORA_CHECK(request.injected.empty());
  ReferenceVerdict verdict;
  auto fail = [&](const std::string& what) {
    verdict.ok = false;
    verdict.detail = "request " + std::to_string(request.id) + ": " + what;
    return verdict;
  };
  const Lora lora = LoadLora(adapter);
  Session session(*this, lora);
  std::vector<double> hidden;
  for (int32_t token : request.prompt_tokens) {
    hidden = session.Feed(token);
  }
  if (static_cast<int64_t>(served.output_tokens.size()) != request.max_new_tokens) {
    return fail("served " + std::to_string(served.output_tokens.size()) + " tokens, requested " +
                std::to_string(request.max_new_tokens));
  }
  for (size_t i = 0; i < served.output_tokens.size(); ++i) {
    const std::vector<double> logits = session.Logits(hidden);
    const int64_t best = ArgMax(logits);
    const int32_t token = served.output_tokens[i];
    if (token < 0 || token >= vocab_) {
      return fail("token " + std::to_string(token) + " out of range");
    }
    if (token != best) {
      const double gap = logits[static_cast<size_t>(best)] - logits[static_cast<size_t>(token)];
      if (gap > tolerance) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "token %zu is %d, reference %lld (logit gap %.3g)", i,
                      token, static_cast<long long>(best), gap);
        return fail(buf);
      }
      ++verdict.near_ties;
    }
    if (i + 1 < served.output_tokens.size()) {
      hidden = session.Feed(token);  // continue from the served token
    }
  }
  return verdict;
}

std::vector<int32_t> ReferenceModel::Answer(const vlora::EngineRequest& request,
                                            const vlora::LoraAdapter* adapter) const {
  VLORA_CHECK(request.injected.empty());
  const Lora lora = LoadLora(adapter);
  Session session(*this, lora);
  std::vector<double> hidden;
  for (int32_t token : request.prompt_tokens) {
    hidden = session.Feed(token);
  }
  std::vector<int32_t> tokens;
  for (int i = 0; i < request.max_new_tokens; ++i) {
    const int32_t token = static_cast<int32_t>(ArgMax(session.Logits(hidden)));
    tokens.push_back(token);
    if (i + 1 < request.max_new_tokens) {
      hidden = session.Feed(token);
    }
  }
  return tokens;
}

}  // namespace perfbench
