// A naive double-precision forward pass of the mini LMM, independent of the
// engine's kernels, KV cache, scheduler and merge machinery. It reads only
// the public model weights (TransformerModel accessors) and each
// LoraAdapter's factors, and re-derives every request's greedy output from
// scratch.
//
// Checking rule: each served greedy token must be the reference argmax. When
// the served token is not the argmax but its reference logit is within
// `tolerance` of the top logit, the step is a near tie that fp32 rounding may
// legitimately break either way; it is accepted and the reference continues
// from the served token.

#ifndef VLORA_PERFBENCH_REFERENCE_H_
#define VLORA_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/model.h"
#include "src/lora/adapter.h"

namespace perfbench {

// Logit gap under which a served token other than the reference argmax is
// accepted. fp32 serving perturbs logits through batch-dependent tiling and
// repeated merge/unmerge of the base weights; logits on this model have a
// standard deviation of about 0.6, so 2e-3 admits only genuine near ties.
inline constexpr double kTieTolerance = 2e-3;

struct ReferenceVerdict {
  bool ok = true;
  int64_t near_ties = 0;  // steps accepted through the tolerance
  std::string detail;     // first disagreement, when !ok
};

class ReferenceModel {
 public:
  explicit ReferenceModel(const vlora::TransformerModel& model);

  // Checks `served` against the reference run of `request` with `adapter`
  // (nullptr = base model).
  ReferenceVerdict Check(const vlora::EngineRequest& request, const vlora::LoraAdapter* adapter,
                         const vlora::EngineResult& served, double tolerance) const;

  // The reference's own greedy output tokens.
  std::vector<int32_t> Answer(const vlora::EngineRequest& request,
                              const vlora::LoraAdapter* adapter) const;

 private:
  struct Layer {
    std::vector<double> wq, wk, wv, wo, w1, w2, attn_norm, mlp_norm;
  };
  struct Lora {
    // Per layer, per target (q, v, o): down (d x r), up (r x d); empty when
    // the adapter does not adapt that target.
    std::vector<std::vector<double>> down[3];
    std::vector<std::vector<double>> up[3];
    int64_t rank = 0;
    double scaling = 1.0;
  };
  class Session;

  Lora LoadLora(const vlora::LoraAdapter* adapter) const;

  int64_t d_ = 0;
  int64_t ff_ = 0;
  int64_t vocab_ = 0;
  int num_heads_ = 0;
  std::vector<Layer> layers_;
  std::vector<double> embedding_;
  std::vector<double> lm_head_;
  std::vector<double> final_norm_;
};

}  // namespace perfbench

#endif  // VLORA_PERFBENCH_REFERENCE_H_
