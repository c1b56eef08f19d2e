#pragma once
// MttkrpPlan — amortized preprocessing for iterative workloads.
//
// CPD-ALS calls mode-n MTTKRP once per mode per iteration, and the
// paper leans on this ("the iterative CPD process involves many MTTKRP
// operations, further diluting the inference overhead", §IV-B). The
// launch-relevant inputs — sparsity features, segmentation, launch
// selection — depend only on the tensor, never on the factor values,
// so they can be computed once per mode and reused by every iteration.
// The plan does exactly that: sort once, segment, and select up front;
// each run() then replays the precomputed schedule.
//
// Memory model: the plan keeps ONE canonical sorted copy of the tensor
// plus a gather permutation per remaining mode (ModeViews), not one
// fully sorted copy per mode. For an order-N tensor that is
// bytes(x) + (N-1)·4·nnz resident instead of N·bytes(x) — see
// docs/host-engine.md "Plan memory model".

#include "scalfrag/pipeline.hpp"
#include "tensor/mode_views.hpp"

namespace scalfrag {

class MttkrpPlan {
 public:
  /// Precompute every mode's plan. `selector` may be null (static
  /// launches). The heavy work (one canonical sort + N-1 counting
  /// passes + N segmentations and selector sweeps) happens here, once.
  ///
  /// The config is copied BY VALUE — later mutation (or destruction)
  /// of the caller's ExecConfig does not affect the plan. The one
  /// referenced resource is ExecConfig::metrics_sink: the registry it
  /// points at must outlive every run() replay of this plan (the plan
  /// stores the raw pointer, not the registry, and the ModeViews
  /// resident-bytes gauge reports into it).
  MttkrpPlan(const CooTensor& x, index_t rank, gpusim::SimDevice& dev,
             const LaunchSelector* selector, ExecConfig config = {});

  /// Adopt pre-built views (e.g. cpd_als sharing one canonical sort
  /// across backends) instead of sorting again.
  MttkrpPlan(ModeViews&& views, index_t rank, gpusim::SimDevice& dev,
             const LaunchSelector* selector, ExecConfig config = {});

  order_t order() const noexcept { return views_.order(); }
  index_t rank() const noexcept { return rank_; }
  const PipelinePlan& mode(order_t m) const { return modes_.at(m); }
  const ExecConfig& config() const noexcept { return options_; }

  /// The shared single-sort representation backing every mode.
  const ModeViews& views() const noexcept { return views_; }

  /// Zero-copy mode-sorted view the mode-`m` replay executes on.
  CooSpan view(order_t m) const { return views_.view(m); }

  /// Bytes the plan keeps resident for the tensor data (canonical copy
  /// + permutations). The replaced per-mode-copies scheme would hold
  /// ModeViews::legacy_copies_bytes(x).
  std::size_t resident_bytes() const noexcept {
    return views_.resident_bytes();
  }

  /// Execute one planned mode-`mode` MTTKRP (selection cost already
  /// sunk; result.selection_seconds stays 0).
  PipelineResult run(const FactorList& factors, order_t mode) const;

  /// Cache-friendly replay: execute the precomputed mode-`mode` plan
  /// on `dev` — any device of the same spec as the one the
  /// plan was built against (segmentation and launch prediction depend
  /// on the spec, not the device instance, so the replay is
  /// bit-identical wherever it lands). `sink` overrides the plan's
  /// baked-in metrics pointer for this run, which is how the service's
  /// shared PlanCache reports into per-job registries.
  PipelineResult run_on(gpusim::SimDevice& dev, const FactorList& factors,
                        order_t mode,
                        obs::MetricsRegistry* sink = nullptr) const;

  /// One-off plan-build wall time: segmentation and launch selection
  /// over every mode (the canonical sort is not included).
  double prepare_seconds() const noexcept { return prepare_seconds_; }

 private:
  gpusim::SimDevice* dev_;
  index_t rank_;
  ExecConfig options_;
  ModeViews views_;
  std::vector<PipelinePlan> modes_;
  double prepare_seconds_ = 0.0;
};

}  // namespace scalfrag
