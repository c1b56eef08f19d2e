#pragma once
// Multi-device sharding planner (AMPED-style scale-out of the paper's
// pipeline): a ShardPlan is a PipelinePlan cut across a DeviceGroup.
// The single-device stages build it — plan_segments over the whole
// tensor, then plan_launches with each segment's launch chosen for the
// spec of the device that owns it — and the segments are partitioned
// into one contiguous run per device. Each device replays its shard as
// an independent pipelined timeline (run_shard_plan) and the partial
// outputs are reduced across the peer link (gpusim::DeviceGroup models
// the reduction cost).
//
// Sharding at *segment* granularity (not raw nnz ranges) keeps every
// per-segment invariant the single-device executor relies on: cuts
// prefer slice boundaries, fused per-segment features are reused for
// launch prediction, and the per-shard pipelines replay the exact
// segments the planner saw.

#include <vector>

#include "gpusim/device_group.hpp"
#include "scalfrag/autotune.hpp"
#include "scalfrag/exec_config.hpp"
#include "scalfrag/pipeline.hpp"

namespace scalfrag {

/// One device's cut of the plan: a contiguous run of its segments.
struct DeviceShard {
  int device = 0;
  int seg_begin = 0;  // segment-index range [seg_begin, seg_end) in
  int seg_end = 0;    // ShardPlan::plan
  nnz_t begin = 0;    // entry range [begin, end) in the sorted parent
  nnz_t end = 0;
  nnz_t nnz = 0;

  /// Cost-model-predicted time per owned segment on this device under
  /// its planned launch (predict_segment_ns: max of kernel and H2D, the
  /// pipelined bottleneck); feeds the work-stealing victim rule.
  std::vector<sim_ns> seg_pred_ns;
  /// Sum of seg_pred_ns — the shard's predicted busy time.
  sim_ns predicted_ns = 0;
  /// Relative throughput weight the planner cut this shard with
  /// (device 0 == 1.0). 1.0 everywhere for nnz-balanced plans.
  double weight = 1.0;

  int num_segments() const noexcept { return seg_end - seg_begin; }
  bool empty() const noexcept { return seg_begin == seg_end; }
};

struct ShardPlan {
  /// The whole tensor's plan; launches[i] was chosen for the spec of
  /// the device that owns segment i.
  PipelinePlan plan;
  std::vector<DeviceShard> shards;  // one per device, in device order
  /// True when cost-weighted (uneven-by-design) cuts were used; nnz
  /// balance is then *not* the quality metric — read
  /// pred_time_imbalance() instead of max_shard_nnz().
  bool weighted = false;

  /// Max over shards of nnz. Only meaningful as a balance metric for
  /// nnz-balanced plans (weighted == false); heterogeneous plans are
  /// uneven in nnz on purpose.
  nnz_t max_shard_nnz() const noexcept;
  /// Max over shards of predicted shard time.
  sim_ns max_shard_pred_ns() const noexcept;
  /// max / mean over *all* devices of predicted shard time (1.0 =
  /// perfectly balanced; idle devices count toward the mean). This is
  /// the balance metric that stays honest for weighted plans.
  double pred_time_imbalance() const noexcept;
};

/// Plan a mode-`mode` MTTKRP of the mode-sorted view `t` across
/// `group`'s devices (ExecConfig::num_devices must match; no hybrid
/// split). Segment count as in plan_segments: the auto rule scales with
/// the device count, and devices beyond the realized segment count get
/// empty shards. `selector` may be null (static launches). Records the
/// host/shard_planning span plus make_pipeline_plan's build metrics.
ShardPlan make_shard_plan(const gpusim::DeviceGroup& group,
                          const CooSpan& t, order_t mode, index_t rank,
                          const ExecConfig& cfg,
                          const LaunchSelector* selector = nullptr);

}  // namespace scalfrag
