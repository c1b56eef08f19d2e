#pragma once
// Multi-device sharding planner (AMPED-style scale-out of the paper's
// pipeline): the realized single-tensor segment plan is partitioned
// into one contiguous run of segments per device, balanced by nnz.
// Each device then runs its shard as an independent pipelined timeline
// and the partial outputs are reduced across the peer link
// (gpusim::DeviceGroup models the reduction cost).
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
#include "scalfrag/segmenter.hpp"

namespace scalfrag {

/// One device's contiguous share of the global segment plan.
struct DeviceShard {
  int device = 0;
  int seg_begin = 0;  // segment-index range [seg_begin, seg_end) in the
  int seg_end = 0;    // global ShardPlan::plan
  nnz_t begin = 0;    // entry range [begin, end) in the sorted parent
  nnz_t end = 0;
  nnz_t nnz = 0;

  /// Launch config per owned segment (launches[i] drives segment
  /// seg_begin + i), predicted with the DecisionTree selector over the
  /// fused per-segment features when adaptive launching is on.
  std::vector<gpusim::LaunchConfig> launches;
  double selection_seconds = 0.0;  // host time spent in the selector

  /// Cost-model-predicted time per owned segment on this device
  /// (max of kernel and H2D, the pipelined bottleneck), aligned with
  /// `launches`; feeds the work-stealing victim rule.
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
  order_t mode = 0;
  SegmentPlan plan;                 // global realized segmentation
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

/// Partition a mode-sorted view across `group`'s devices. Segment
/// count: ExecConfig::num_segments when set, otherwise the
/// single-device auto rule scaled by the device count (each device
/// runs an auto-depth pipeline). Devices beyond the realized segment
/// count receive empty shards. `selector` may be null — launch
/// prediction then falls back to the static heuristic, exactly like
/// the single-device planner.
ShardPlan make_shard_plan(const gpusim::DeviceGroup& group,
                          const CooSpan& t, order_t mode, index_t rank,
                          const ExecConfig& cfg,
                          const LaunchSelector* selector = nullptr);

}  // namespace scalfrag
