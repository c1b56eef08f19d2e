#pragma once
// Multi-device sharded pipeline executor. run_shard_plan replays a
// ShardPlan (shard.hpp) like PipelineExecutor::run replays a
// PipelinePlan: each device in a gpusim::DeviceGroup runs its shard as
// an independent pipelined timeline (its own streams, its own
// H2D/kernel overlap), driven by a real host thread per device — the
// SimDevice simulators are independent, so the per-device timelines
// advance concurrently exactly like N GPUs would.
//
// On top of a barrier design the replay adds (docs/multidev.md):
//  * work stealing (ExecConfig::work_stealing): a device that drains
//    its shard takes whole segments from the tail of the most-loaded
//    predicted timeline. Only segments whose slice range is not shared
//    with a neighbour may move (re-associating a split slice's partial
//    sums would change low bits); decisions are serialized in
//    simulated-time order, so the steal sequence is deterministic
//    regardless of host thread scheduling, and stolen contributions
//    fold back into the owner's partial in segment order —
//    bit-identical outputs.
//  * overlapped reduction (ExecConfig::overlap_reduction): the
//    cross-device reduction is chunked per boundary row-block and each
//    chunk starts as soon as both neighbouring shards finish, so the
//    collective hides under the compute tail instead of serializing
//    after a global barrier. Off reproduces
//    total_ns == compute_ns + reduce_ns exactly.
//
// Functional semantics: every device accumulates into its own partial
// output matrix (stolen segments into per-segment scratch), and the
// partials are summed in device order — a deterministic reduction,
// independent of thread scheduling and of whether stealing triggered.

#include <vector>

#include "gpusim/device_group.hpp"
#include "gpusim/engine.hpp"
#include "scalfrag/exec_config.hpp"
#include "scalfrag/shard.hpp"

namespace scalfrag {

/// One work-stealing event: `thief` took global segment `segment` from
/// the tail of `victim`'s queue at simulated time `decision_ns`.
/// The records appear in decision order — a deterministic sequence.
struct StealRecord {
  int segment = 0;
  int victim = 0;
  int thief = 0;
  sim_ns decision_ns = 0;
};

/// Per-device slice of a multi-device run's report.
struct DeviceRunStats {
  int device = 0;
  int stolen_segments = 0;  // segments this device stole and executed
  nnz_t stolen_nnz = 0;
  sim_ns total_ns = 0;  // this device's timeline makespan (0 if idle)
  gpusim::TimelineBreakdown breakdown;
};

struct MultiPipelineResult {
  DenseMatrix output;  // reduced (full) mode-m factor update
  ShardPlan plan;
  std::vector<DeviceRunStats> devices;  // in device order
  std::vector<StealRecord> steals;      // in decision order

  gpusim::ReduceSchedule reduce_schedule = gpusim::ReduceSchedule::Tree;
  sim_ns compute_ns = 0;  // max over devices of timeline makespan
  sim_ns reduce_ns = 0;   // modeled inter-device reduction work
  /// End-to-end makespan. Barrier mode: compute_ns + reduce_ns.
  /// Overlapped mode: max(compute_ns, last reduction chunk end) — at
  /// most compute_ns + reduce_ns, less whenever chunks hid under the
  /// compute tail.
  sim_ns total_ns = 0;
  /// Reduction time hidden under compute: compute_ns + reduce_ns -
  /// total_ns. Zero in barrier mode.
  sim_ns overlap_saved_ns = 0;
  /// ShardPlan::pred_time_imbalance() of the executed plan.
  double pred_imbalance = 1.0;
};

/// Replay `plan` on `group` for `t`, the mode-sorted view it was built
/// from (ModeViews::view(mode) plugs in zero-copy). Throws when the
/// group size, ExecConfig::num_devices, the factors' rank or the view's
/// nnz do not match the plan. A thief launches a stolen segment by
/// choose_launch for its own device, without the selector. All device
/// timelines are reset at entry.
MultiPipelineResult run_shard_plan(gpusim::DeviceGroup& group,
                                   const ShardPlan& plan, const CooSpan& t,
                                   const FactorList& factors,
                                   const ExecConfig& cfg = {});

/// Canonical free-function driver, mirroring run_pipeline: build the
/// ShardPlan, then replay it.
MultiPipelineResult run_multi_pipeline(gpusim::DeviceGroup& group,
                                       const CooSpan& t,
                                       const FactorList& factors, order_t mode,
                                       const ExecConfig& cfg = {},
                                       const LaunchSelector* selector =
                                           nullptr);

}  // namespace scalfrag
