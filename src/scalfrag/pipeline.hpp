#pragma once
// The ScalFrag pipelined executor (paper §IV-C, Fig. 8): the
// mode-sorted tensor is cut into segments, each segment's H2D copy and
// kernel are issued asynchronously on a CUDA stream, and transfers
// overlap the previous segments' compute. Optionally, low-parallelism
// slices run on the host CPU concurrently (hybrid mode), and the launch
// configuration of every segment's kernel comes from the adaptive
// selector.
//
// Planning and execution are split. make_pipeline_plan does everything
// that depends only on the tensor and returns a PipelinePlan, in the two
// stages the multi-device planner (shard.hpp) shares: plan_segments
// (hybrid partition, slice-aligned segments with per-segment features)
// and plan_launches (one final launch per segment, by the one rule of
// choose_launch: override, else the selector's pick if the cost model
// prices it below the static launch, else the static launch).
// PipelineExecutor::run replays a plan: it never segments or selects.
// run_pipeline does both for call sites that run once; MttkrpPlan keeps
// one PipelinePlan per mode and replays it every iteration.
//
// Configuration is one ExecConfig (exec_config.hpp) shared with every
// other driver. Plan-time fields (segments, shared memory, launch
// choice, hybrid threshold) are read by make_pipeline_plan; a replay
// reads only the run-time fields (streams, CPU spec, host engine,
// metrics sink).

#include <optional>
#include <vector>

#include "gpusim/engine.hpp"
#include "obs/metrics.hpp"
#include "scalfrag/autotune.hpp"
#include "scalfrag/exec_config.hpp"
#include "scalfrag/hybrid.hpp"
#include "scalfrag/kernel.hpp"
#include "scalfrag/run_info.hpp"
#include "scalfrag/segmenter.hpp"

namespace scalfrag {

/// Everything one single-device mode-`mode` MTTKRP decides before it
/// touches a factor value. Valid only for the view it was built from.
struct PipelinePlan {
  index_t rank = 0;
  bool use_shared_mem = true;  // sizes launches and kernel profiles
  /// Hybrid CPU/GPU split of the view (gpu_whole when hybrid is off).
  HybridPartition partition;
  /// Slice-aligned cuts of the GPU share, with per-segment features.
  SegmentPlan segments;
  /// One final launch per segment (shared memory already sized; empty
  /// segments get a zero launch and are skipped at replay).
  std::vector<gpusim::LaunchConfig> launches;
  double selection_seconds = 0.0;  // host time spent in the selector

  order_t mode() const noexcept { return segments.mode; }
  std::size_t size() const noexcept { return segments.size(); }
  /// Whether it replays a view of `nnz` entries at rank `r`: one launch
  /// per segment, segments and shares covering the view.
  bool fits(nnz_t nnz, index_t r) const noexcept;
};

/// Build the plan for a mode-`mode` MTTKRP of the mode-sorted view `t`
/// at rank `rank` on one device: plan_segments, then plan_launches with
/// `dev` owning every segment. Records the build-time metrics
/// (host/partition, host/segmentation, pipeline/segments_requested,
/// pipeline/selection_seconds) into cfg.metrics_sink.
PipelinePlan make_pipeline_plan(const gpusim::SimDevice& dev,
                                const CooSpan& t, order_t mode,
                                index_t rank, const ExecConfig& cfg = {},
                                const LaunchSelector* selector = nullptr);

/// First planning stage, for any device count: the hybrid partition and
/// the segments, launches left empty. Segment count: cfg.num_segments,
/// else the auto rule on `dev` times cfg.num_devices; never fewer than
/// cfg.num_devices. Hands the whole-tensor features back in `*whole`
/// when the auto rule extracted them. Records host/partition,
/// host/segmentation and pipeline/segments_requested.
PipelinePlan plan_segments(const gpusim::SimDevice& dev, const CooSpan& t,
                           order_t mode, index_t rank, const ExecConfig& cfg,
                           std::optional<TensorFeatures>* whole = nullptr);

/// Second planning stage: one launch per segment of `plan`, chosen by
/// choose_launch for `owner[i]`, the device segment i runs on. Empty
/// segments get a zero launch. Records pipeline/selection_seconds.
void plan_launches(PipelinePlan& plan,
                   const std::vector<const gpusim::SimDevice*>& owner,
                   const ExecConfig& cfg, const LaunchSelector* selector);

/// The launch rule for a segment with features `feat` on `dev`:
/// cfg.launch_override; else the selector's pick (cfg.adaptive_launch
/// and a selector given), kept only when dev's cost model prices it
/// strictly below the static launch; else the ParTI-style static
/// launch. Shared memory is sized for `rank` when cfg.use_shared_mem.
/// Adds the selector's inference time to `*selection_seconds`.
gpusim::LaunchConfig choose_launch(const gpusim::SimDevice& dev,
                                   const TensorFeatures& feat, index_t rank,
                                   const ExecConfig& cfg,
                                   const LaunchSelector* selector = nullptr,
                                   double* selection_seconds = nullptr);

/// Predicted time of one pipelined segment on `dev`: the slower of its
/// kernel under `launch` and its H2D copy of `bytes` (the pipeline
/// overlaps the two).
sim_ns predict_segment_ns(const gpusim::SimDevice& dev,
                          const gpusim::LaunchConfig& launch,
                          const TensorFeatures& feat, index_t rank,
                          bool use_shared_mem, std::size_t bytes);

struct PipelineResult {
  DenseMatrix output;
  gpusim::TimelineBreakdown breakdown;
  sim_ns total_ns = 0;

  SegmentPlan plan;
  std::vector<gpusim::LaunchConfig> launches;  // one per segment
  /// Host time spent in the selector: the plan's cost under
  /// run_pipeline, 0 for a replay of a prebuilt plan.
  double selection_seconds = 0.0;
  nnz_t cpu_nnz = 0;               // hybrid share
  sim_ns cpu_task_ns = 0;

  /// Uniform driver record (scalfrag/run_info.hpp). The executor fills
  /// backend/timing; the free run_pipeline driver also snapshots the
  /// metrics sink (plan replays skip the snapshot — they run per
  /// iteration and the sink is shared).
  RunInfo info;
};

/// The auto-segmentation rule (ExecConfig::num_segments == 0): pick the
/// k ∈ [1, 8] minimizing the predicted pipelined makespan of `t`, whose
/// features are `whole`, on one device.
int auto_segment_count(const gpusim::SimDevice& dev, const CooSpan& t,
                       order_t mode, index_t rank, const ExecConfig& cfg,
                       const TensorFeatures& whole);

class PipelineExecutor {
 public:
  explicit PipelineExecutor(gpusim::SimDevice& dev) : dev_(&dev) {}

  /// Replay `plan` on `t`, the mode-sorted view it was built from (a
  /// CooTensor converts implicitly; ModeViews::view(mode) plugs in
  /// zero-copy). Throws when the plan's launches, nnz or rank do not
  /// match the view and factors. The device timeline is reset at entry.
  /// ExecConfig::num_devices must be 1 here — sharded plans replay
  /// through run_shard_plan (multi_pipeline.hpp).
  PipelineResult run(const PipelinePlan& plan, const CooSpan& t,
                     const FactorList& factors, const ExecConfig& cfg = {});

 private:
  gpusim::StreamId stream(int i);

  gpusim::SimDevice* dev_;
  std::vector<gpusim::StreamId> pool_;
};

/// Canonical free-function driver: build the plan for one pipelined
/// mode-`mode` MTTKRP on `dev` under `cfg`, then replay it (trains
/// nothing — pass a selector for adaptive launching).
PipelineResult run_pipeline(gpusim::SimDevice& dev, const CooSpan& t,
                            const FactorList& factors, order_t mode,
                            const ExecConfig& cfg = {},
                            const LaunchSelector* selector = nullptr);

}  // namespace scalfrag
