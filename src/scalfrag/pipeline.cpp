#include "scalfrag/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "gpusim/sim_metrics.hpp"
#include "gpusim/transfer.hpp"
#include "parti/parti_kernel.hpp"

namespace scalfrag {

namespace {

/// `lc` with shared memory sized for `rank` when `use_shared_mem`.
gpusim::LaunchConfig sized(gpusim::LaunchConfig lc, index_t rank,
                           bool use_shared_mem) {
  if (use_shared_mem) lc.shmem_per_block = kernel_shmem_bytes(lc.block, rank);
  return lc;
}

/// The ParTI-style static launch for `nnz` entries on `spec`.
gpusim::LaunchConfig static_launch(const gpusim::DeviceSpec& spec, nnz_t nnz,
                                   index_t rank, bool use_shared_mem) {
  return sized(parti::default_launch(spec, nnz), rank, use_shared_mem);
}

}  // namespace

int auto_segment_count(const gpusim::SimDevice& dev, const CooSpan& t,
                       order_t mode, index_t rank, const ExecConfig& cfg,
                       const TensorFeatures& whole) {
  if (t.nnz() == 0) return 1;
  // Pick the k ∈ [1, 8] minimizing the predicted makespan of a k-deep
  // pipeline. Splitting pays (k−1) extra PCIe setups and extra kernel
  // launches but lets all-but-the-first segment's copies hide behind
  // compute (and vice versa):
  //   makespan(k) ≈ first-copy + max(remaining copies, total kernels)
  // Kernel time is estimated with the whole-tensor profile under the
  // static launch — a heuristic, so exactness doesn't matter, only the
  // crossover between copy-bound and overhead-bound regimes.
  const auto& spec = dev.spec();
  const double latency = spec.pcie_latency_us * 1e3;
  const double launch = spec.kernel_launch_us * 1e3;
  const double wire =
      static_cast<double>(t.bytes()) / spec.pcie_bandwidth_gbps;
  const gpusim::LaunchConfig probe =
      static_launch(spec, t.nnz(), rank, cfg.use_shared_mem);
  const double kernel_work = static_cast<double>(dev.cost_model().kernel_ns(
      probe, mttkrp_profile(whole, rank, cfg.use_shared_mem)));

  int best_k = 1;
  double best = std::numeric_limits<double>::infinity();
  for (int k = 1; k <= 8; ++k) {
    const double seg_copy = latency + wire / k;
    const double copies_rest = (k - 1) * seg_copy;
    const double kernels = kernel_work + (k - 1) * launch;
    const double makespan = seg_copy + std::max(copies_rest, kernels);
    if (makespan < best) {
      best = makespan;
      best_k = k;
    }
  }
  return best_k;
}

gpusim::LaunchConfig choose_launch(const gpusim::SimDevice& dev,
                                   const TensorFeatures& feat, index_t rank,
                                   const ExecConfig& cfg,
                                   const LaunchSelector* selector,
                                   double* selection_seconds) {
  if (cfg.launch_override) {
    return sized(*cfg.launch_override, rank, cfg.use_shared_mem);
  }
  const gpusim::LaunchConfig launch =
      static_launch(dev.spec(), feat.nnz, rank, cfg.use_shared_mem);
  if (!cfg.adaptive_launch || selector == nullptr) return launch;
  // Tree extrapolation can misfire badly on segment shapes the corpus
  // lacks: never choose a launch the cost model prices slower.
  const Selection sel = selector->select(feat);
  if (selection_seconds != nullptr) {
    *selection_seconds += sel.inference_seconds;
  }
  const gpusim::LaunchConfig cand = sized(sel.config, rank, cfg.use_shared_mem);
  const gpusim::KernelProfile prof =
      mttkrp_profile(feat, rank, cfg.use_shared_mem);
  const auto& cm = dev.cost_model();
  return cm.kernel_ns(cand, prof) < cm.kernel_ns(launch, prof) ? cand
                                                                : launch;
}

sim_ns predict_segment_ns(const gpusim::SimDevice& dev,
                          const gpusim::LaunchConfig& launch,
                          const TensorFeatures& feat, index_t rank,
                          bool use_shared_mem, std::size_t bytes) {
  const sim_ns kern = dev.cost_model().kernel_ns(
      launch, mttkrp_profile(feat, rank, use_shared_mem));
  return std::max(kern, gpusim::transfer_ns(dev.spec(), bytes));
}

bool PipelinePlan::fits(nnz_t nnz, index_t r) const noexcept {
  const nnz_t planned_gpu = size() == 0 ? 0 : segments.segments.back().end;
  return r == rank && launches.size() == size() &&
         planned_gpu == partition.gpu_nnz &&
         partition.gpu_nnz + partition.cpu_nnz == nnz;
}

gpusim::StreamId PipelineExecutor::stream(int i) {
  while (static_cast<int>(pool_.size()) <= i) {
    pool_.push_back(dev_->create_stream());
  }
  return pool_[i];
}

PipelinePlan plan_segments(const gpusim::SimDevice& dev, const CooSpan& t,
                           order_t mode, index_t rank, const ExecConfig& cfg,
                           std::optional<TensorFeatures>* whole) {
  SF_CHECK(rank > 0, "rank must be positive");
  SF_CHECK(t.is_sorted_by_mode(mode), "pipeline requires mode-sorted input");
  // Sortedness is established once; the hinted copy makes every
  // downstream check (segmenter, features, partitioner) O(1).
  CooSpan view = t;
  view.assume_sorted_by(mode);
  cfg.validate();

  obs::MetricsRegistry* const met = cfg.metrics_sink;
  PipelinePlan plan;
  plan.rank = rank;
  plan.use_shared_mem = cfg.use_shared_mem;

  // --- hybrid partition (optional) -----------------------------------
  CooSpan gpu_view = view;
  if (cfg.hybrid_cpu_threshold > 0) {
    std::optional<obs::MetricsRegistry::ScopedSpan> span;
    if (met != nullptr) span.emplace(*met, "host/partition");
    plan.partition =
        partition_for_hybrid(view, mode, cfg.hybrid_cpu_threshold);
    gpu_view = plan.partition.gpu_view(view);
    if (met != nullptr) {
      met->count("pipeline/cpu_slices", plan.partition.cpu_slices);
      met->count("pipeline/gpu_slices", plan.partition.gpu_slices);
    }
  } else {
    plan.partition.gpu_whole = true;
    plan.partition.gpu_nnz = view.nnz();
  }

  // --- segmentation ---------------------------------------------------
  // Features ride along with the cuts (one fused pass); the whole-tensor
  // profile for the auto rule is only extracted when actually needed.
  int want_segments = cfg.num_segments;
  {
    std::optional<obs::MetricsRegistry::ScopedSpan> span;
    if (met != nullptr) span.emplace(*met, "host/segmentation");
    if (want_segments == 0) {
      std::optional<TensorFeatures> local;
      std::optional<TensorFeatures>& feat = whole != nullptr ? *whole : local;
      feat.emplace(TensorFeatures::extract(gpu_view, mode));
      want_segments =
          auto_segment_count(dev, gpu_view, mode, rank, cfg, *feat) *
          cfg.num_devices;
    }
    want_segments = std::max(want_segments, cfg.num_devices);
    plan.segments = make_segments(gpu_view, mode, want_segments,
                                  /*align_to_slices=*/true,
                                  /*with_features=*/true);
  }
  if (met != nullptr) {
    met->count("pipeline/segments_requested",
               static_cast<std::uint64_t>(want_segments));
  }
  return plan;
}

void plan_launches(PipelinePlan& plan,
                   const std::vector<const gpusim::SimDevice*>& owner,
                   const ExecConfig& cfg, const LaunchSelector* selector) {
  SF_CHECK(owner.size() == plan.size(), "one owner device per segment");
  plan.launches.assign(plan.size(), gpusim::LaunchConfig{});
  plan.selection_seconds = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan.segments.segments[i].nnz() == 0) continue;
    plan.launches[i] =
        choose_launch(*owner[i], plan.segments.features[i], plan.rank, cfg,
                      selector, &plan.selection_seconds);
  }
  if (cfg.metrics_sink != nullptr) {
    cfg.metrics_sink->set("pipeline/selection_seconds",
                          plan.selection_seconds);
  }
}

PipelinePlan make_pipeline_plan(const gpusim::SimDevice& dev,
                                const CooSpan& t, order_t mode,
                                index_t rank, const ExecConfig& cfg,
                                const LaunchSelector* selector) {
  SF_CHECK(cfg.num_devices == 1,
           "pipeline plans are single-device; use make_shard_plan for "
           "ExecConfig::devices > 1");
  PipelinePlan plan = plan_segments(dev, t, mode, rank, cfg);
  plan_launches(plan, std::vector<const gpusim::SimDevice*>(plan.size(), &dev),
                cfg, selector);
  return plan;
}

PipelineResult PipelineExecutor::run(const PipelinePlan& plan,
                                     const CooSpan& t,
                                     const FactorList& factors,
                                     const ExecConfig& opt) {
  const order_t mode = plan.mode();
  const index_t rank = check_factors(t, factors);
  SF_CHECK(t.is_sorted_by_mode(mode), "pipeline requires mode-sorted input");
  CooSpan view = t;
  view.assume_sorted_by(mode);
  opt.validate();
  SF_CHECK(opt.num_devices == 1,
           "PipelineExecutor is single-device; use run_shard_plan for "
           "ExecConfig::devices > 1");
  SF_CHECK(opt.backend_name == "coo",
           "ExecConfig names backend \"" + opt.backend_name +
               "\" but was routed to the COO pipeline — dispatch through "
               "run_mttkrp_backend (scalfrag/backend_registry.hpp)");
  SF_CHECK(plan.fits(view.nnz(), rank),
           "pipeline plan does not match this replay: it needs one launch "
           "per realized segment and the view and rank it was built for");
  const CooSpan gpu_view = plan.partition.gpu_view(view);
  const auto n_seg = static_cast<int>(plan.segments.size());

  PipelineResult res;
  res.output = DenseMatrix(t.dim(mode), rank);
  res.plan = plan.segments;
  res.launches = plan.launches;
  res.cpu_nnz = plan.partition.cpu_nnz;

  obs::MetricsRegistry* const met = opt.metrics_sink;
  // The host engine inherits the pipeline's sink unless the caller
  // already pointed it somewhere else.
  const HostExecParams host_exec = opt.host_for_run();
  if (met != nullptr) {
    met->count("pipeline/runs");
    met->count("pipeline/segments_realized",
               static_cast<std::uint64_t>(n_seg));
    if (plan.partition.threshold > 0) {
      met->count("pipeline/cpu_nnz", res.cpu_nnz);
    }
    met->count("pipeline/gpu_nnz", gpu_view.nnz());
  }

  dev_->reset_timeline();

  // --- device allocations ---------------------------------------------
  // Per-stream segment staging (the memory-frugality win of blocking:
  // only min(streams, segments) segments are resident at once), plus
  // persistent factors + output.
  std::size_t factor_bytes = 0;
  for (const auto& f : factors) factor_bytes += f.bytes();
  gpusim::DeviceBuffer<char> d_factors(dev_->allocator(), factor_bytes);
  gpusim::DeviceBuffer<char> d_out(
      dev_->allocator(),
      static_cast<std::size_t>(t.dim(mode)) * rank * sizeof(value_t));
  const int resident = std::min(opt.num_streams, std::max(n_seg, 1));
  const nnz_t max_seg = res.plan.max_nnz();
  const std::size_t seg_bytes_cap =
      max_seg * (t.order() * sizeof(index_t) + sizeof(value_t));
  std::vector<gpusim::DeviceBuffer<char>> d_segs;
  d_segs.reserve(resident);
  for (int i = 0; i < resident; ++i) {
    d_segs.emplace_back(dev_->allocator(), seg_bytes_cap);
  }

  // --- factors upload (all streams depend on it) ----------------------
  const gpusim::StreamId s0 = stream(0);
  dev_->memcpy_h2d(s0, factor_bytes, nullptr, "H2D factors");
  const gpusim::EventId ev_factors = dev_->record_event(s0);
  for (int i = 1; i < opt.num_streams; ++i) {
    dev_->wait_event(stream(i), ev_factors);
  }

  // --- hybrid CPU task (concurrent with the GPU pipeline) -------------
  if (res.cpu_nnz > 0) {
    res.cpu_task_ns =
        cpu_mttkrp_ns(opt.cpu_spec, res.cpu_nnz, t.order(), rank);
    // Host engine is independent of the GPU engines; use a dedicated
    // stream so it never serializes behind GPU ops in stream order.
    // The CPU share is never materialized: it runs as zero-copy slice
    // ranges viewed in the sorted parent.
    const gpusim::StreamId host_s = stream(opt.num_streams);
    dev_->host_task(
        host_s, res.cpu_task_ns,
        [&] {
          cpu_mttkrp_exec(view, plan.partition.cpu_ranges, factors, mode,
                          res.output, host_exec);
        },
        "CPU hybrid MTTKRP");
  }

  // --- segment pipeline ------------------------------------------------
  for (int i = 0; i < n_seg; ++i) {
    const Segment& seg = plan.segments.segments[i];
    if (seg.nnz() == 0) continue;
    const gpusim::StreamId s = stream(i % opt.num_streams);
    // Zero-copy: the segment is a view into the parent's arrays (or,
    // under hybrid, a window of the GPU gather view), not an extracted
    // tensor. The parent outlives every use below.
    const CooSpan segment = gpu_view.subspan(seg.begin, seg.end);
    dev_->memcpy_h2d(s, segment.bytes(), nullptr,
                     "H2D segment " + std::to_string(i));

    const TensorFeatures& feat = plan.segments.features[i];
    const gpusim::KernelProfile prof =
        mttkrp_profile(feat, rank, plan.use_shared_mem);
    // Hand the fused segment features to the host engine so strategy
    // selection is O(1) instead of re-probing the index array.
    HostExecParams kexec = host_exec;
    kexec.features = &feat;
    // SimDevice runs functional bodies eagerly inside launch_kernel, so
    // capturing the loop-locals by reference is safe.
    dev_->launch_kernel(
        s, plan.launches[i], prof,
        [&] { mttkrp_exec(segment, factors, mode, res.output, kexec); },
        "ScalFrag kernel seg " + std::to_string(i));
  }

  // --- gather results ---------------------------------------------------
  for (int i = 1; i < opt.num_streams; ++i) {
    dev_->wait_event(s0, dev_->record_event(stream(i)));
  }
  if (res.cpu_nnz > 0) {
    dev_->wait_event(s0, dev_->record_event(stream(opt.num_streams)));
  }
  dev_->memcpy_d2h(s0, d_out.bytes(), nullptr, "D2H output");

  res.total_ns = dev_->synchronize();
  res.breakdown = dev_->breakdown();
  if (met != nullptr) gpusim::record_timeline(*dev_, *met, "gpu");
  res.info.backend = "coo";
  res.info.sim_total_ns = res.total_ns;
  return res;
}

PipelineResult run_pipeline(gpusim::SimDevice& dev, const CooSpan& t,
                            const FactorList& factors, order_t mode,
                            const ExecConfig& cfg,
                            const LaunchSelector* selector) {
  const index_t rank = check_factors(t, factors);
  const PipelinePlan plan =
      make_pipeline_plan(dev, t, mode, rank, cfg, selector);
  PipelineExecutor exec(dev);
  PipelineResult res = exec.run(plan, t, factors, cfg);
  res.selection_seconds = plan.selection_seconds;
  res.info.prepare_seconds = plan.selection_seconds;
  if (cfg.metrics_sink != nullptr) {
    res.info.metrics = cfg.metrics_sink->snapshot();
  }
  return res;
}

}  // namespace scalfrag
