#include "scalfrag/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "gpusim/sim_metrics.hpp"
#include "parti/parti_kernel.hpp"

namespace scalfrag {

int auto_segment_count(const gpusim::SimDevice& dev, const CooSpan& t,
                       order_t mode, index_t rank, const ExecConfig& cfg,
                       const TensorFeatures* whole) {
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
  TensorFeatures scratch;
  if (whole == nullptr) {
    scratch = TensorFeatures::extract(t, mode);  // the O(nnz) rescan
    whole = &scratch;
  }
  gpusim::LaunchConfig probe = parti::default_launch(spec, t.nnz());
  if (cfg.use_shared_mem) {
    probe.shmem_per_block = kernel_shmem_bytes(probe.block, rank);
  }
  const double kernel_work = static_cast<double>(dev.cost_model().kernel_ns(
      probe, mttkrp_profile(*whole, rank, cfg.use_shared_mem)));

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

gpusim::StreamId PipelineExecutor::stream(int i) {
  while (static_cast<int>(pool_.size()) <= i) {
    pool_.push_back(dev_->create_stream());
  }
  return pool_[i];
}

PipelinePlan make_pipeline_plan(const gpusim::SimDevice& dev,
                                const CooSpan& t, order_t mode,
                                index_t rank, const ExecConfig& cfg,
                                const LaunchSelector* selector) {
  SF_CHECK(rank > 0, "rank must be positive");
  SF_CHECK(t.is_sorted_by_mode(mode), "pipeline requires mode-sorted input");
  // Sortedness is established once; the hinted copy makes every
  // downstream check (segmenter, features, partitioner) O(1).
  CooSpan view = t;
  view.assume_sorted_by(mode);
  cfg.validate();
  SF_CHECK(cfg.num_devices == 1,
           "pipeline plans are single-device; use MultiPipelineExecutor "
           "for ExecConfig::devices > 1");

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
      const TensorFeatures whole = TensorFeatures::extract(gpu_view, mode);
      want_segments =
          auto_segment_count(dev, gpu_view, mode, rank, cfg, &whole);
    }
    plan.segments = make_segments(gpu_view, mode, want_segments,
                                  /*align_to_slices=*/true,
                                  /*with_features=*/true);
  }

  // --- launch selection -------------------------------------------------
  plan.launches.reserve(plan.segments.size());
  for (std::size_t i = 0; i < plan.segments.size(); ++i) {
    const Segment& seg = plan.segments.segments[i];
    gpusim::LaunchConfig launch;
    if (seg.nnz() == 0) {
      plan.launches.push_back(launch);
      continue;
    }
    if (cfg.launch_override) {
      launch = *cfg.launch_override;
    } else if (cfg.adaptive_launch && selector != nullptr) {
      const Selection sel = selector->select(plan.segments.features[i]);
      launch = sel.config;
      plan.selection_seconds += sel.inference_seconds;
    } else {
      launch = parti::default_launch(dev.spec(), seg.nnz());
    }
    if (cfg.use_shared_mem) {
      launch.shmem_per_block = kernel_shmem_bytes(launch.block, rank);
    }
    plan.launches.push_back(launch);
  }
  if (met != nullptr) {
    met->count("pipeline/segments_requested",
               static_cast<std::uint64_t>(want_segments));
    met->set("pipeline/selection_seconds", plan.selection_seconds);
  }
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
           "PipelineExecutor is single-device; use MultiPipelineExecutor "
           "for ExecConfig::devices > 1");
  SF_CHECK(opt.backend_name == "coo",
           "ExecConfig names backend \"" + opt.backend_name +
               "\" but was routed to the COO pipeline — dispatch through "
               "run_mttkrp_backend (scalfrag/backend_registry.hpp)");
  // A plan is only valid for the view it was built from: one launch per
  // realized segment, segments covering the GPU share, shares covering
  // the view.
  const nnz_t planned_gpu =
      plan.segments.size() == 0 ? 0 : plan.segments.segments.back().end;
  SF_CHECK(rank == plan.rank &&
               plan.launches.size() == plan.segments.size() &&
               planned_gpu == plan.partition.gpu_nnz &&
               plan.partition.gpu_nnz + plan.partition.cpu_nnz == view.nnz(),
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
