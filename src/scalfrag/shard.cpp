#include "scalfrag/shard.hpp"

#include <algorithm>
#include <optional>

#include "gpusim/transfer.hpp"
#include "parti/parti_kernel.hpp"
#include "scalfrag/kernel.hpp"
#include "scalfrag/pipeline.hpp"

namespace scalfrag {

nnz_t ShardPlan::max_shard_nnz() const noexcept {
  nnz_t m = 0;
  for (const auto& s : shards) m = std::max(m, s.nnz);
  return m;
}

sim_ns ShardPlan::max_shard_pred_ns() const noexcept {
  sim_ns m = 0;
  for (const auto& s : shards) m = std::max(m, s.predicted_ns);
  return m;
}

double ShardPlan::pred_time_imbalance() const noexcept {
  if (shards.empty()) return 1.0;
  sim_ns max = 0;
  sim_ns sum = 0;
  for (const auto& s : shards) {
    max = std::max(max, s.predicted_ns);
    sum += s.predicted_ns;
  }
  if (sum == 0) return 1.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(shards.size());
  return static_cast<double>(max) / mean;
}

ShardPlan make_shard_plan(const gpusim::DeviceGroup& group,
                          const CooSpan& t, order_t mode, index_t rank,
                          const ExecConfig& cfg,
                          const LaunchSelector* selector) {
  SF_CHECK(t.is_sorted_by_mode(mode), "shard planner needs sorted input");
  CooSpan view = t;
  view.assume_sorted_by(mode);
  const int n_dev = group.size();

  ShardPlan sp;
  sp.mode = mode;
  sp.shards.resize(static_cast<std::size_t>(n_dev));
  for (int d = 0; d < n_dev; ++d) sp.shards[d].device = d;
  if (t.nnz() == 0) return sp;

  // --- global segmentation ---------------------------------------------
  // Auto rule: each device should run a pipeline as deep as the
  // single-device rule would pick, so the global count scales with the
  // group size. Always ask for at least one segment per device; slice
  // snapping may still realize fewer (then trailing shards stay empty).
  std::optional<TensorFeatures> whole;
  int want = cfg.num_segments;
  if (want == 0) {
    whole.emplace(TensorFeatures::extract(view, mode));
    want = auto_segment_count(group.device(0), view, mode, rank, cfg,
                              &*whole) *
           n_dev;
  }
  want = std::max(want, n_dev);
  sp.plan = make_segments(view, mode, want, /*align_to_slices=*/true,
                          /*with_features=*/true);
  const auto n_seg = static_cast<int>(sp.plan.size());
  const nnz_t total = t.nnz();

  // --- per-device throughput weights -----------------------------------
  // Heterogeneous groups: weight each device by the cost model's
  // predicted time for the whole tensor on that device (max of kernel
  // and H2D — the pipelined bottleneck), so shard cuts target equal
  // *time* rather than equal nnz. Uniform groups (or weighted_sharding
  // off) keep unit weights and reproduce the PR 4 integer-ideal cuts
  // exactly.
  std::vector<double> unit_cost(static_cast<std::size_t>(n_dev), 1.0);
  bool uniform_cost = true;
  if (cfg.weighted_sharding && !group.uniform()) {
    if (!whole) whole.emplace(TensorFeatures::extract(view, mode));
    const gpusim::KernelProfile prof =
        mttkrp_profile(*whole, rank, cfg.use_shared_mem);
    for (int d = 0; d < n_dev; ++d) {
      const gpusim::DeviceSpec& spec = group.spec(d);
      gpusim::LaunchConfig lc = cfg.launch_override
                                    ? *cfg.launch_override
                                    : parti::default_launch(spec, total);
      if (cfg.use_shared_mem) {
        lc.shmem_per_block = kernel_shmem_bytes(lc.block, rank);
      }
      const double kern = static_cast<double>(
          group.device(d).cost_model().kernel_ns(lc, prof));
      const double copy =
          static_cast<double>(gpusim::transfer_ns(spec, view.bytes()));
      unit_cost[static_cast<std::size_t>(d)] = std::max(kern, copy);
    }
    for (int d = 1; d < n_dev; ++d) {
      if (unit_cost[static_cast<std::size_t>(d)] != unit_cost[0]) {
        uniform_cost = false;
        break;
      }
    }
  }
  sp.weighted = !uniform_cost;

  // Cumulative nnz boundary after device d. Uniform: PR 4's exact
  // integer formula (cast to double — nnz counts are far below 2^53,
  // so the nearest-cut comparisons below are bit-equal to the integer
  // ones). Weighted: proportional to cumulative throughput 1/cost.
  std::vector<double> ideal_cum(static_cast<std::size_t>(n_dev));
  if (uniform_cost) {
    for (int d = 0; d < n_dev; ++d) {
      ideal_cum[static_cast<std::size_t>(d)] = static_cast<double>(
          total / n_dev * (d + 1) + total % n_dev * (d + 1) / n_dev);
    }
  } else {
    double wsum = 0.0;
    for (int d = 0; d < n_dev; ++d) {
      wsum += 1.0 / unit_cost[static_cast<std::size_t>(d)];
    }
    double wpre = 0.0;
    for (int d = 0; d < n_dev; ++d) {
      wpre += 1.0 / unit_cost[static_cast<std::size_t>(d)];
      ideal_cum[static_cast<std::size_t>(d)] =
          static_cast<double>(total) * (wpre / wsum);
    }
  }

  // --- contiguous balanced partition -----------------------------------
  // Greedy prefix cuts against the ideal cumulative boundary. Contiguity
  // keeps each shard a single [begin, end) view of the sorted parent
  // (one H2D range per device) and keeps slice ownership mostly within
  // one device, so the reduction carries little true sharing.
  int seg = 0;
  nnz_t done = 0;
  for (int d = 0; d < n_dev; ++d) {
    DeviceShard& sh = sp.shards[static_cast<std::size_t>(d)];
    sh.weight = unit_cost[0] / unit_cost[static_cast<std::size_t>(d)];
    sh.seg_begin = seg;
    // Segments remaining must at least cover devices remaining.
    const int max_take = n_seg - seg - (n_dev - 1 - d);
    const double ideal = ideal_cum[static_cast<std::size_t>(d)];
    nnz_t acc = done;
    int take = 0;
    while (take < max_take) {
      const nnz_t next = acc + sp.plan.segments[seg + take].nnz();
      // Stop before the segment that overshoots the boundary harder
      // than staying short undershoots it (classic nearest-cut rule),
      // but always take at least one segment while any remain.
      if (take > 0) {
        if (static_cast<double>(acc) >= ideal) break;
        if (static_cast<double>(next) > ideal &&
            static_cast<double>(next) - ideal >
                ideal - static_cast<double>(acc)) {
          break;
        }
      }
      acc = next;
      ++take;
    }
    seg += take;
    sh.seg_end = seg;
    sh.nnz = acc - done;
    done = acc;
    if (!sh.empty()) {
      sh.begin = sp.plan.segments[sh.seg_begin].begin;
      sh.end = sp.plan.segments[sh.seg_end - 1].end;
    }
  }
  // Trailing segments (nearest-cut can leave a remainder) go to the
  // last device so every segment is owned exactly once.
  if (seg < n_seg) {
    DeviceShard& last = sp.shards.back();
    if (last.empty()) last.seg_begin = seg;
    last.seg_end = n_seg;
    last.begin = sp.plan.segments[last.seg_begin].begin;
    last.end = sp.plan.segments[last.seg_end - 1].end;
    last.nnz = last.end - last.begin;
  }

  // --- per-shard launch prediction -------------------------------------
  // Same precedence as the single-device executor: explicit override,
  // then the DecisionTree selector over fused segment features, then
  // the ParTI-style static heuristic. Sharding realizes much smaller
  // segments than the selector's training corpus, where tree
  // extrapolation can misfire badly — so the selector's pick is
  // sanity-checked against the device cost model and dropped for the
  // static launch when the model says it is slower.
  for (auto& sh : sp.shards) {
    sh.launches.reserve(static_cast<std::size_t>(sh.num_segments()));
    sh.seg_pred_ns.reserve(static_cast<std::size_t>(sh.num_segments()));
    const auto& dev = group.device(sh.device);
    for (int i = sh.seg_begin; i < sh.seg_end; ++i) {
      const Segment& s = sp.plan.segments[static_cast<std::size_t>(i)];
      const TensorFeatures& feat = sp.plan.features[static_cast<std::size_t>(i)];
      if (s.nnz() == 0) {
        sh.launches.push_back({});
        sh.seg_pred_ns.push_back(0);
        continue;
      }
      gpusim::LaunchConfig launch;
      if (cfg.launch_override) {
        launch = *cfg.launch_override;
        if (cfg.use_shared_mem) {
          launch.shmem_per_block = kernel_shmem_bytes(launch.block, rank);
        }
      } else {
        launch = parti::default_launch(dev.spec(), s.nnz());
        if (cfg.use_shared_mem) {
          launch.shmem_per_block = kernel_shmem_bytes(launch.block, rank);
        }
        if (cfg.adaptive_launch && selector != nullptr) {
          const Selection sel = selector->select(feat);
          sh.selection_seconds += sel.inference_seconds;
          gpusim::LaunchConfig cand = sel.config;
          if (cfg.use_shared_mem) {
            cand.shmem_per_block = kernel_shmem_bytes(cand.block, rank);
          }
          const gpusim::KernelProfile prof =
              mttkrp_profile(feat, rank, cfg.use_shared_mem);
          const auto& cm = dev.cost_model();
          if (cm.kernel_ns(cand, prof) < cm.kernel_ns(launch, prof)) {
            launch = cand;
          }
        }
      }
      sh.launches.push_back(launch);
      // Predicted per-segment time on the owner: the slower of the
      // kernel and its H2D copy (the pipeline overlaps them). Feeds
      // the imbalance gauge and the work-stealing victim rule.
      const gpusim::KernelProfile prof =
          mttkrp_profile(feat, rank, cfg.use_shared_mem);
      const sim_ns kern = dev.cost_model().kernel_ns(launch, prof);
      const sim_ns copy = gpusim::transfer_ns(
          dev.spec(), view.subspan(s.begin, s.end).bytes());
      const sim_ns pred = std::max(kern, copy);
      sh.seg_pred_ns.push_back(pred);
      sh.predicted_ns += pred;
    }
  }
  return sp;
}

}  // namespace scalfrag
