#include "scalfrag/shard.hpp"

#include <algorithm>
#include <optional>

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
  const int n_dev = group.size();
  SF_CHECK(cfg.num_devices == n_dev && cfg.hybrid_cpu_threshold == 0,
           "a shard plan needs ExecConfig::devices equal to the DeviceGroup "
           "size and no hybrid CPU split (single-device only)");
  std::optional<obs::MetricsRegistry::ScopedSpan> span;
  if (cfg.metrics_sink != nullptr) {
    span.emplace(*cfg.metrics_sink, "host/shard_planning");
  }

  // --- global segmentation ---------------------------------------------
  // The single-device stage: the auto rule scales with the group size,
  // so each device runs a pipeline as deep as one device would pick.
  ShardPlan sp;
  std::optional<TensorFeatures> whole;
  sp.plan = plan_segments(group.device(0), t, mode, rank, cfg, &whole);
  CooSpan view = t;
  view.assume_sorted_by(mode);  // plan_segments checked it
  const std::vector<Segment>& segs = sp.plan.segments.segments;
  const auto n_seg = static_cast<int>(segs.size());
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
    for (int d = 0; d < n_dev; ++d) {
      const gpusim::SimDevice& dev = group.device(d);
      unit_cost[static_cast<std::size_t>(d)] =
          static_cast<double>(predict_segment_ns(
              dev, choose_launch(dev, *whole, rank, cfg), *whole, rank,
              cfg.use_shared_mem, view.bytes()));
    }
    uniform_cost = std::all_of(unit_cost.begin(), unit_cost.end(),
                               [&](double c) { return c == unit_cost[0]; });
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
  sp.shards.resize(static_cast<std::size_t>(n_dev));
  int seg = 0;
  nnz_t done = 0;
  for (int d = 0; d < n_dev; ++d) {
    DeviceShard& sh = sp.shards[static_cast<std::size_t>(d)];
    sh.device = d;
    sh.weight = unit_cost[0] / unit_cost[static_cast<std::size_t>(d)];
    sh.seg_begin = seg;
    // Segments remaining must at least cover devices remaining.
    const int max_take = n_seg - seg - (n_dev - 1 - d);
    const double ideal = ideal_cum[static_cast<std::size_t>(d)];
    nnz_t acc = done;
    int take = 0;
    while (take < max_take) {
      const nnz_t next = acc + segs[seg + take].nnz();
      // Stop before the segment that overshoots the boundary harder
      // than staying short undershoots it (classic nearest-cut rule),
      // but always take at least one segment while any remain. The
      // last device takes the remainder, so every segment is owned
      // exactly once.
      if (take > 0 && d + 1 < n_dev) {
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
      sh.begin = segs[sh.seg_begin].begin;
      sh.end = segs[sh.seg_end - 1].end;
    }
  }

  // --- launches, each for its owner's spec -----------------------------
  std::vector<const gpusim::SimDevice*> owner(segs.size());
  for (const auto& sh : sp.shards) {
    for (int i = sh.seg_begin; i < sh.seg_end; ++i) {
      owner[static_cast<std::size_t>(i)] = &group.device(sh.device);
    }
  }
  plan_launches(sp.plan, owner, cfg, selector);

  // Predicted per-segment time on the owner; feeds the imbalance gauge
  // and the work-stealing victim rule.
  for (auto& sh : sp.shards) {
    sh.seg_pred_ns.reserve(static_cast<std::size_t>(sh.num_segments()));
    for (int i = sh.seg_begin; i < sh.seg_end; ++i) {
      const auto si = static_cast<std::size_t>(i);
      const Segment& s = segs[si];
      const sim_ns pred =
          s.nnz() == 0
              ? 0
              : predict_segment_ns(*owner[si], sp.plan.launches[si],
                                   sp.plan.segments.features[si], rank,
                                   cfg.use_shared_mem,
                                   view.subspan(s.begin, s.end).bytes());
      sh.seg_pred_ns.push_back(pred);
      sh.predicted_ns += pred;
    }
  }
  return sp;
}

}  // namespace scalfrag
