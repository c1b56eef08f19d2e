// Multi-device sharded pipeline tests: the DeviceGroup link cost model,
// the contiguous nnz-balanced shard planner, the sharded replay's
// functional + simulated semantics (deterministic reduction, makespan
// accounting, boundary-overlap reduce payload, metrics report), and the
// device-group CPD that plans once per mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "gpusim/device_group.hpp"
#include "scalfrag/cpd.hpp"
#include "scalfrag/multi_pipeline.hpp"
#include "scalfrag/pipeline.hpp"
#include "scalfrag/shard.hpp"
#include "tensor/generator.hpp"
#include "tensor/mttkrp_ref.hpp"

namespace scalfrag {
namespace {

const gpusim::DeviceSpec kSpec = gpusim::DeviceSpec::rtx3090();

FactorList random_factors(const CooTensor& t, index_t rank,
                          std::uint64_t seed) {
  Rng rng(seed);
  FactorList f;
  for (order_t m = 0; m < t.order(); ++m) {
    DenseMatrix a(t.dim(m), rank);
    a.randomize(rng);
    f.push_back(std::move(a));
  }
  return f;
}

CooTensor sorted_frostt(const char* name, double scale, std::uint64_t seed,
                        order_t mode = 0) {
  CooTensor t = make_frostt_tensor(name, scale, seed);
  t.sort_by_mode(mode);
  return t;
}

/// One slice holding every non-zero: any multi-segment cut must land
/// mid-slice, so sharding it across devices forces a boundary overlap.
CooTensor mega_slice_tensor(nnz_t nnz) {
  CooTensor t({2, 64, 64});
  Rng rng(77);
  for (nnz_t e = 0; e < nnz; ++e) {
    t.push({0, static_cast<index_t>(rng.next_u64() % 64),
            static_cast<index_t>(rng.next_u64() % 64)},
           rng.next_float());
  }
  t.sort_by_mode(0);
  return t;
}

// ---------------------------------------------------------------------
// DeviceGroup link cost model
// ---------------------------------------------------------------------

TEST(DeviceGroup, HopCostIsLatencyPlusWire) {
  const gpusim::LinkSpec link = gpusim::LinkSpec::pcie4_p2p();
  gpusim::DeviceGroup g(kSpec, 2, link);
  // latency_us * 1e3 + bytes / bandwidth_gbps (GB/s == bytes/ns).
  EXPECT_EQ(g.hop_ns(0), static_cast<sim_ns>(link.latency_us * 1e3));
  EXPECT_EQ(g.hop_ns(22000),
            static_cast<sim_ns>(link.latency_us * 1e3 +
                                22000.0 / link.bandwidth_gbps));
}

TEST(DeviceGroup, TreeReduceChargesLog2Rounds) {
  const std::size_t bytes = 1 << 20;
  for (const auto& [n, rounds] :
       {std::pair{2, 1}, std::pair{3, 2}, std::pair{4, 2}, std::pair{8, 3}}) {
    gpusim::DeviceGroup g(kSpec, n);
    EXPECT_EQ(g.reduce_ns(bytes, gpusim::ReduceSchedule::Tree),
              static_cast<sim_ns>(rounds) * g.hop_ns(bytes))
        << n << " devices";
  }
}

TEST(DeviceGroup, RingReduceCharges2NMinus1ChunkHops) {
  const std::size_t bytes = 1 << 20;
  for (const int n : {2, 4, 8}) {
    gpusim::DeviceGroup g(kSpec, n);
    const std::size_t chunk =
        (bytes + static_cast<std::size_t>(n) - 1) / static_cast<std::size_t>(n);
    EXPECT_EQ(g.reduce_ns(bytes, gpusim::ReduceSchedule::Ring),
              static_cast<sim_ns>(2 * (n - 1)) * g.hop_ns(chunk))
        << n << " devices";
  }
}

TEST(DeviceGroup, ReduceIsFreeForOneDeviceOrZeroBytes) {
  gpusim::DeviceGroup solo(kSpec, 1);
  EXPECT_EQ(solo.reduce_ns(1 << 20, gpusim::ReduceSchedule::Tree), 0u);
  gpusim::DeviceGroup pair(kSpec, 2);
  EXPECT_EQ(pair.reduce_ns(0, gpusim::ReduceSchedule::Ring), 0u);
}

TEST(DeviceGroup, PicksTreeForSmallRingForLarge) {
  // Tree moves the full buffer log2(n) times; ring moves ~2 buffers
  // total but pays 2(n-1) latencies. Small payloads are latency-bound
  // (tree wins), large ones bandwidth-bound (ring wins).
  gpusim::DeviceGroup g(kSpec, 8);
  EXPECT_EQ(g.pick_schedule(256), gpusim::ReduceSchedule::Tree);
  EXPECT_EQ(g.pick_schedule(64 << 20), gpusim::ReduceSchedule::Ring);
}

TEST(DeviceGroup, ValidatesConstruction) {
  EXPECT_THROW(gpusim::DeviceGroup(kSpec, 0), Error);
  gpusim::LinkSpec bad;
  bad.bandwidth_gbps = 0.0;
  EXPECT_THROW(gpusim::DeviceGroup(kSpec, 2, bad), Error);
  EXPECT_THROW(gpusim::DeviceGroup(std::vector<gpusim::DeviceSpec>{}), Error);
  gpusim::DeviceGroup g(kSpec, 3);
  EXPECT_EQ(g.size(), 3);
  EXPECT_EQ(g.spec().name, kSpec.name);
  EXPECT_TRUE(g.uniform());
}

TEST(DeviceGroup, HeterogeneousSpecsAndPresets) {
  gpusim::DeviceGroup pair(
      {gpusim::DeviceSpec::rtx3090(), gpusim::DeviceSpec::rtx3060()});
  EXPECT_EQ(pair.size(), 2);
  EXPECT_FALSE(pair.uniform());
  EXPECT_EQ(pair.spec(0).name, gpusim::DeviceSpec::rtx3090().name);
  EXPECT_EQ(pair.spec(1).name, gpusim::DeviceSpec::rtx3060().name);
  // The 3060 is the slower part on both axes the planner weighs.
  EXPECT_LT(pair.spec(1).peak_gflops(), pair.spec(0).peak_gflops());
  EXPECT_LT(pair.spec(1).hbm_bandwidth_gbps, pair.spec(0).hbm_bandwidth_gbps);

  gpusim::DeviceGroup mixed = gpusim::DeviceGroup::mixed_3090_3060();
  EXPECT_EQ(mixed.size(), 4);
  EXPECT_FALSE(mixed.uniform());
  EXPECT_EQ(mixed.spec(0).name, gpusim::DeviceSpec::rtx3090().name);
  EXPECT_EQ(mixed.spec(3).name, gpusim::DeviceSpec::rtx3060().name);
}

// ---------------------------------------------------------------------
// Shard planner
// ---------------------------------------------------------------------

TEST(ShardPlan, EverySegmentOwnedExactlyOnceAndContiguously) {
  const CooTensor t = sorted_frostt("nell-2", 1.0 / 1024, 601);
  for (const int n : {1, 2, 3, 4, 8}) {
    gpusim::DeviceGroup g(kSpec, n);
    const ShardPlan sp =
        make_shard_plan(g, t, 0, 16, ExecConfig{}.devices(n));
    ASSERT_EQ(static_cast<int>(sp.shards.size()), n);
    int seg = 0;
    nnz_t nnz = 0;
    for (const auto& sh : sp.shards) {
      EXPECT_EQ(sh.seg_begin, seg);
      EXPECT_LE(sh.seg_begin, sh.seg_end);
      seg = sh.seg_end;
      nnz += sh.nnz;
      EXPECT_EQ(static_cast<int>(sh.seg_pred_ns.size()), sh.num_segments());
      if (!sh.empty()) {
        EXPECT_EQ(sh.nnz, sh.end - sh.begin);
      }
    }
    EXPECT_EQ(seg, static_cast<int>(sp.plan.size()));
    EXPECT_EQ(sp.plan.launches.size(), sp.plan.size());
    EXPECT_EQ(nnz, t.nnz());
  }
}

TEST(ShardPlan, BalancesNnzAcrossDevices) {
  const CooTensor t = sorted_frostt("nell-2", 1.0 / 1024, 602);
  gpusim::DeviceGroup g(kSpec, 4);
  const ShardPlan sp = make_shard_plan(g, t, 0, 16, ExecConfig{}.devices(4));
  const nnz_t ideal = t.nnz() / 4;
  // Greedy nearest-cut against slice-snapped segments: each shard stays
  // within one realized segment of the ideal share.
  nnz_t max_seg = 0;
  for (const auto& s : sp.plan.segments.segments) {
    max_seg = std::max(max_seg, s.nnz());
  }
  EXPECT_LE(sp.max_shard_nnz(), ideal + max_seg);
  for (const auto& sh : sp.shards) EXPECT_FALSE(sh.empty());
}

TEST(ShardPlan, MoreDevicesThanSegmentsLeavesTrailingShardsEmpty) {
  // A 3-entry tensor realizes at most 3 segments; the rest of an
  // 8-device group must idle (empty shards, zero launches).
  CooTensor t({8, 4});
  t.push({0, 0}, 1.0f);
  t.push({3, 1}, 2.0f);
  t.push({6, 2}, 3.0f);
  t.sort_by_mode(0);
  gpusim::DeviceGroup g(kSpec, 8);
  const ShardPlan sp = make_shard_plan(g, t, 0, 4, ExecConfig{}.devices(8));
  nnz_t covered = 0;
  int non_empty = 0;
  for (const auto& sh : sp.shards) {
    covered += sh.nnz;
    non_empty += sh.empty() ? 0 : 1;
  }
  EXPECT_EQ(covered, t.nnz());
  EXPECT_LE(non_empty, 3);
  EXPECT_GE(non_empty, 1);
}

TEST(ShardPlan, Validation) {
  CooTensor t = make_frostt_tensor("uber", 1.0 / 2048, 603);
  gpusim::DeviceGroup g(kSpec, 2);
  EXPECT_THROW(make_shard_plan(g, t, 1, 8, ExecConfig{}.devices(2)), Error);
  // Once sorted, the same call plans every entry exactly once.
  t.sort_by_mode(1);
  const ExecConfig cfg = ExecConfig{}.devices(2);
  const ShardPlan sp = make_shard_plan(g, t, 1, 8, cfg);
  nnz_t covered = 0;
  for (const auto& sh : sp.shards) covered += sh.nnz;
  EXPECT_EQ(covered, t.nnz());
  // The planner needs the config's device count to be the group's.
  EXPECT_THROW(make_shard_plan(g, t, 1, 8, ExecConfig{}.devices(3)), Error);

  // A replay rejects a plan built for another group size, rank or view.
  const auto f = random_factors(t, 8, 604);
  EXPECT_NO_THROW(run_shard_plan(g, sp, t, f, cfg));
  gpusim::DeviceGroup g3(kSpec, 3);
  EXPECT_THROW(run_shard_plan(g3, sp, t, f, ExecConfig{}.devices(3)), Error);
  EXPECT_THROW(run_shard_plan(g, sp, t, random_factors(t, 4, 605), cfg),
               Error);
  const CooSpan shorter = CooSpan(t).subspan(0, t.nnz() - 1);
  EXPECT_THROW(run_shard_plan(g, sp, shorter, f, cfg), Error);
}

TEST(ShardPlan, SelectorPickIsSanityCheckedByCostModel) {
  // With a selector, every planned launch must cost no more than the
  // static heuristic under its owner's cost model — for one device as
  // for many, the planners drop selector extrapolations that the model
  // says are slower.
  struct Case {
    const char* name;
    double scale;
    std::uint64_t seed;
    order_t mode;
    int devices;
    int corpus;
    std::uint64_t tuner_seed;
    index_t rank;
  };
  // deli-4d mode 1 at 1/512 is the cpd-deli4d benchmark's input and
  // selector, where all 8 single-device selector picks price slower.
  // On nips at rank 64, a selector trained at rank 16 picks 1024-thread
  // blocks whose shared memory no longer fits: an infeasible launch.
  for (const Case& c : {Case{"uber", 1.0 / 512, 604, 0, 4, 16, 605, 16},
                        Case{"deli-4d", 1.0 / 512, 1, 1, 1, 48, 1234, 16},
                        Case{"nips", 1.0 / 1024, 7, 0, 1, 16, 1234, 64}}) {
    SCOPED_TRACE(c.name);
    const CooTensor t = sorted_frostt(c.name, c.scale, c.seed, c.mode);
    AutoTunerConfig tcfg;
    tcfg.corpus_size = c.corpus;
    tcfg.seed = c.tuner_seed;
    AutoTuner tuner(kSpec, tcfg);
    tuner.train();
    const LaunchSelector sel = tuner.selector();

    gpusim::DeviceGroup g(kSpec, c.devices);
    const ExecConfig cfg = ExecConfig{}.devices(c.devices);
    ExecConfig static_cfg = cfg;
    static_cfg.adaptive_launch = false;
    const ShardPlan adaptive = make_shard_plan(g, t, c.mode, c.rank, cfg, &sel);
    const ShardPlan fixed =
        make_shard_plan(g, t, c.mode, c.rank, static_cfg, nullptr);
    std::vector<std::pair<const PipelinePlan*, const PipelinePlan*>> inputs{
        {&adaptive.plan, &fixed.plan}};
    std::vector<const gpusim::SimDevice*> owner(adaptive.plan.size());
    for (const auto& sh : adaptive.shards) {
      for (int i = sh.seg_begin; i < sh.seg_end; ++i) {
        owner[static_cast<std::size_t>(i)] = &g.device(sh.device);
      }
    }
    // The single-device planner on the same input.
    PipelinePlan single_adaptive, single_fixed;
    if (c.devices == 1) {
      single_adaptive =
          make_pipeline_plan(g.device(0), t, c.mode, c.rank, cfg, &sel);
      single_fixed =
          make_pipeline_plan(g.device(0), t, c.mode, c.rank, static_cfg);
      inputs.emplace_back(&single_adaptive, &single_fixed);
    }
    for (const auto& [a, s] : inputs) {
      ASSERT_EQ(a->launches.size(), a->size());
      ASSERT_EQ(a->launches.size(), s->launches.size());
      for (std::size_t i = 0; i < a->size(); ++i) {
        if (a->segments.segments[i].nnz() == 0) continue;
        const auto& cm = owner.at(i)->cost_model();
        const auto prof = mttkrp_profile(a->segments.features[i], c.rank,
                                         cfg.use_shared_mem);
        EXPECT_LE(cm.kernel_ns(a->launches[i], prof),
                  cm.kernel_ns(s->launches[i], prof))
            << "segment " << i;
      }
    }
  }
}

TEST(ShardPlan, UniformGroupReproducesNnzBalancedCuts) {
  // Weighted sharding on a uniform group must detect equal unit costs
  // and take the exact nnz-balanced integer path — identical cuts to
  // weighted_shards(false).
  const CooTensor t = sorted_frostt("nell-2", 1.0 / 1024, 630);
  gpusim::DeviceGroup g(kSpec, 4);
  const ShardPlan w = make_shard_plan(g, t, 0, 16, ExecConfig{}.devices(4));
  const ShardPlan u = make_shard_plan(
      g, t, 0, 16, ExecConfig{}.devices(4).weighted_shards(false));
  EXPECT_FALSE(w.weighted);
  EXPECT_FALSE(u.weighted);
  ASSERT_EQ(w.shards.size(), u.shards.size());
  for (std::size_t d = 0; d < w.shards.size(); ++d) {
    EXPECT_EQ(w.shards[d].seg_begin, u.shards[d].seg_begin);
    EXPECT_EQ(w.shards[d].seg_end, u.shards[d].seg_end);
    EXPECT_EQ(w.shards[d].nnz, u.shards[d].nnz);
    EXPECT_EQ(w.shards[d].weight, 1.0);
  }
}

TEST(ShardPlan, WeightedCutsSkewTowardFasterDevices) {
  // Rank 64 keeps the kernels HBM-bound — the axis where the 3060 is
  // ~2.6x slower. (At tiny ranks the pipeline is PCIe-bound and the
  // mixed pair rightly degenerates to uniform cuts.)
  const CooTensor t = sorted_frostt("nell-2", 1.0 / 1024, 631);
  gpusim::DeviceGroup g(
      {gpusim::DeviceSpec::rtx3090(), gpusim::DeviceSpec::rtx3060()});
  const ShardPlan w = make_shard_plan(g, t, 0, 64, ExecConfig{}.devices(2));
  const ShardPlan u = make_shard_plan(
      g, t, 0, 64, ExecConfig{}.devices(2).weighted_shards(false));
  EXPECT_TRUE(w.weighted);
  EXPECT_FALSE(u.weighted);
  // The nnz-balanced cut halves the tensor; the weighted cut gives the
  // ~3x-faster 3090 the larger share and evens out predicted time.
  EXPECT_GT(w.shards[0].nnz, u.shards[0].nnz);
  EXPECT_GT(w.shards[0].nnz, w.shards[1].nnz);
  EXPECT_EQ(w.shards[0].weight, 1.0);
  EXPECT_LT(w.shards[1].weight, 1.0);
  EXPECT_LT(w.pred_time_imbalance(), u.pred_time_imbalance());
  // The per-segment predictions the stealing rule reads tally up.
  for (const ShardPlan* sp : {&w, &u}) {
    for (const auto& sh : sp->shards) {
      sim_ns sum = 0;
      for (const sim_ns p : sh.seg_pred_ns) sum += p;
      EXPECT_EQ(sum, sh.predicted_ns);
    }
    EXPECT_GT(sp->max_shard_pred_ns(), 0u);
  }
}

// ---------------------------------------------------------------------
// Sharded replay (run_multi_pipeline / run_shard_plan)
// ---------------------------------------------------------------------

TEST(MultiPipeline, MatchesReferenceOnEveryDeviceCount) {
  const CooTensor t = sorted_frostt("nips", 1.0 / 1024, 610);
  const auto f = random_factors(t, 16, 611);
  const DenseMatrix expect = mttkrp_coo_ref(t, f, 0);
  for (const int n : {1, 2, 3, 4, 8}) {
    gpusim::DeviceGroup g(kSpec, n);
    const auto res = run_multi_pipeline(g, t, f, 0, ExecConfig{}.devices(n));
    EXPECT_LT(DenseMatrix::max_abs_diff(res.output, expect), 2e-3)
        << n << " devices";
    // Overlapped reduction contract: never worse than the barrier, never
    // faster than the slowest device's compute.
    EXPECT_GE(res.total_ns, res.compute_ns);
    EXPECT_LE(res.total_ns, res.compute_ns + res.reduce_ns);
    EXPECT_EQ(res.overlap_saved_ns,
              res.compute_ns + res.reduce_ns - res.total_ns);
    sim_ns max_dev = 0;
    ASSERT_EQ(static_cast<int>(res.devices.size()), n);
    for (const auto& st : res.devices) max_dev = std::max(max_dev, st.total_ns);
    EXPECT_EQ(res.compute_ns, max_dev);
  }
}

TEST(MultiPipeline, ReductionIsDeterministic) {
  // Partials are summed in device order, so two runs are bit-identical
  // regardless of thread scheduling.
  const CooTensor t = sorted_frostt("vast", 1.0 / 1024, 612);
  const auto f = random_factors(t, 8, 613);
  gpusim::DeviceGroup g(kSpec, 4);
  const ExecConfig cfg = ExecConfig{}.devices(4);
  const auto a = run_multi_pipeline(g, t, f, 0, cfg);
  const auto b = run_multi_pipeline(g, t, f, 0, cfg);
  ASSERT_EQ(a.output.size(), b.output.size());
  EXPECT_EQ(std::memcmp(a.output.data(), b.output.data(),
                        a.output.size() * sizeof(value_t)),
            0);
  EXPECT_EQ(a.total_ns, b.total_ns);
}

TEST(MultiPipeline, SliceAlignedCutsNeedNoCollective) {
  // One nnz per mode-0 slice: every segment cut lands on a slice
  // boundary, shards own disjoint output rows, and the reduction
  // payload is empty.
  CooTensor t({64, 16});
  Rng rng(614);
  for (index_t i = 0; i < 64; ++i) {
    t.push({i, static_cast<index_t>(rng.next_u64() % 16)}, rng.next_float());
  }
  t.sort_by_mode(0);
  const auto f = random_factors(t, 8, 615);
  gpusim::DeviceGroup g(kSpec, 4);
  const auto res =
      run_multi_pipeline(g, t, f, 0, ExecConfig{}.devices(4).segments(8));
  EXPECT_EQ(res.reduce_ns, 0u);
  EXPECT_EQ(res.total_ns, res.compute_ns);
  EXPECT_LT(DenseMatrix::max_abs_diff(res.output, mttkrp_coo_ref(t, f, 0)),
            2e-3);
}

TEST(MultiPipeline, SplitSliceChargesTheLinkModel) {
  // A single mega slice must be split mid-slice to shard at all; both
  // neighbours then write the same output row and the link model
  // charges the chosen schedule over that boundary payload.
  const CooTensor t = mega_slice_tensor(4096);
  const auto f = random_factors(t, 8, 616);
  gpusim::DeviceGroup g(kSpec, 2);
  const ExecConfig cfg = ExecConfig{}.devices(2).segments(4).reduction(
      gpusim::ReduceSchedule::Ring);
  const auto res = run_multi_pipeline(g, t, f, 0, cfg);
  EXPECT_EQ(res.reduce_schedule, gpusim::ReduceSchedule::Ring);
  EXPECT_GT(res.reduce_ns, 0u);
  EXPECT_GE(res.total_ns, res.compute_ns);
  EXPECT_LE(res.total_ns, res.compute_ns + res.reduce_ns);
  EXPECT_LT(DenseMatrix::max_abs_diff(res.output, mttkrp_coo_ref(t, f, 0)),
            2e-3);
  // overlap off pins the PR 4 barrier accounting exactly.
  const auto barrier =
      run_multi_pipeline(g, t, f, 0, ExecConfig(cfg).overlap_reduce(false));
  EXPECT_GT(barrier.reduce_ns, 0u);
  EXPECT_EQ(barrier.total_ns, barrier.compute_ns + barrier.reduce_ns);
  EXPECT_EQ(barrier.overlap_saved_ns, 0u);
}

TEST(MultiPipeline, StrongScalingOnComputeBoundTensor) {
  const CooTensor t = sorted_frostt("nell-2", 1.0 / 512, 617);
  const auto f = random_factors(t, 16, 618);
  sim_ns prev = 0;
  for (const int n : {1, 2, 4}) {
    gpusim::DeviceGroup g(kSpec, n);
    const auto res = run_multi_pipeline(g, t, f, 0, ExecConfig{}.devices(n));
    if (n > 1) {
      EXPECT_LT(res.total_ns, prev) << n << " devices";
    }
    prev = res.total_ns;
  }
}

TEST(MultiPipeline, HeterogeneousGroupMatchesReference) {
  const CooTensor t = sorted_frostt("nips", 1.0 / 1024, 640);
  const auto f = random_factors(t, 16, 641);
  const DenseMatrix expect = mttkrp_coo_ref(t, f, 0);
  {
    gpusim::DeviceGroup g(
        {gpusim::DeviceSpec::rtx3090(), gpusim::DeviceSpec::rtx3060()});
    const auto res = run_multi_pipeline(g, t, f, 0, ExecConfig{}.devices(2));
    EXPECT_LT(DenseMatrix::max_abs_diff(res.output, expect), 2e-3);
    EXPECT_TRUE(res.plan.weighted);
  }
  {
    gpusim::DeviceGroup g = gpusim::DeviceGroup::mixed_3090_3060();
    const auto full = run_multi_pipeline(g, t, f, 0, ExecConfig{}.devices(4));
    EXPECT_LT(DenseMatrix::max_abs_diff(full.output, expect), 2e-3);
    // Stealing + overlap never change the bits: same weighted plan, so
    // the barrier/no-steal run must match byte for byte.
    const auto barrier = run_multi_pipeline(
        g, t, f, 0,
        ExecConfig{}.devices(4).overlap_reduce(false).steal(false));
    ASSERT_EQ(full.output.size(), barrier.output.size());
    EXPECT_EQ(std::memcmp(full.output.data(), barrier.output.data(),
                          full.output.size() * sizeof(value_t)),
              0);
  }
}

TEST(MultiPipeline, StealingIsDeterministicAndBitIdentical) {
  // nnz-uniform cuts on a mixed pair at a rank that keeps the kernels
  // HBM-bound leave the 3060 with ~2.6x the predicted time, so the
  // drained 3090 steals from its tail.
  const CooTensor t = sorted_frostt("nell-2", 1.0 / 1024, 642);
  const auto f = random_factors(t, 64, 643);
  gpusim::DeviceGroup g(
      {gpusim::DeviceSpec::rtx3090(), gpusim::DeviceSpec::rtx3060()});
  // Enough segments that the straggler still has an unissued tail once
  // the fast device drains (issue runs num_streams segments ahead).
  const ExecConfig cfg =
      ExecConfig{}.devices(2).segments(16).weighted_shards(false);
  const auto a = run_multi_pipeline(g, t, f, 0, cfg);
  ASSERT_FALSE(a.steals.empty());
  for (const auto& s : a.steals) {
    EXPECT_EQ(s.victim, 1);
    EXPECT_EQ(s.thief, 0);
  }
  int stolen = 0;
  for (const auto& st : a.devices) stolen += st.stolen_segments;
  EXPECT_EQ(stolen, static_cast<int>(a.steals.size()));
  EXPECT_GT(a.devices[0].stolen_nnz, 0u);

  // Deterministic: the full decision sequence replays exactly.
  const auto b = run_multi_pipeline(g, t, f, 0, cfg);
  ASSERT_EQ(a.steals.size(), b.steals.size());
  for (std::size_t i = 0; i < a.steals.size(); ++i) {
    EXPECT_EQ(a.steals[i].segment, b.steals[i].segment);
    EXPECT_EQ(a.steals[i].victim, b.steals[i].victim);
    EXPECT_EQ(a.steals[i].thief, b.steals[i].thief);
    EXPECT_EQ(a.steals[i].decision_ns, b.steals[i].decision_ns);
  }
  EXPECT_EQ(a.total_ns, b.total_ns);
  ASSERT_EQ(a.output.size(), b.output.size());
  EXPECT_EQ(std::memcmp(a.output.data(), b.output.data(),
                        a.output.size() * sizeof(value_t)),
            0);

  // Bit-identical to the no-stealing run, and faster: the stolen tail
  // comes off the straggler's critical path.
  const auto off = run_multi_pipeline(g, t, f, 0, ExecConfig(cfg).steal(false));
  EXPECT_TRUE(off.steals.empty());
  ASSERT_EQ(a.output.size(), off.output.size());
  EXPECT_EQ(std::memcmp(a.output.data(), off.output.data(),
                        a.output.size() * sizeof(value_t)),
            0);
  EXPECT_LT(a.compute_ns, off.compute_ns);
  EXPECT_LT(a.total_ns, off.total_ns);
}

TEST(MultiPipeline, OverlappedReductionHidesUnderComputeTail) {
  // One mega slice split eight ways across a 3+1 mixed group with
  // nnz-uniform shards: at an HBM-bound rank the three 3090s drain
  // early, so the boundary chunks between them ride the 3060
  // straggler's compute tail and only the last chunk extends the
  // makespan.
  const CooTensor t = mega_slice_tensor(65536);
  const auto f = random_factors(t, 64, 644);
  gpusim::DeviceGroup g = gpusim::DeviceGroup::mixed_3090_3060();
  const ExecConfig cfg =
      ExecConfig{}.devices(4).segments(8).weighted_shards(false).steal(false);
  const auto on = run_multi_pipeline(g, t, f, 0, cfg);
  EXPECT_GT(on.reduce_ns, 0u);
  EXPECT_GT(on.overlap_saved_ns, 0u);
  EXPECT_GE(on.total_ns, on.compute_ns);
  EXPECT_LT(on.total_ns, on.compute_ns + on.reduce_ns);

  const auto off =
      run_multi_pipeline(g, t, f, 0, ExecConfig(cfg).overlap_reduce(false));
  EXPECT_EQ(off.total_ns, off.compute_ns + off.reduce_ns);
  EXPECT_EQ(off.overlap_saved_ns, 0u);
  EXPECT_EQ(on.compute_ns, off.compute_ns);
  // Overlap is pure scheduling — the bits never move.
  ASSERT_EQ(on.output.size(), off.output.size());
  EXPECT_EQ(std::memcmp(on.output.data(), off.output.data(),
                        on.output.size() * sizeof(value_t)),
            0);
  // 64k products fold into one output row, so compare against the
  // reference relatively: the entries are O(thousands) and only summed
  // in a different order.
  const DenseMatrix expect = mttkrp_coo_ref(t, f, 0);
  value_t max_mag = 0.0f;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    max_mag = std::max(max_mag, std::abs(expect.data()[i]));
  }
  ASSERT_GT(max_mag, 0.0f);
  EXPECT_LT(DenseMatrix::max_abs_diff(on.output, expect) / max_mag, 1e-4);
}

TEST(MultiPipeline, ReportsMergedMetrics) {
  const CooTensor t = sorted_frostt("uber", 1.0 / 1024, 619);
  const auto f = random_factors(t, 8, 620);
  obs::MetricsRegistry met;
  gpusim::DeviceGroup g(kSpec, 2);
  const auto res =
      run_multi_pipeline(g, t, f, 0, ExecConfig{}.devices(2).metrics(&met));
  EXPECT_EQ(met.counter("multidev/runs"), 1u);
  EXPECT_EQ(met.gauge("multidev/devices"), 2.0);
  EXPECT_EQ(met.gauge("multidev/total_ns"),
            static_cast<double>(res.total_ns));
  EXPECT_EQ(met.gauge("multidev/gpu0/nnz"),
            static_cast<double>(res.plan.shards[0].nnz));
  EXPECT_EQ(met.gauge("multidev/imbalance"), res.pred_imbalance);
  EXPECT_EQ(met.gauge("multidev/overlap_ns"),
            static_cast<double>(res.overlap_saved_ns));
  EXPECT_EQ(met.counter("multidev/steals"), res.steals.size());
  EXPECT_EQ(met.gauge("multidev/gpu0/stolen_segments"),
            static_cast<double>(res.devices[0].stolen_segments));
  EXPECT_GT(met.gauge("multidev/max_shard_pred_ns"), 0.0);
  EXPECT_GT(met.stage("host/shard_planning").count, 0u);
  // Per-device timelines land under the gpuN prefix.
  EXPECT_GT(met.counter("gpu0/kernel_launches"), 0u);
  EXPECT_GT(met.stage("gpu0/Kernel").count, 0u);
}

TEST(MultiPipeline, CpdPlansEachModeOnce) {
  // Device-group CPD builds one ShardPlan per mode before the loop and
  // replays it every iteration, and two solves agree bit for bit.
  const CooTensor x = make_frostt_tensor("vast", 1.0 / 2048, 623);
  gpusim::SimDevice dev(kSpec);
  const ExecConfig cfg =
      ExecConfig{}.backend("coo").rank(8).max_iters(3).tol(0.0).devices(2);
  obs::MetricsRegistry met;
  const CpdResult a = cpd_als(x, ExecConfig(cfg).metrics(&met), &dev);
  EXPECT_EQ(a.iterations, 3);
  EXPECT_EQ(met.stage("host/shard_planning").count, x.order());
  EXPECT_EQ(met.counter("multidev/runs"),
            static_cast<std::uint64_t>(x.order() * a.iterations));

  const CpdResult b = cpd_als(x, cfg, &dev);
  ASSERT_EQ(a.factors.size(), b.factors.size());
  for (std::size_t m = 0; m < a.factors.size(); ++m) {
    ASSERT_EQ(a.factors[m].size(), b.factors[m].size());
    EXPECT_EQ(std::memcmp(a.factors[m].data(), b.factors[m].data(),
                          a.factors[m].size() * sizeof(value_t)),
              0)
        << "mode " << m;
  }
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.fit_history, b.fit_history);
}

TEST(MultiPipeline, ValidatesConfigAgainstGroup) {
  const CooTensor t = sorted_frostt("uber", 1.0 / 2048, 621);
  const auto f = random_factors(t, 8, 622);
  gpusim::DeviceGroup g(kSpec, 2);
  // devices must match the group size.
  EXPECT_THROW(run_multi_pipeline(g, t, f, 0, ExecConfig{}.devices(4)),
               Error);
  // The CPU hybrid split is single-device only.
  EXPECT_THROW(run_multi_pipeline(g, t, f, 0,
                                  ExecConfig{}.devices(2).hybrid_threshold(8)),
               Error);
  // Mode-sorted input is required.
  CooTensor unsorted = t;
  unsorted.sort_by_mode(1);
  if (!unsorted.is_sorted_by_mode(0)) {
    EXPECT_THROW(
        run_multi_pipeline(g, unsorted, f, 0, ExecConfig{}.devices(2)),
        Error);
  }
}

}  // namespace
}  // namespace scalfrag
