// MttkrpPlan tests: planned execution equals ad-hoc execution,
// planning (segmentation, selection) is paid once at build, and CPD uses
// the plan transparently.
// Also covers the simulated SpTTM executor.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "scalfrag/cpd.hpp"
#include "scalfrag/plan.hpp"
#include "tensor/generator.hpp"

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

LaunchSelector trained_selector() {
  AutoTunerConfig cfg;
  cfg.corpus_size = 16;
  cfg.seed = 501;
  AutoTuner tuner(kSpec, cfg);
  tuner.train();
  return tuner.selector();
}

TEST(MttkrpPlan, PlannedRunMatchesAdHocRun) {
  const LaunchSelector sel = trained_selector();
  gpusim::SimDevice dev(kSpec);
  const CooTensor t = make_frostt_tensor("nell-2", 1.0 / 2048, 502);
  const auto f = random_factors(t, 16, 503);

  // The default config, a launch override, and a hybrid split: the plan
  // must bake in every one of them exactly as the one-shot driver does.
  for (const ExecConfig& cfg :
       {ExecConfig{}, ExecConfig{}.launch({512, 128, 0}),
        ExecConfig{}.hybrid_threshold(2000)}) {
    const MttkrpPlan plan(t, 16, dev, &sel, cfg);
    for (order_t m = 0; m < t.order(); ++m) {
      const auto planned = plan.run(f, m);

      CooTensor sorted = t;
      sorted.sort_by_mode(m);
      const auto adhoc = run_pipeline(dev, sorted, f, m, cfg, &sel);

      ASSERT_EQ(planned.output.size(), adhoc.output.size());
      EXPECT_EQ(std::memcmp(planned.output.data(), adhoc.output.data(),
                            planned.output.size() * sizeof(value_t)),
                0);
      EXPECT_EQ(planned.total_ns, adhoc.total_ns);
      EXPECT_EQ(planned.launches, adhoc.launches);
      EXPECT_EQ(planned.cpu_nnz, adhoc.cpu_nnz);
      // The plan replays precomputed launches: no online selection cost.
      EXPECT_DOUBLE_EQ(planned.selection_seconds, 0.0);
      EXPECT_EQ(planned.launches, plan.mode(m).launches);
    }
    EXPECT_GT(plan.prepare_seconds(), 0.0);
  }
}

TEST(MttkrpPlan, SchedulesOneLaunchPerSegment) {
  gpusim::SimDevice dev(kSpec);
  const CooTensor t = make_frostt_tensor("uber", 1.0 / 2048, 504);
  const MttkrpPlan plan(t, 8, dev, nullptr);
  for (order_t m = 0; m < t.order(); ++m) {
    EXPECT_EQ(plan.mode(m).launches.size(), plan.mode(m).segments.size());
    EXPECT_TRUE(plan.view(m).is_sorted_by_mode(m));
    EXPECT_EQ(plan.mode(m).segments.segments.back().end, t.nnz());
  }
}

TEST(MttkrpPlan, ReplaysDoNoPlanning) {
  gpusim::SimDevice dev(kSpec);
  const CooTensor t = make_frostt_tensor("nell-2", 1.0 / 2048, 513);
  const auto f = random_factors(t, 8, 514);
  obs::MetricsRegistry met;
  const MttkrpPlan plan(t, 8, dev, nullptr, ExecConfig{}.metrics(&met));
  const std::uint64_t spans = met.stage("host/segmentation").count;
  const std::uint64_t requested = met.counter("pipeline/segments_requested");
  EXPECT_EQ(spans, t.order());  // one segmentation per mode, at build
  for (int rep = 0; rep < 3; ++rep) {
    for (order_t m = 0; m < t.order(); ++m) plan.run_on(dev, f, m, &met);
  }
  EXPECT_EQ(met.stage("host/segmentation").count, spans);
  EXPECT_EQ(met.counter("pipeline/segments_requested"), requested);
  EXPECT_EQ(met.counter("pipeline/runs"), 3u * t.order());
}

TEST(MttkrpPlan, CpdHonorsLaunchOverride) {
  // cpd_als replays its plan, so the override must reach every replay:
  // the simulated MTTKRP time is the per-mode one-shot time under the
  // same override, once per iteration.
  const LaunchSelector sel = trained_selector();
  gpusim::SimDevice dev(kSpec);
  const CooTensor x = make_frostt_tensor("nell-2", 1.0 / 1024, 515);
  const ExecConfig cfg =
      ExecConfig{}.backend("coo").rank(8).max_iters(2).tol(0.0);
  const ExecConfig forced = ExecConfig(cfg).launch({512, 128, 0});

  const CpdResult adaptive = cpd_als(x, cfg, &dev, &sel);
  const CpdResult overridden = cpd_als(x, forced, &dev, &sel);
  EXPECT_NE(overridden.mttkrp_sim_ns, adaptive.mttkrp_sim_ns);

  const auto f = random_factors(x, 8, 516);
  sim_ns per_iteration = 0;
  for (order_t m = 0; m < x.order(); ++m) {
    CooTensor sorted = x;
    sorted.sort_by_mode(m);
    per_iteration += run_pipeline(dev, sorted, f, m, forced, &sel).total_ns;
  }
  ASSERT_EQ(overridden.iterations, 2);
  EXPECT_EQ(overridden.mttkrp_sim_ns, 2 * per_iteration);
}

TEST(MttkrpPlan, HybridCpdMatchesHostFit) {
  const LaunchSelector sel = trained_selector();
  gpusim::SimDevice dev(kSpec);
  const CooTensor x = make_frostt_tensor("nell-2", 1.0 / 1024, 517);
  const ExecConfig cfg = ExecConfig{}.rank(8).max_iters(2).tol(0.0);
  const CpdResult hybrid = cpd_als(
      x, ExecConfig(cfg).backend("coo").hybrid_threshold(2000), &dev, &sel);
  const CpdResult host = cpd_als(x, ExecConfig(cfg).backend("coo_host"));
  EXPECT_NEAR(hybrid.final_fit, host.final_fit, 1e-3);
  EXPECT_GT(hybrid.mttkrp_sim_ns, 0u);
}

TEST(MttkrpPlan, Validation) {
  gpusim::SimDevice dev(kSpec);
  CooTensor empty({4, 4});
  EXPECT_THROW(MttkrpPlan(empty, 8, dev, nullptr), Error);
  CooTensor t({4, 4});
  t.push({0, 0}, 1.0f);
  EXPECT_THROW(MttkrpPlan(t, 0, dev, nullptr), Error);
  const MttkrpPlan plan(t, 8, dev, nullptr);
  const auto f = random_factors(t, 8, 505);
  EXPECT_THROW(plan.run(f, 5), Error);
}

TEST(MttkrpPlan, ExplicitSegmentCountIsHonored) {
  gpusim::SimDevice dev(kSpec);
  const CooTensor t = make_frostt_tensor("nell-2", 1.0 / 2048, 506);
  ExecConfig opt;
  opt.num_segments = 3;
  const MttkrpPlan plan(t, 8, dev, nullptr, opt);
  EXPECT_LE(plan.mode(0).segments.size(), 3u);
  EXPECT_GE(plan.mode(0).segments.size(), 2u);  // slice snapping may merge
}

TEST(MttkrpPlan, ConfigIsCopiedByValueAtConstruction) {
  // Regression for the former dangling-options bug: the plan must own
  // its ExecConfig, so mutating or destroying the caller's config after
  // construction cannot change replays. Only the metrics registry the
  // sink *points at* has to outlive run() — that part is documented,
  // not copied.
  gpusim::SimDevice dev(kSpec);
  const CooTensor t = make_frostt_tensor("uber", 1.0 / 2048, 509);
  const auto f = random_factors(t, 8, 510);
  obs::MetricsRegistry met;

  std::optional<ExecConfig> caller;
  caller.emplace(ExecConfig{}.segments(2).streams(2).metrics(&met));
  const MttkrpPlan plan(t, 8, dev, nullptr, *caller);
  const auto before = plan.run(f, 0);

  // Clobber, then destroy, the caller's config.
  caller->segments(7).streams(1).shared_mem(false).metrics(nullptr);
  caller.reset();

  const auto after = plan.run(f, 0);
  EXPECT_EQ(plan.config().num_segments, 2);
  EXPECT_EQ(plan.config().num_streams, 2);
  EXPECT_EQ(after.total_ns, before.total_ns);
  EXPECT_EQ(after.launches, before.launches);
  // The copied sink still records into the caller's registry.
  EXPECT_GE(met.counter("pipeline/runs"), 2u);
}

TEST(MttkrpPlan, SingleSortKeepsMemoryBelowPerModeCopies) {
  // Regression for the former one-sorted-copy-per-mode scheme: the plan
  // now holds one canonical copy plus per-mode permutations, which for
  // any order-3 tensor is at most half the old N-copies footprint.
  gpusim::SimDevice dev(kSpec);
  const CooTensor t = make_frostt_tensor("nell-2", 1.0 / 2048, 512);
  ASSERT_EQ(t.order(), 3);
  obs::MetricsRegistry met;
  const MttkrpPlan plan(t, 8, dev, nullptr, ExecConfig{}.metrics(&met));
  EXPECT_FALSE(plan.views().materialized());
  EXPECT_LE(plan.resident_bytes() * 2, ModeViews::legacy_copies_bytes(t));
  // The resident gauge tracks the plan's tensor residency, and the peak
  // never reached the legacy bound either.
  EXPECT_EQ(met.gauge(ModeViews::kResidentGauge),
            static_cast<double>(plan.resident_bytes()));
  const double peak =
      met.gauge(std::string(ModeViews::kResidentGauge) + "_peak");
  EXPECT_GE(peak, met.gauge(ModeViews::kResidentGauge));
  EXPECT_LE(peak * 2,
            static_cast<double>(ModeViews::legacy_copies_bytes(t)));
}

TEST(MttkrpPlan, RejectsMultiDeviceConfigs) {
  gpusim::SimDevice dev(kSpec);
  const CooTensor t = make_frostt_tensor("uber", 1.0 / 2048, 511);
  EXPECT_THROW(MttkrpPlan(t, 8, dev, nullptr, ExecConfig{}.devices(2)),
               Error);
}

}  // namespace
}  // namespace scalfrag
