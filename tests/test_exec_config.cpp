// ExecConfig tests: the unified driver configuration — builder
// coverage, validation, the HostExecParams bridge — and proof that the
// deprecated legacy structs are pure shims (bit-identical execution
// through either surface).

#include <gtest/gtest.h>

#include <cstring>

#include "scalfrag/cpd.hpp"
#include "scalfrag/exec_config.hpp"
#include "scalfrag/multi_pipeline.hpp"
#include "scalfrag/pipeline.hpp"
#include "scalfrag/tucker.hpp"
#include "tensor/generator.hpp"
#include "tensor/mttkrp_par.hpp"

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

TEST(ExecConfig, BuildersMapOntoFields) {
  obs::MetricsRegistry met;
  const gpusim::LaunchConfig lc{64, 256, 0};
  const ExecConfig cfg = ExecConfig{}
                             .devices(4)
                             .reduction(gpusim::ReduceSchedule::Ring)
                             .peer_link(gpusim::LinkSpec::nvlink_bridge())
                             .segments(6)
                             .streams(3)
                             .shared_mem(false)
                             .adaptive(false)
                             .launch(lc)
                             .hybrid_threshold(0)
                             .threads(2)
                             .grain(128)
                             .strategy(HostStrategy::PrivateReduce)
                             .metrics(&met);
  EXPECT_EQ(cfg.num_devices, 4);
  ASSERT_TRUE(cfg.reduce_schedule.has_value());
  EXPECT_EQ(*cfg.reduce_schedule, gpusim::ReduceSchedule::Ring);
  EXPECT_EQ(cfg.link.name, "nvlink-bridge");
  EXPECT_EQ(cfg.num_segments, 6);
  EXPECT_EQ(cfg.num_streams, 3);
  EXPECT_FALSE(cfg.use_shared_mem);
  EXPECT_FALSE(cfg.adaptive_launch);
  ASSERT_TRUE(cfg.launch_override.has_value());
  EXPECT_EQ(cfg.launch_override->grid, lc.grid);
  EXPECT_EQ(cfg.hybrid_cpu_threshold, 0u);
  EXPECT_EQ(cfg.host_exec.threads, 2u);
  EXPECT_EQ(cfg.host_exec.grain_nnz, 128u);
  EXPECT_EQ(cfg.host_exec.strategy, HostStrategy::PrivateReduce);
  EXPECT_EQ(cfg.metrics_sink, &met);
  cfg.validate();
  EXPECT_EQ(ExecConfig{}.segments(5).segments_auto().num_segments, 0);
}

TEST(ExecConfig, ValidateRejectsInconsistentSettings) {
  EXPECT_THROW(ExecConfig{}.devices(0).validate(), Error);
  EXPECT_THROW(ExecConfig{}.streams(0).validate(), Error);
  EXPECT_THROW(ExecConfig{}.segments(-1).validate(), Error);
  // The CPU hybrid split is single-device only.
  EXPECT_THROW(ExecConfig{}.devices(2).hybrid_threshold(100).validate(),
               Error);
  ExecConfig{}.devices(2).validate();
  ExecConfig{}.hybrid_threshold(100).validate();
}

TEST(ExecConfig, HostForRunDefaultsTheMetricsSink) {
  obs::MetricsRegistry met;
  ExecConfig cfg = ExecConfig{}.metrics(&met);
  EXPECT_EQ(cfg.host_for_run().metrics, &met);
  // An explicit engine-level sink wins over the driver-level one.
  obs::MetricsRegistry inner;
  cfg.host_exec.metrics = &inner;
  EXPECT_EQ(cfg.host_for_run().metrics, &inner);
  EXPECT_EQ(ExecConfig{}.host_for_run().metrics, nullptr);
}

// The whole point of the shims: legacy code paths must produce the
// exact same execution, not an approximation. The simulator is
// deterministic, so "same config" means bit-identical outputs and
// identical simulated timelines.
TEST(ExecConfig, LegacyHostExecOptionsAliasIsTheSameType) {
  CooTensor t = make_frostt_tensor("uber", 1.0 / 2048, 703);
  t.sort_by_mode(0);
  const auto f = random_factors(t, 8, 704);

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  HostExecOptions legacy;
  legacy.strategy = HostStrategy::Serial;
  static_assert(std::is_same_v<HostExecOptions, HostExecParams>);
#pragma GCC diagnostic pop
  HostExecParams params;
  params.strategy = HostStrategy::Serial;

  const DenseMatrix a = mttkrp_coo_par(CooSpan(t), f, 0, legacy);
  const DenseMatrix b = mttkrp_coo_par(CooSpan(t), f, 0, params);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)), 0);
}

// CpdOptions is now a pure conversion shim: driving cpd_als through
// the legacy struct and through the equivalent ExecConfig builders
// must be the same run, bit for bit (factors, weights, fit, timeline).
TEST(ExecConfig, LegacyCpdOptionsShimIsBitIdentical) {
  const CooTensor x = make_frostt_tensor("nips", 1.0 / 2048, 706);
  gpusim::SimDevice dev(kSpec);

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  CpdOptions legacy;
  legacy.rank = 6;
  legacy.max_iters = 4;
  legacy.tol = 0.0;  // legacy "run every iteration" spelling
  legacy.seed = 9;
  legacy.backend = CpdBackend::ScalFrag;
  legacy.nonnegative = true;
  const ExecConfig converted = legacy;
#pragma GCC diagnostic pop

  const ExecConfig direct = ExecConfig{}
                                .backend("coo")
                                .rank(6)
                                .max_iters(4)
                                .tol(0.0)
                                .seed(9)
                                .nonneg();

  gpusim::SimDevice dev2(kSpec);
  const CpdResult a = cpd_als(x, converted, &dev);
  const CpdResult b = cpd_als(x, direct, &dev2);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.iterations, 4);  // tol 0 disables the early stop
  EXPECT_EQ(a.mttkrp_sim_ns, b.mttkrp_sim_ns);
  EXPECT_DOUBLE_EQ(a.final_fit, b.final_fit);
  ASSERT_EQ(a.factors.size(), b.factors.size());
  for (std::size_t m = 0; m < a.factors.size(); ++m) {
    EXPECT_EQ(std::memcmp(a.factors[m].data(), b.factors[m].data(),
                          a.factors[m].size() * sizeof(value_t)),
              0)
        << "factor " << m;
  }
  EXPECT_EQ(a.lambda, b.lambda);

  // Unset decomposition knobs resolve to the legacy defaults, so a
  // default-constructed ExecConfig reproduces a default CpdOptions run.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  const ExecConfig legacy_defaults = CpdOptions{};
#pragma GCC diagnostic pop
  EXPECT_EQ(legacy_defaults.decomp_seed, 5u);
  EXPECT_DOUBLE_EQ(legacy_defaults.decomp_tol, 1e-4);
}

TEST(ExecConfig, LegacyTuckerOptionsShimIsBitIdentical) {
  const CooTensor x = make_frostt_tensor("uber", 1.0 / 2048, 707);

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  TuckerOptions legacy;
  legacy.core_dims = {2, 2, 2, 2};
  legacy.max_iters = 3;
  legacy.tol = 0.0;
  legacy.seed = 13;
  const ExecConfig converted = legacy;
#pragma GCC diagnostic pop

  const ExecConfig direct =
      ExecConfig{}.core_dims({2, 2, 2, 2}).max_iters(3).tol(0.0).seed(13);

  const TuckerResult a = tucker_hooi(x, converted);
  const TuckerResult b = tucker_hooi(x, direct);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_DOUBLE_EQ(a.final_fit, b.final_fit);
  ASSERT_EQ(a.factors.size(), b.factors.size());
  for (std::size_t m = 0; m < a.factors.size(); ++m) {
    EXPECT_EQ(std::memcmp(a.factors[m].data(), b.factors[m].data(),
                          a.factors[m].size() * sizeof(value_t)),
              0)
        << "factor " << m;
  }
  EXPECT_EQ(std::memcmp(a.core.data(), b.core.data(),
                        a.core.size() * sizeof(value_t)),
            0);
}

TEST(ExecConfig, CpdDriverShardsWhenDevicesExceedOne) {
  const CooTensor x = make_frostt_tensor("vast", 1.0 / 2048, 705);
  gpusim::SimDevice dev(kSpec);
  obs::MetricsRegistry met;

  const auto base_cfg = ExecConfig{}.backend("coo").rank(8).max_iters(3);
  const CpdResult multi =
      cpd_als(x, ExecConfig{base_cfg}.devices(2).metrics(&met), &dev);
  const CpdResult base = cpd_als(x, base_cfg, &dev);

  // Same ALS math, reassociated reduction: fits agree tightly.
  EXPECT_NEAR(multi.final_fit, base.final_fit, 1e-3);
  EXPECT_GT(multi.mttkrp_sim_ns, 0u);
  EXPECT_GE(met.counter("multidev/runs"),
            static_cast<std::uint64_t>(multi.mttkrp_calls));
}

}  // namespace
}  // namespace scalfrag
