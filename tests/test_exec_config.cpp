// ExecConfig tests: the unified driver configuration — builder
// coverage, validation, the HostExecParams bridge, and the pinned
// decomposition defaults.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
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

// Unset decomposition knobs resolve to fixed driver defaults, and
// committed outputs depend on them: a default ExecConfig must be the
// same run, bit for bit, as one that spells the defaults out (CPD
// rank 16, 10 iterations, tol 1e-4, seed 5; Tucker 15 iterations,
// tol 1e-5, seed 7). Each input makes the run depend on the knob it
// covers, so changing any default fails the comparison.
TEST(ExecConfig, DefaultDecompositionKnobsArePinned) {
  const auto expect_same_cpd = [](const CooTensor& x, int* iterations) {
    gpusim::SimDevice dev(kSpec);
    gpusim::SimDevice dev2(kSpec);
    const CpdResult a = cpd_als(x, ExecConfig{}, &dev);
    const CpdResult b = cpd_als(
        x, ExecConfig{}.rank(16).max_iters(10).tol(1e-4).seed(5), &dev2);
    *iterations = a.iterations;
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.mttkrp_sim_ns, b.mttkrp_sim_ns);
    EXPECT_EQ(a.fit_history, b.fit_history);
    EXPECT_EQ(a.lambda, b.lambda);
    ASSERT_EQ(a.factors.size(), b.factors.size());
    for (std::size_t m = 0; m < a.factors.size(); ++m) {
      ASSERT_EQ(a.factors[m].cols(), 16u);
      EXPECT_EQ(std::memcmp(a.factors[m].data(), b.factors[m].data(),
                            a.factors[m].size() * sizeof(value_t)),
                0)
          << "factor " << m;
    }
  };
  // A sparse sample fits slowly and runs every iteration (covers the
  // iteration cap and the seed); two disjoint dense rank-1 blocks fit
  // almost exactly and stop on the tolerance first (covers tol).
  int iterations = 0;
  expect_same_cpd(make_frostt_tensor("nips", 1.0 / 2048, 706), &iterations);
  EXPECT_EQ(iterations, 10);
  CooTensor blocks({24, 24, 24});
  Rng rng(1);
  for (index_t b = 0; b < 2; ++b) {
    std::vector<double> u[3];
    for (auto& v : u) {
      v.resize(6);
      for (auto& e : v) e = 0.25 + rng.next_double();
    }
    for (index_t i = 0; i < 6; ++i) {
      for (index_t j = 0; j < 6; ++j) {
        for (index_t k = 0; k < 6; ++k) {
          blocks.push({6 * b + i, 6 * b + j, 6 * b + k},
                      static_cast<value_t>(u[0][i] * u[1][j] * u[2][k]));
        }
      }
    }
  }
  expect_same_cpd(blocks, &iterations);
  EXPECT_LT(iterations, 10);

  const CooTensor y = make_frostt_tensor("uber", 1.0 / 2048, 707);
  const auto core = ExecConfig{}.core_dims({2, 2, 2, 2});
  const TuckerResult c = tucker_hooi(y, core);
  const TuckerResult d =
      tucker_hooi(y, ExecConfig{core}.max_iters(15).tol(1e-5).seed(7));
  EXPECT_EQ(c.iterations, d.iterations);
  EXPECT_EQ(c.fit_history, d.fit_history);
  ASSERT_EQ(c.factors.size(), d.factors.size());
  for (std::size_t m = 0; m < c.factors.size(); ++m) {
    EXPECT_EQ(std::memcmp(c.factors[m].data(), d.factors[m].data(),
                          c.factors[m].size() * sizeof(value_t)),
              0)
        << "factor " << m;
  }
  EXPECT_EQ(std::memcmp(c.core.data(), d.core.data(),
                        c.core.size() * sizeof(value_t)),
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
