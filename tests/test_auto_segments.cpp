// Auto-segmentation rule tests: the cost-model-driven segment count
// must never lose to the obviously wrong extremes, across scales.

#include <gtest/gtest.h>

#include "parti/parti_executor.hpp"
#include "scalfrag/pipeline.hpp"
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

TEST(AutoSegments, RuleReturnsSaneCounts) {
  gpusim::SimDevice dev(kSpec);
  const ExecConfig opt;
  // Tiny tensor → 1 segment; big tensor → several.
  CooTensor tiny = make_frostt_tensor("nips", 1.0 / 4096, 701);
  CooTensor big = make_frostt_tensor("deli-3d", 1.0 / 256, 702);
  const int k_tiny = auto_segment_count(dev, tiny, 0, 16, opt,
                                        TensorFeatures::extract(tiny, 0));
  const int k_big = auto_segment_count(dev, big, 0, 16, opt,
                                       TensorFeatures::extract(big, 0));
  EXPECT_GE(k_tiny, 1);
  EXPECT_LE(k_tiny, 2);
  EXPECT_GT(k_big, k_tiny);
  EXPECT_LE(k_big, 8);

  CooTensor empty({4, 4});
  EXPECT_EQ(auto_segment_count(dev, empty, 0, 16, opt,
                               TensorFeatures::extract(empty, 0)),
            1);
}

// Property over scales: the auto rule must beat (or roughly tie, the
// estimator is a heuristic) both degenerate strategies — no
// segmentation and max segmentation.
class AutoSegmentsScale : public ::testing::TestWithParam<int> {};

TEST_P(AutoSegmentsScale, NeverLosesToExtremes) {
  const int denom = GetParam();
  CooTensor t = make_frostt_tensor("nell-2", 1.0 / denom, 703);
  const auto f = random_factors(t, 16, 704);
  gpusim::SimDevice dev(kSpec);

  ExecConfig auto_opt;  // num_segments = 0 (auto)
  ExecConfig one;
  one.num_segments = 1;
  ExecConfig many;
  many.num_segments = 16;

  const sim_ns t_auto = run_pipeline(dev, t, f, 0, auto_opt).total_ns;
  const sim_ns t_one = run_pipeline(dev, t, f, 0, one).total_ns;
  const sim_ns t_many = run_pipeline(dev, t, f, 0, many).total_ns;

  EXPECT_LE(static_cast<double>(t_auto), 1.08 * t_one) << "lost to k=1";
  EXPECT_LE(static_cast<double>(t_auto), 1.08 * t_many) << "lost to k=16";
}

INSTANTIATE_TEST_SUITE_P(Scales, AutoSegmentsScale,
                         ::testing::Values(4096, 1024, 512, 256));

TEST(AutoSegments, PipelineBeatsParTiAcrossScales) {
  // The regression the rule exists to prevent: ScalFrag must not lose
  // end-to-end at small scales where over-segmentation used to hurt.
  gpusim::SimDevice dev(kSpec);
  for (int denom : {4096, 1024, 256}) {
    CooTensor t = make_frostt_tensor("nell-2", 1.0 / denom, 705);
    const auto f = random_factors(t, 16, 706);
    const auto base = parti::run_mttkrp(dev, t, f, 0);
    const auto ours = run_pipeline(dev, t, f, 0);
    EXPECT_LT(ours.total_ns, base.total_ns) << "1/" << denom;
  }
}

}  // namespace
}  // namespace scalfrag
