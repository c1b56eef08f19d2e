// Cross-module integration tests: the paper's headline claims exercised
// end to end on the scaled FROSTT stand-ins — ScalFrag must beat the
// ParTI baseline in kernel time and end-to-end time, and the full
// tune→pipeline→CPD flow must hold together.

#include <gtest/gtest.h>

#include "parti/parti_executor.hpp"
#include "scalfrag/scalfrag.hpp"

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
  cfg.corpus_size = 48;
  cfg.seed = 2024;
  AutoTuner tuner(kSpec, cfg);
  tuner.train();
  return tuner.selector();
}

TEST(Integration, EndToEndSpeedupOnEveryProfile) {
  // Fig. 10: ScalFrag end-to-end beats ParTI on all ten tensors,
  // roughly 1.3×–2.0×.
  const LaunchSelector sel = trained_selector();
  gpusim::SimDevice dev(kSpec);

  for (const auto& prof : frostt_profiles()) {
    CooTensor t = make_frostt_tensor(prof.name, 1.0 / 512, 7);
    const auto f = random_factors(t, 16, 8);
    const auto base = parti::run_mttkrp(dev, t, f, 0);
    const auto ours = run_pipeline(dev, t, f, 0, {}, &sel);
    const double speedup = static_cast<double>(base.total_ns) /
                           static_cast<double>(ours.total_ns);
    EXPECT_GT(speedup, 1.0) << prof.name;
    EXPECT_LT(speedup, 4.0) << prof.name << " (suspiciously large)";
    // And identical numerics.
    EXPECT_LT(DenseMatrix::max_abs_diff(base.output, ours.output), 2e-3)
        << prof.name;
  }
}

TEST(Integration, KernelSpeedupOnEveryProfile) {
  // Fig. 9: the tuned shared-memory kernel beats ParTI's kernel.
  const LaunchSelector sel = trained_selector();
  gpusim::SimDevice dev(kSpec);
  ExecConfig one_shot;  // single segment isolates kernel behaviour
  one_shot.num_segments = 1;
  one_shot.num_streams = 1;

  for (const auto& prof : frostt_profiles()) {
    CooTensor t = make_frostt_tensor(prof.name, 1.0 / 512, 9);
    const auto f = random_factors(t, 16, 10);
    const auto base = parti::run_mttkrp(dev, t, f, 0);
    const auto ours = run_pipeline(dev, t, f, 0, one_shot, &sel);
    EXPECT_LT(ours.breakdown.kernel, base.breakdown.kernel) << prof.name;
  }
}

TEST(Integration, AdaptiveLaunchBeatsStaticForScalFragKernel) {
  const LaunchSelector sel = trained_selector();
  gpusim::SimDevice dev(kSpec);

  int wins = 0, total = 0;
  for (const char* name : {"vast", "nips", "uber", "nell-2", "enron"}) {
    CooTensor t = make_frostt_tensor(name, 1.0 / 512, 11);
    const auto f = random_factors(t, 16, 12);
    const auto a = run_pipeline(dev, t, f, 0, {}, &sel);
    const auto s = run_pipeline(dev, t, f, 0);
    wins += a.breakdown.kernel <= s.breakdown.kernel;
    ++total;
  }
  // The learned selector should win on most profiles (it can tie).
  EXPECT_GE(wins * 2, total);
}

TEST(Integration, SegmentationUnlocksTensorsBiggerThanDevice) {
  // A tensor whose COO image exceeds device memory must fail the
  // ParTI whole-tensor flow but succeed via segmentation.
  gpusim::DeviceSpec tiny = kSpec;
  tiny.global_mem_bytes = 1 << 20;  // 1 MB device
  gpusim::SimDevice dev(tiny);

  CooTensor t = make_frostt_tensor("nell-2", 1.0 / 1024, 13);  // ~1.2 MB COO
  ASSERT_GT(t.bytes(), tiny.global_mem_bytes / 2);
  const auto f = random_factors(t, 4, 14);

  EXPECT_THROW(parti::run_mttkrp(dev, t, f, 0), DeviceOutOfMemory);

  const int segs = segments_for_budget(t, 0, 4, tiny.global_mem_bytes / 8);
  ExecConfig opt;
  opt.num_segments = segs;
  opt.num_streams = 2;
  const auto res = run_pipeline(dev, t, f, 0, opt);
  const auto expect = mttkrp_coo_ref(t, f, 0);
  EXPECT_LT(DenseMatrix::max_abs_diff(res.output, expect), 2e-3);
}

TEST(Integration, CpdWithFullScalFragStackConverges) {
  const LaunchSelector sel = trained_selector();
  gpusim::SimDevice dev(kSpec);

  CooTensor t = make_frostt_tensor("nips", 1.0 / 2048, 15);
  const auto cfg =
      ExecConfig{}.backend("coo").rank(8).max_iters(5).hybrid_threshold(4);
  const CpdResult res = cpd_als(t, cfg, &dev, &sel);
  EXPECT_GT(res.final_fit, 0.0);
  EXPECT_GT(res.mttkrp_sim_ns, 0u);
  EXPECT_EQ(res.mttkrp_calls, 5 * 4);
}

TEST(Integration, CsfCompressionOnFrosttStandIns) {
  // §II-D: tree formats compress clustered tensors relative to COO.
  for (const char* name : {"nell-2", "enron"}) {
    CooTensor t = make_frostt_tensor(name, 1.0 / 2048, 16);
    const CsfTensor c = CsfTensor::build(t, 0);
    EXPECT_LT(c.bytes(), 2 * t.bytes()) << name;
    EXPECT_EQ(c.nnz(), t.nnz()) << name;
  }
}

TEST(Integration, WholeFlowIsDeterministic) {
  // Reproducibility is a core claim: the same seeds must give the same
  // tensors, the same trained model, the same selections, and the same
  // simulated timings — bit for bit — on every run.
  auto one_run = [] {
    AutoTunerConfig cfg;
    cfg.corpus_size = 8;
    cfg.seed = 909;
    AutoTuner tuner(kSpec, cfg);
    tuner.train();
    const LaunchSelector sel = tuner.selector();
    gpusim::SimDevice dev(kSpec);
    CooTensor t = make_frostt_tensor("enron", 1.0 / 2048, 910);
    const auto f = random_factors(t, 16, 911);
    const auto res = run_pipeline(dev, t, f, 0, {}, &sel);
    return std::tuple(res.total_ns, res.launches, res.plan.size(),
                      res.output(0, 0));
  };
  const auto a = one_run();
  const auto b = one_run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
}

TEST(Integration, TnsRoundTripThroughFullPipeline) {
  CooTensor t = make_frostt_tensor("uber", 1.0 / 4096, 17);
  const std::string path = ::testing::TempDir() + "scalfrag_integration.tns";
  write_tns_file(path, t);
  CooTensor loaded = read_tns_file(path, t.dims());
  std::remove(path.c_str());
  loaded.sort_by_mode(0);

  const auto f = random_factors(t, 8, 18);
  gpusim::SimDevice dev(kSpec);
  const auto res = run_pipeline(dev, loaded, f, 0);
  EXPECT_LT(DenseMatrix::max_abs_diff(res.output, mttkrp_coo_ref(t, f, 0)),
            2e-3);
}

}  // namespace
}  // namespace scalfrag
