// Pipeline executor tests: functional correctness across every option
// combination, overlap/latency invariants, memory frugality.

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

TEST(Pipeline, OutputMatchesReferenceDefaults) {
  CooTensor t = make_frostt_tensor("nell-2", 1.0 / 4096, 71);
  const auto f = random_factors(t, 16, 72);
  gpusim::SimDevice dev(kSpec);
  const auto res = run_pipeline(dev, t, f, 0);
  const auto expect = mttkrp_coo_ref(t, f, 0);
  EXPECT_LT(DenseMatrix::max_abs_diff(res.output, expect), 2e-3);
  EXPECT_EQ(res.launches.size(), res.plan.size());
}

TEST(Pipeline, OverlapBeatsSynchronousBaseline) {
  CooTensor t = make_frostt_tensor("nell-2", 1.0 / 2048, 73);
  const auto f = random_factors(t, 16, 74);
  gpusim::SimDevice dev(kSpec);

  const auto sync = parti::run_mttkrp(dev, t, f, 0);
  const auto piped = run_pipeline(dev, t, f, 0);

  EXPECT_LT(piped.total_ns, sync.total_ns);
  EXPECT_GT(piped.breakdown.overlap_saved(), 0u);
}

TEST(Pipeline, SingleStreamSingleSegmentHasNoOverlap) {
  CooTensor t = make_frostt_tensor("nips", 1.0 / 2048, 75);
  const auto f = random_factors(t, 16, 76);
  gpusim::SimDevice dev(kSpec);
  ExecConfig opt;
  opt.num_segments = 1;
  opt.num_streams = 1;
  const auto res = run_pipeline(dev, t, f, 0, opt);
  EXPECT_EQ(res.breakdown.overlap_saved(), 0u);
  ASSERT_EQ(res.plan.size(), 1u);
}

TEST(Pipeline, StaticLaunchFallbackWithoutSelector) {
  CooTensor t = make_frostt_tensor("uber", 1.0 / 2048, 77);
  const auto f = random_factors(t, 16, 78);
  gpusim::SimDevice dev(kSpec);
  ExecConfig opt;
  opt.adaptive_launch = true;  // requested but no selector available
  const auto res = run_pipeline(dev, t, f, 0, opt);
  for (const auto& l : res.launches) {
    EXPECT_EQ(l.block, 256u);  // ParTI heuristic
  }
  EXPECT_DOUBLE_EQ(res.selection_seconds, 0.0);
}

TEST(Pipeline, LaunchOverrideIsHonored) {
  CooTensor t = make_frostt_tensor("uber", 1.0 / 2048, 79);
  const auto f = random_factors(t, 16, 80);
  gpusim::SimDevice dev(kSpec);
  ExecConfig opt;
  opt.launch_override = gpusim::LaunchConfig{512, 128, 0};
  const auto res = run_pipeline(dev, t, f, 0, opt);
  for (const auto& l : res.launches) {
    EXPECT_EQ(l.grid, 512u);
    EXPECT_EQ(l.block, 128u);
    // shmem injected for the shared-memory kernel.
    EXPECT_EQ(l.shmem_per_block, kernel_shmem_bytes(128, 16));
  }
}

TEST(Pipeline, HybridSplitsWorkAndStaysCorrect) {
  CooTensor t = make_frostt_tensor("enron", 1.0 / 4096, 81);
  const auto f = random_factors(t, 16, 82);
  gpusim::SimDevice dev(kSpec);
  ExecConfig opt;
  // Threshold just above the mean slice size: a skewed tensor always
  // has sub-mean slices, so the CPU share is guaranteed non-empty.
  const auto feat = TensorFeatures::extract(t, 0);
  opt.hybrid_cpu_threshold = static_cast<nnz_t>(feat.avg_nnz_per_slice) + 1;
  const auto res = run_pipeline(dev, t, f, 0, opt);
  EXPECT_GT(res.cpu_nnz, 0u);
  EXPECT_GT(res.cpu_task_ns, 0u);
  const auto expect = mttkrp_coo_ref(t, f, 0);
  EXPECT_LT(DenseMatrix::max_abs_diff(res.output, expect), 2e-3);
}

TEST(Pipeline, RunPerformsZeroTensorCopies) {
  CooTensor t = make_frostt_tensor("enron", 1.0 / 4096, 95);
  const auto f = random_factors(t, 16, 96);
  gpusim::SimDevice dev(kSpec);
  ExecConfig opt;
  opt.num_segments = 6;
  // Hybrid on, all-CPU slices routed as zero-copy ranges too.
  const auto feat = TensorFeatures::extract(t, 0);
  opt.hybrid_cpu_threshold = static_cast<nnz_t>(feat.avg_nnz_per_slice) + 1;
  const std::uint64_t extracts_before = CooTensor::extract_calls();
  const auto res = run_pipeline(dev, t, f, 0, opt);
  // Segments and the hybrid CPU share are CooSpan views into the parent;
  // the only owning copy a run may make is the hybrid GPU compaction,
  // which goes through push(), not extract(). The process-wide extract
  // counter therefore must not move.
  EXPECT_EQ(CooTensor::extract_calls(), extracts_before);
  const auto expect = mttkrp_coo_ref(t, f, 0);
  EXPECT_LT(DenseMatrix::max_abs_diff(res.output, expect), 2e-3);
}

TEST(Pipeline, HostExecKnobKeepsResultsCorrect) {
  CooTensor t = make_frostt_tensor("nell-2", 1.0 / 4096, 97);
  const auto f = random_factors(t, 16, 98);
  gpusim::SimDevice dev(kSpec);
  const auto expect = mttkrp_coo_ref(t, f, 0);
  for (HostStrategy s : {HostStrategy::Auto, HostStrategy::Serial,
                         HostStrategy::PrivateReduce}) {
    ExecConfig opt;
    opt.num_segments = 3;
    opt.host_exec.strategy = s;
    opt.host_exec.grain_nnz = 64;  // force the parallel paths to engage
    const auto res = run_pipeline(dev, t, f, 0, opt);
    EXPECT_LT(DenseMatrix::max_abs_diff(res.output, expect), 2e-3)
        << host_strategy_name(s);
  }
}

TEST(Pipeline, SharedMemOffStillCorrectButSlowerKernels) {
  CooTensor t = make_frostt_tensor("nell-2", 1.0 / 4096, 83);
  const auto f = random_factors(t, 16, 84);
  gpusim::SimDevice dev(kSpec);
  ExecConfig on, off;
  off.use_shared_mem = false;
  const auto r_on = run_pipeline(dev, t, f, 0, on);
  const auto r_off = run_pipeline(dev, t, f, 0, off);
  const auto expect = mttkrp_coo_ref(t, f, 0);
  EXPECT_LT(DenseMatrix::max_abs_diff(r_off.output, expect), 2e-3);
  EXPECT_GT(r_off.breakdown.kernel, r_on.breakdown.kernel);
}

TEST(Pipeline, MoreSegmentsBoundDeviceMemory) {
  CooTensor t = make_frostt_tensor("nell-2", 1.0 / 2048, 85);
  const auto f = random_factors(t, 16, 86);
  gpusim::SimDevice dev(kSpec);

  ExecConfig few, many;
  few.num_segments = 1;
  few.num_streams = 1;
  many.num_segments = 16;
  many.num_streams = 2;

  dev.allocator().reset_peak();
  run_pipeline(dev, t, f, 0, few);
  const std::size_t peak_few = dev.allocator().peak();
  dev.allocator().reset_peak();
  run_pipeline(dev, t, f, 0, many);
  const std::size_t peak_many = dev.allocator().peak();
  EXPECT_LT(peak_many, peak_few);
}

TEST(Pipeline, ResultInvariantToSegmentsAndStreams) {
  CooTensor t = make_frostt_tensor("flickr-4d", 1.0 / 8192, 87);
  const auto f = random_factors(t, 8, 88);
  gpusim::SimDevice dev(kSpec);
  const auto expect = mttkrp_coo_ref(t, f, 0);
  for (int segs : {1, 3, 8}) {
    for (int streams : {1, 4}) {
      ExecConfig opt;
      opt.num_segments = segs;
      opt.num_streams = streams;
      const auto res = run_pipeline(dev, t, f, 0, opt);
      EXPECT_LT(DenseMatrix::max_abs_diff(res.output, expect), 2e-3)
          << segs << "x" << streams;
    }
  }
}

TEST(Pipeline, RejectsBadOptions) {
  CooTensor t = make_frostt_tensor("nips", 1.0 / 4096, 89);
  const auto f = random_factors(t, 8, 90);
  gpusim::SimDevice dev(kSpec);
  ExecConfig opt;
  opt.num_segments = -1;  // 0 means auto; negatives are invalid
  EXPECT_THROW(run_pipeline(dev, t, f, 0, opt), Error);
  CooTensor unsorted({4, 4});
  unsorted.push({3, 0}, 1.0f);
  unsorted.push({0, 0}, 1.0f);
  FactorList f2;
  f2.emplace_back(4, 4);
  f2.emplace_back(4, 4);
  EXPECT_THROW(run_pipeline(dev, unsorted, f2, 0), Error);
}

TEST(Pipeline, RejectsScheduleLongerThanRealizedPlan) {
  // Two slices of 4 nnz each: asking for 3 segments realizes only 2
  // (slice-aligned cuts snap forward past the requested boundary). A
  // plan holds one launch per *realized* segment; a launch list sized
  // to the request would silently pair configs with the wrong
  // segments, so the executor rejects any plan whose launches or nnz
  // do not match the view it replays on.
  CooTensor t({2, 8});
  for (index_t s = 0; s < 2; ++s) {
    for (index_t j = 0; j < 4; ++j) t.push({s, j}, 1.0f);
  }
  t.sort_by_mode(0);
  const auto f = random_factors(t, 4, 95);
  gpusim::SimDevice dev(kSpec);
  PipelinePlan plan =
      make_pipeline_plan(dev, t, 0, 4, ExecConfig{}.segments(3));
  ASSERT_EQ(plan.segments.size(), 2u);  // the premise
  ASSERT_EQ(plan.launches.size(), 2u);

  PipelineExecutor exec(dev);
  PipelinePlan longer = plan;
  longer.launches.assign(3, gpusim::LaunchConfig{32, 64, 0});
  EXPECT_THROW(exec.run(longer, t, f), Error);
  CooTensor bigger = t;
  bigger.push({1, 4}, 1.0f);
  bigger.sort_by_mode(0);
  EXPECT_THROW(exec.run(plan, bigger, f), Error);
  EXPECT_THROW(exec.run(plan, t, random_factors(t, 8, 95)), Error);

  // Sized from the realized plan, the same launches are honored 1:1.
  plan.launches.assign(2, gpusim::LaunchConfig{32, 64, 0});
  const auto res = exec.run(plan, t, f);
  ASSERT_EQ(res.launches.size(), 2u);
  EXPECT_EQ(res.launches[0].grid, 32u);
  EXPECT_EQ(res.launches[1].grid, 32u);
  EXPECT_LT(DenseMatrix::max_abs_diff(res.output, mttkrp_coo_ref(t, f, 0)),
            1e-5);
}

TEST(Pipeline, MetricsRecordPhasesAndTimeline) {
  CooTensor t = make_frostt_tensor("nell-2", 1.0 / 4096, 96);
  const auto f = random_factors(t, 8, 97);
  gpusim::SimDevice dev(kSpec);
  obs::MetricsRegistry m;
  ExecConfig opt;
  opt.num_segments = 4;
  opt.hybrid_cpu_threshold = 4;
  opt.metrics_sink = &m;
  const auto res = run_pipeline(dev, t, f, 0, opt);
  EXPECT_EQ(m.counter("pipeline/runs"), 1u);
  EXPECT_EQ(m.counter("pipeline/segments_realized"), res.plan.size());
  EXPECT_EQ(m.counter("pipeline/cpu_nnz"), res.cpu_nnz);
  EXPECT_GT(m.stage("host/segmentation").count, 0u);
  // The device timeline lands as simulated spans + utilization gauges.
  EXPECT_EQ(m.stage("gpu/Kernel").count, res.plan.size());
  EXPECT_GT(m.counter("gpu/h2d_bytes"), 0u);
  EXPECT_EQ(m.gauge("gpu/makespan_ns"), static_cast<double>(res.total_ns));
  // Kernel bodies report through the same sink via the host engine.
  EXPECT_GT(m.counter("host/calls"), 0u);
}

// Sweep: every (segments, streams) cell of the Fig. 11 grid stays
// functionally correct and finishes.
class PipelineGrid
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PipelineGrid, CorrectAcrossFig11Grid) {
  const auto [segs, streams] = GetParam();
  CooTensor t = make_frostt_tensor("uber", 1.0 / 4096, 91);
  const auto f = random_factors(t, 8, 92);
  gpusim::SimDevice dev(kSpec);
  ExecConfig opt;
  opt.num_segments = segs;
  opt.num_streams = streams;
  const auto res = run_pipeline(dev, t, f, 0, opt);
  const auto expect = mttkrp_coo_ref(t, f, 0);
  EXPECT_LT(DenseMatrix::max_abs_diff(res.output, expect), 2e-3);
  EXPECT_GT(res.total_ns, 0u);
}

INSTANTIATE_TEST_SUITE_P(Fig11Grid, PipelineGrid,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                                            ::testing::Values(1, 2, 4, 8)));

}  // namespace
}  // namespace scalfrag
