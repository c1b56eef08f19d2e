// Failure-injection tests: the library must fail loudly and cleanly —
// typed exceptions, no partial state, no crashes — when resources run
// out or inputs are hostile.

#include <gtest/gtest.h>

#include <sstream>

#include "gpusim/trace.hpp"
#include "parti/parti_executor.hpp"
#include "scalfrag/autotune.hpp"
#include "scalfrag/cpd.hpp"
#include "scalfrag/pipeline.hpp"
#include "tensor/generator.hpp"
#include "tensor/io_tns.hpp"

namespace scalfrag {
namespace {

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

TEST(FailureInjection, PipelineOomWhenEvenOneSegmentCannotFit) {
  gpusim::DeviceSpec tiny = gpusim::DeviceSpec::rtx3090();
  tiny.global_mem_bytes = 4 * 1024;  // 4 KB device
  gpusim::SimDevice dev(tiny);

  CooTensor t = make_frostt_tensor("nips", 1.0 / 4096, 401);
  const auto f = random_factors(t, 8, 402);
  ExecConfig opt;
  opt.num_segments = 64;
  EXPECT_THROW(run_pipeline(dev, t, f, 0, opt), DeviceOutOfMemory);
  // All partial allocations must have been released (RAII).
  EXPECT_EQ(dev.allocator().used(), 0u);
}

TEST(FailureInjection, DeviceUsableAfterOom) {
  gpusim::DeviceSpec small = gpusim::DeviceSpec::rtx3090();
  small.global_mem_bytes = 1 << 20;
  gpusim::SimDevice dev(small);

  CooTensor big = make_frostt_tensor("nell-2", 1.0 / 512, 403);
  CooTensor ok = make_frostt_tensor("nips", 1.0 / 4096, 404);
  const auto fb = random_factors(big, 8, 405);
  const auto fo = random_factors(ok, 8, 406);

  EXPECT_THROW(parti::run_mttkrp(dev, big, fb, 0), DeviceOutOfMemory);
  EXPECT_EQ(dev.allocator().used(), 0u);
  // A subsequent, fitting run succeeds on the same device.
  const auto res = parti::run_mttkrp(dev, ok, fo, 0);
  EXPECT_LT(DenseMatrix::max_abs_diff(res.output, mttkrp_coo_ref(ok, fo, 0)),
            2e-3);
}

TEST(FailureInjection, MalformedTnsInputsThrowNotCrash) {
  const char* cases[] = {
      "1 2\n3\n",                      // arity change mid-file
      "1 -2 1.0\n",                    // negative index
      "a b c\n",                       // non-numeric garbage
      "1 1 nan\n# then nothing\n x",   // trailing junk
      "999999999999999999999 1 1.0\n"  // absurd index (fits double; ok)
  };
  for (const char* text : cases) {
    std::istringstream in(text);
    try {
      const CooTensor t = read_tns(in);
      // Some inputs are legitimately parseable; they must validate.
      t.validate();
    } catch (const Error&) {
      // Typed rejection is the expected path.
    }
  }
}

TEST(FailureInjection, CpdErrorsPropagateWithoutCorruption) {
  gpusim::DeviceSpec tiny = gpusim::DeviceSpec::rtx3090();
  tiny.global_mem_bytes = 1 << 12;
  gpusim::SimDevice dev(tiny);
  const CooTensor t = make_frostt_tensor("nips", 1.0 / 4096, 407);
  EXPECT_THROW(cpd_als(t, ExecConfig{}.backend("parti").rank(8), &dev),
               DeviceOutOfMemory);
  EXPECT_EQ(dev.allocator().used(), 0u);
}

TEST(FailureInjection, EmptyGanttAndTraceAreWellFormed) {
  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
  EXPECT_TRUE(gpusim::ascii_gantt(dev).empty());
  std::ostringstream out;
  gpusim::write_chrome_trace(out, dev);
  EXPECT_EQ(out.str(), "[\n\n]\n");
  EXPECT_THROW(gpusim::ascii_gantt(dev, 0), Error);
}

TEST(FailureInjection, SelectorRejectsImpossibleRank) {
  // A rank whose shared-memory tile exceeds the per-block cap at every
  // block size leaves no feasible candidate.
  const auto spec = gpusim::DeviceSpec::rtx3090();
  auto model = make_model(ModelKind::DecisionTree);
  ml::Dataset d(TensorFeatures::kVectorSize + 4);
  std::vector<double> row(d.dim(), 0.0);
  d.add(std::span<const double>(row.data(), row.size()), 1.0);
  model->fit(d);
  const LaunchSelector sel(spec, std::move(model), /*rank=*/4096);
  CooTensor t({8, 8});
  t.push({0, 0}, 1.0f);
  EXPECT_THROW(sel.select(TensorFeatures::extract(t, 0)), Error);
}

}  // namespace
}  // namespace scalfrag
