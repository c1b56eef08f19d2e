// Figure 8 reproduction: the segmented pipeline timeline itself.
// Fig. 8 is the paper's *method* diagram — H2D copies of segments
// streaming on multiple CUDA streams while earlier segments compute.
// This bench renders the actual simulated timeline of one pipelined
// MTTKRP as an ASCII Gantt chart and writes a Chrome-trace JSON
// (open in chrome://tracing or ui.perfetto.dev) for the real thing.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "gpusim/trace.hpp"
#include "obs/artifacts.hpp"

int main(int argc, char** argv) {
  using namespace scalfrag;
  using namespace scalfrag::bench;

  // --out <dir> overrides where the trace and BENCH json land
  // (otherwise $SCALFRAG_ARTIFACT_DIR or ./bench_artifacts).
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      obs::set_artifact_dir(argv[i + 1]);
    }
  }

  const auto spec = gpusim::DeviceSpec::rtx3090();
  const LaunchSelector sel = make_selector(spec);
  gpusim::SimDevice dev(spec);

  const CooTensor x = make_frostt_tensor("nell-2");
  const auto f = random_factors(x, kRank, 21);
  ExecConfig opt;
  opt.num_segments = 4;  // the paper's canonical diagram shows 4
  opt.num_streams = 4;
  const auto res = run_pipeline(dev, x, f, 0, opt, &sel);

  std::printf(
      "\nFigure 8 — pipeline timeline for nell-2 (4 segments, 4 streams, "
      "rank %u)\ntotal %0.1f us, overlap saved %0.1f us\n\n",
      kRank, res.total_ns / 1e3, res.breakdown.overlap_saved() / 1e3);

  std::fputs(gpusim::ascii_gantt(dev).c_str(), stdout);
  std::printf("\n'=' H2D copy   '#' kernel   '<' D2H   '~' host\n");

  const std::string path = obs::artifact_path("fig8_pipeline_trace.json");
  gpusim::write_chrome_trace_file(path, dev);
  std::printf("Chrome trace written to %s\n", path.c_str());

  obs::BenchRunner runner("fig8_pipeline_trace");
  gpusim::record_timeline(dev, runner.metrics(), "gpu");
  runner.with_case("nell-2/s4x4")
      .set("total_us", us_val(res.total_ns), "us",
           obs::Direction::kLowerIsBetter)
      .set("overlap_saved_us", us_val(res.breakdown.overlap_saved()), "us",
           obs::Direction::kHigherIsBetter)
      .set("segments", static_cast<double>(res.plan.size()), "count",
           obs::Direction::kInfo);
  write_bench_json(runner);
  return 0;
}
