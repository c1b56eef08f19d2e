// Ablation study (beyond the paper's figures): contribution of each
// ScalFrag ingredient to end-to-end MTTKRP time — adaptive launching,
// shared-memory tiling, pipelined segmentation, and the CPU hybrid.

#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace scalfrag;
  using namespace scalfrag::bench;

  const auto spec = gpusim::DeviceSpec::rtx3090();
  const LaunchSelector sel = make_selector(spec);
  gpusim::SimDevice dev(spec);

  std::printf("\nAblation — end-to-end MTTKRP time in us (rank %u)\n\n",
              kRank);
  obs::BenchRunner runner("ablation_features");
  ConsoleTable t({"Tensor", "full", "-adaptive", "-sharedmem", "-pipeline",
                  "+hybrid", "ParTI"});

  for (const char* name : {"vast", "nell-2", "nell-1", "flickr-3d", "deli-4d"}) {
    const CooTensor x = make_frostt_tensor(name);
    const auto f = random_factors(x, kRank, 13);

    const ExecConfig full;  // adaptive + shared mem + auto pipeline
    ExecConfig no_shared = full;
    no_shared.use_shared_mem = false;
    ExecConfig no_pipe = full;
    no_pipe.num_segments = 1;
    no_pipe.num_streams = 1;
    ExecConfig hybrid = full;
    // Budget the CPU share at half the tensor's wire time so the host
    // never becomes the pipeline's critical path.
    hybrid.hybrid_cpu_threshold = auto_hybrid_threshold(
        x, 0, kRank, hybrid.cpu_spec, gpusim::transfer_ns(spec, x.bytes()) / 2);

    const auto r_full = run_pipeline(dev, x, f, 0, full, &sel);
    const auto r_static = run_pipeline(dev, x, f, 0, full);
    const auto r_noshm = run_pipeline(dev, x, f, 0, no_shared, &sel);
    const auto r_nopipe = run_pipeline(dev, x, f, 0, no_pipe, &sel);
    const auto r_hybrid = run_pipeline(dev, x, f, 0, hybrid, &sel);
    const auto r_parti = parti::run_mttkrp(dev, x, f, 0);

    t.add_row({name, us(r_full.total_ns), us(r_static.total_ns),
               us(r_noshm.total_ns), us(r_nopipe.total_ns),
               us(r_hybrid.total_ns), us(r_parti.total_ns)});
    runner.with_case(name)
        .set("full_us", us_val(r_full.total_ns), "us",
             obs::Direction::kLowerIsBetter)
        .set("no_adaptive_us", us_val(r_static.total_ns), "us",
             obs::Direction::kLowerIsBetter)
        .set("no_sharedmem_us", us_val(r_noshm.total_ns), "us",
             obs::Direction::kLowerIsBetter)
        .set("no_pipeline_us", us_val(r_nopipe.total_ns), "us",
             obs::Direction::kLowerIsBetter)
        .set("hybrid_us", us_val(r_hybrid.total_ns), "us",
             obs::Direction::kLowerIsBetter)
        .set("parti_us", us_val(r_parti.total_ns), "us",
             obs::Direction::kLowerIsBetter)
        .set("hybrid_threshold",
             static_cast<double>(hybrid.hybrid_cpu_threshold), "nnz",
             obs::Direction::kInfo);
  }
  t.print();
  write_bench_json(runner);
  std::printf(
      "\n-adaptive : static ParTI launch heuristic for the ScalFrag "
      "kernel\n-sharedmem: per-nnz atomics instead of staged tiles\n"
      "-pipeline : one segment, one stream (no overlap)\n"
      "+hybrid   : short slices routed to the simulated i7-11700K\n");
  return 0;
}
