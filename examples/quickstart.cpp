// Quickstart: the smallest end-to-end use of the ScalFrag public API.
//
//   1. get a sparse tensor (here: the "nips" Table III stand-in);
//   2. train the adaptive-launch model once (offline phase, <0.5 s);
//   3. run one MTTKRP through the pipelined executor;
//   4. run a full CPD-ALS decomposition on the simulated GPU.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "scalfrag/scalfrag.hpp"

int main() {
  using namespace scalfrag;

  // 1. A sparse tensor. Swap in read_tns_file("path.tns") for real data.
  CooTensor x = make_frostt_tensor("nips");
  std::printf("tensor: order %d, nnz %s, density %s\n", x.order(),
              human_count(x.nnz()).c_str(), fmt_density(x.density()).c_str());

  // 2. Simulated RTX 3090 + one-off autotuner training.
  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
  AutoTuner tuner(dev.spec());
  const TrainingReport rep = tuner.train();
  std::printf("autotuner: %s trained in %.0f ms, test MAPE %.1f%%\n",
              rep.model_name.c_str(), rep.train_seconds * 1e3, rep.mape_test);
  const LaunchSelector selector = tuner.selector();

  // 3. One mode-0 MTTKRP through the full pipeline.
  const index_t rank = 16;
  Rng rng(1);
  FactorList factors;
  for (order_t m = 0; m < x.order(); ++m) {
    DenseMatrix f(x.dim(m), rank);
    f.randomize(rng);
    factors.push_back(std::move(f));
  }
  const PipelineResult r =
      run_pipeline(dev, x, factors, /*mode=*/0, {}, &selector);
  std::printf(
      "MTTKRP: %.1f us simulated (%zu segments, launch %s, overlap saved "
      "%.1f us)\n",
      r.total_ns / 1e3, r.plan.size(), r.launches.at(0).str().c_str(),
      r.breakdown.overlap_saved() / 1e3);

  // 4. Full CPD on the simulated device — one ExecConfig carries the
  // backend and every decomposition knob (v2 driver surface).
  const auto cfg = ExecConfig{}.backend("coo").rank(8).max_iters(10);
  const CpdResult model = cpd_als(x, cfg, &dev, &selector);
  std::printf("CPD: fit %.4f after %d iterations, %.2f ms simulated MTTKRP "
              "(backend %s)\n",
              model.final_fit, model.iterations, model.mttkrp_sim_ns / 1e6,
              model.info.backend.c_str());
  return 0;
}
