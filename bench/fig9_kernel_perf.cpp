// Figure 9 reproduction: kernel-only performance of ScalFrag (adaptive
// launch + shared-memory tiling) vs ParTI (static launch + per-nnz
// atomics) across all ten tensors, plus the CSF tiled backend under the
// same chosen launch (cost-modeled from the tree's exact node counts,
// so the COO-vs-CSF comparison is deterministic and gateable). Expected
// shape: ScalFrag beats ParTI everywhere (the paper reports ≈2.2x on
// nips, ≈1.2x on vast); CSF tiled wins where fibers are long enough to
// amortize the tree walk.

#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace scalfrag;
  using namespace scalfrag::bench;

  const auto spec = gpusim::DeviceSpec::rtx3090();
  const LaunchSelector sel = make_selector(spec);
  gpusim::SimDevice dev(spec);
  obs::BenchRunner runner("fig9_kernel_perf");
  ExecConfig kernel_only;  // one segment isolates kernel behaviour
  kernel_only.num_segments = 1;
  kernel_only.num_streams = 1;
  kernel_only.metrics_sink = &runner.metrics();

  // The CSF series must stay machine-independent: pin the tiling to a
  // fixed worker count instead of the runtime thread pool.
  constexpr std::size_t kTileWorkers = 8;

  std::printf(
      "\nFigure 9 — MTTKRP kernel performance, ScalFrag vs ParTI "
      "(rank %u)\n\n",
      kRank);
  ConsoleTable t({"Tensor", "ParTI (us)", "ScalFrag (us)", "ScalFrag GF/s",
                  "Speedup", "CSF-tiled (us)", "CSF/COO", "Chosen launch"});

  for (const auto& p : frostt_profiles()) {
    const CooTensor x = make_frostt_tensor(p.name);
    const auto f = random_factors(x, kRank, 7);
    const std::uint64_t flops = mttkrp_flops(x, kRank);

    const auto base = parti::run_mttkrp(dev, x, f, 0);
    const auto ours = run_pipeline(dev, x, f, 0, kernel_only, &sel);

    // CSF tiled under the SAME adaptive launch: the joint heuristic
    // picks the schedule, the cost model prices the tree walk.
    const auto feat = TensorFeatures::extract(x, 0);
    const JointChoice joint = heuristic_joint_choice(feat, kRank);
    const CsfTensor csf = CsfTensor::build(x, 0);
    const CsfTiling tiling =
        CsfTiling::build(csf, CsfTiling::auto_budget(csf, kTileWorkers));
    const gpusim::KernelProfile csf_prof =
        csf_tiled_profile(csf, tiling, kRank, joint.variant);
    const sim_ns csf_ns =
        dev.cost_model().kernel_ns(ours.launches.at(0), csf_prof);

    const double ours_gf =
        static_cast<double>(flops) / static_cast<double>(ours.breakdown.kernel);
    const double speedup = static_cast<double>(base.breakdown.kernel) /
                           static_cast<double>(ours.breakdown.kernel);
    const double csf_vs_coo = static_cast<double>(ours.breakdown.kernel) /
                              static_cast<double>(csf_ns);
    t.add_row({p.name, us(base.breakdown.kernel), us(ours.breakdown.kernel),
               fmt_double(ours_gf, 1), fmt_double(speedup, 2) + "x",
               us(csf_ns), fmt_double(csf_vs_coo, 2) + "x",
               ours.launches.at(0).str()});
    runner.with_case(p.name)
        .set("parti_kernel_us", us_val(base.breakdown.kernel), "us",
             obs::Direction::kLowerIsBetter)
        .set("scalfrag_kernel_us", us_val(ours.breakdown.kernel), "us",
             obs::Direction::kLowerIsBetter)
        .set("speedup", speedup, "x", obs::Direction::kHigherIsBetter)
        .set("scalfrag_gflops", ours_gf, "GF/s",
             obs::Direction::kHigherIsBetter)
        .set("csf_tiled_kernel_us", us_val(csf_ns), "us",
             obs::Direction::kLowerIsBetter)
        .set("csf_vs_coo_speedup", csf_vs_coo, "x",
             obs::Direction::kHigherIsBetter);
  }
  t.print();
  std::printf(
      "\n(CSF-tiled series: heuristic joint schedule, %zu-worker tiling, "
      "cost-modeled under ScalFrag's chosen launch)\n",
      kTileWorkers);
  write_bench_json(runner);
  return 0;
}
