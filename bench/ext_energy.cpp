// Extension bench (not a paper figure): estimated energy of end-to-end
// MTTKRP, ScalFrag vs ParTI. Pipelining saves energy twice over —
// faster kernels cut busy joules and a shorter makespan cuts idle
// joules (§VI-C's accelerators report exactly this "energy benefit").

#include <cstdio>

#include "bench_common.hpp"
#include "gpusim/energy.hpp"

int main() {
  using namespace scalfrag;
  using namespace scalfrag::bench;

  const auto spec = gpusim::DeviceSpec::rtx3090();
  const LaunchSelector sel = make_selector(spec);
  gpusim::SimDevice dev(spec);
  const gpusim::PowerModel pm = gpusim::PowerModel::rtx3090();

  std::printf(
      "\nEstimated energy per end-to-end MTTKRP (mJ, rank %u; %0.f W "
      "kernel / %0.f W copy / %0.f W idle)\n\n",
      kRank, pm.kernel_w, pm.copy_w, pm.idle_w);
  obs::BenchRunner runner("ext_energy");
  ConsoleTable t({"Tensor", "ParTI (mJ)", "ScalFrag (mJ)", "Savings",
                  "idle mJ saved"});

  for (const auto& p : frostt_profiles()) {
    const CooTensor x = make_frostt_tensor(p.name);
    const auto f = random_factors(x, kRank, 31);

    parti::run_mttkrp(dev, x, f, 0);
    const auto e_base = gpusim::estimate_energy(dev, pm);
    run_pipeline(dev, x, f, 0, {}, &sel);
    const auto e_ours = gpusim::estimate_energy(dev, pm);

    const double base_mj = e_base.total_j() * 1e3;
    const double ours_mj = e_ours.total_j() * 1e3;
    t.add_row({p.name, fmt_double(base_mj, 3), fmt_double(ours_mj, 3),
               fmt_double(100.0 * (1.0 - ours_mj / base_mj), 1) + "%",
               fmt_double((e_base.idle_j - e_ours.idle_j) * 1e3, 3)});
    runner.with_case(p.name)
        .set("parti_mj", base_mj, "mJ", obs::Direction::kLowerIsBetter)
        .set("scalfrag_mj", ours_mj, "mJ", obs::Direction::kLowerIsBetter)
        .set("savings_pct", 100.0 * (1.0 - ours_mj / base_mj), "%",
             obs::Direction::kHigherIsBetter);
  }
  t.print();
  write_bench_json(runner);
  std::printf(
      "\nNote the tradeoff: segmentation adds per-kernel launch energy, "
      "so a\ntensor whose kernels were already cheap relative to its "
      "transfers\n(enron) can spend slightly more total energy despite "
      "finishing sooner.\n");
  return 0;
}
