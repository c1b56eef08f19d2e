// Figure 10 reproduction: end-to-end MTTKRP (transfers + kernel) of the
// full ScalFrag pipeline (adaptive launch, auto segmentation, stream
// overlap) vs ParTI's synchronous flow. Expected shape: ScalFrag wins
// on every tensor (paper: 1.3x–2.0x); transfer-light tensors overlap a
// larger fraction; transfer-bound tensors (flickr-3d) still gain.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "tensor/mode_views.hpp"

int main() {
  using namespace scalfrag;
  using namespace scalfrag::bench;

  const auto spec = gpusim::DeviceSpec::rtx3090();
  const LaunchSelector sel = make_selector(spec);
  gpusim::SimDevice dev(spec);
  obs::BenchRunner runner("fig10_end2end");

  std::printf(
      "\nFigure 10 — End-to-end MTTKRP performance, ScalFrag vs ParTI "
      "(rank %u)\n\n",
      kRank);
  ConsoleTable t({"Tensor", "ParTI (us)", "ScalFrag (us)", "Speedup",
                  "Segments", "Overlap saved (us)"});

  double min_spd = 1e9, max_spd = 0.0;
  for (const auto& p : frostt_profiles()) {
    const CooTensor x = make_frostt_tensor(p.name);
    const auto f = random_factors(x, kRank, 9);

    const auto base = parti::run_mttkrp(dev, x, f, 0);
    const auto ours = run_pipeline(dev, x, f, 0, {}, &sel);

    // Prepare phase: one fully sorted copy per mode (what planning used
    // to keep) vs the single-sort permutation views. Wall times are
    // machine-dependent (info); the byte counts are deterministic and
    // gate the >= 2x memory reduction on the 3-mode corpus.
    WallTimer legacy_timer;
    for (order_t m = 0; m < x.order(); ++m) {
      CooTensor s = x;
      s.sort_by_mode(m);
    }
    const double legacy_ms = legacy_timer.millis();
    obs::MetricsRegistry mem;
    WallTimer views_timer;
    double views_ms = 0.0;
    {
      const ModeViews views(x, &mem);
      views_ms = views_timer.millis();
    }
    const double peak_bytes =
        mem.gauge(std::string(ModeViews::kResidentGauge) + "_peak");
    const double legacy_bytes =
        static_cast<double>(ModeViews::legacy_copies_bytes(x));
    const double mem_reduction =
        peak_bytes > 0.0 ? legacy_bytes / peak_bytes : 0.0;
    const double prep_speedup = views_ms > 0.0 ? legacy_ms / views_ms : 0.0;

    const double speedup = static_cast<double>(base.total_ns) /
                           static_cast<double>(ours.total_ns);
    min_spd = std::min(min_spd, speedup);
    max_spd = std::max(max_spd, speedup);
    t.add_row({p.name, us(base.total_ns), us(ours.total_ns),
               fmt_double(speedup, 2) + "x",
               std::to_string(ours.plan.size()),
               us(ours.breakdown.overlap_saved())});
    runner.with_case(p.name)
        .set("parti_us", us_val(base.total_ns), "us",
             obs::Direction::kLowerIsBetter)
        .set("scalfrag_us", us_val(ours.total_ns), "us",
             obs::Direction::kLowerIsBetter)
        .set("speedup", speedup, "x", obs::Direction::kHigherIsBetter)
        .set("overlap_saved_us", us_val(ours.breakdown.overlap_saved()), "us",
             obs::Direction::kHigherIsBetter)
        .set("segments", static_cast<double>(ours.plan.size()), "count",
             obs::Direction::kInfo)
        .set("prepare_legacy_ms", legacy_ms, "ms", obs::Direction::kInfo)
        .set("prepare_views_ms", views_ms, "ms", obs::Direction::kInfo)
        .set("prepare_speedup", prep_speedup, "x", obs::Direction::kInfo)
        .set("peak_resident_bytes", peak_bytes, "bytes",
             obs::Direction::kLowerIsBetter)
        .set("legacy_copies_bytes", legacy_bytes, "bytes",
             obs::Direction::kInfo)
        .set("mem_reduction", mem_reduction, "x",
             obs::Direction::kHigherIsBetter);
    std::printf(
        "[prepare] %-12s legacy %.2f ms -> views %.2f ms (%.2fx), "
        "resident %.1f MB -> %.1f MB (%.2fx)\n",
        p.name.c_str(), legacy_ms, views_ms, prep_speedup,
        legacy_bytes / 1e6, peak_bytes / 1e6, mem_reduction);
  }
  t.print();
  std::printf("\nSpeedup range: %.2fx – %.2fx (paper reports 1.3x – 2.0x)\n",
              min_spd, max_spd);
  write_bench_json(runner);
  return 0;
}
