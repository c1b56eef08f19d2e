// google-benchmark microbenchmarks for the host-side primitives the
// framework's own overhead consists of: reference MTTKRP, the parallel
// host engine, mode sorting, feature extraction, segmentation, and
// model inference. These are the costs that must stay negligible next
// to the simulated device times.
//
// main() first runs the host-engine thread sweep (1M-nnz synthetic
// tensor, ref vs mttkrp_coo_par at 1/2/4/hw threads) and writes it to
// BENCH_host_mttkrp.json, then hands over to google-benchmark.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "tensor/mode_views.hpp"
#include "tensor/mttkrp_par.hpp"

namespace {

using namespace scalfrag;
using namespace scalfrag::bench;

const CooTensor& nips_tensor() {
  static const CooTensor t = make_frostt_tensor("nips", 1.0 / 512, 3);
  return t;
}

void BM_MttkrpReference(benchmark::State& state) {
  const CooTensor& t = nips_tensor();
  const auto f = random_factors(t, static_cast<index_t>(state.range(0)), 4);
  DenseMatrix out(t.dim(0), static_cast<index_t>(state.range(0)));
  for (auto _ : state) {
    mttkrp_coo_ref(t, f, 0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(BM_MttkrpReference)->Arg(8)->Arg(16)->Arg(32);

void BM_MttkrpParallel(benchmark::State& state) {
  const CooTensor& t = nips_tensor();
  const auto f = random_factors(t, 16, 4);
  DenseMatrix out(t.dim(0), 16);
  HostExecParams opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  opt.grain_nnz = 4096;
  for (auto _ : state) {
    mttkrp_coo_par(t, f, 0, out, /*accumulate=*/false, opt);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(BM_MttkrpParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(0);  // 0 = pool

void BM_MttkrpCsf(benchmark::State& state) {
  const CooTensor& t = nips_tensor();
  const auto f = random_factors(t, 16, 4);
  const CsfTensor c = CsfTensor::build(t, 0);
  DenseMatrix out(t.dim(0), 16);
  for (auto _ : state) {
    mttkrp_csf(c, f, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(BM_MttkrpCsf);

void BM_SortByMode(benchmark::State& state) {
  const CooTensor base = nips_tensor();
  for (auto _ : state) {
    CooTensor t = base;
    t.sort_by_mode(2);
    benchmark::DoNotOptimize(t.nnz());
  }
}
BENCHMARK(BM_SortByMode);

void BM_FeatureExtraction(benchmark::State& state) {
  const CooTensor& t = nips_tensor();
  for (auto _ : state) {
    const auto f = TensorFeatures::extract(t, 0);
    benchmark::DoNotOptimize(f.num_fibers);
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_Segmentation(benchmark::State& state) {
  const CooTensor& t = nips_tensor();
  for (auto _ : state) {
    const auto plan =
        make_segments(t, 0, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(plan.segments.data());
  }
}
BENCHMARK(BM_Segmentation)->Arg(4)->Arg(16);

void BM_SelectorInference(benchmark::State& state) {
  const auto spec = gpusim::DeviceSpec::rtx3090();
  static const LaunchSelector sel = make_selector(spec, /*verbose=*/false);
  const auto feat = TensorFeatures::extract(nips_tensor(), 0);
  for (auto _ : state) {
    const Selection s = sel.select(feat);
    benchmark::DoNotOptimize(s.config.grid);
  }
}
BENCHMARK(BM_SelectorInference);

// ---------------------------------------------------------------------
// Host-engine thread sweep → BENCH_host_mttkrp.json (schema v1).

/// Interleaved scalar/SIMD run pairs per SIMD case.
constexpr int kSimdPairs = 15;

void run_host_mttkrp_sweep() {
  GeneratorConfig g;
  g.dims = {4096, 4096, 2048};
  g.nnz = 1'000'000;
  g.skew = {1.4, 1.2, 1.0};
  g.seed = 7;
  CooTensor t = generate_coo(g);
  t.sort_by_mode(0);
  // Features are computed once by the planner in real runs; pass them so
  // strategy selection does not re-probe the index array per call.
  const auto feat = TensorFeatures::extract(t, 0);
  const auto f = random_factors(t, kRank, 8);
  DenseMatrix out(t.dim(0), kRank);
  // All metrics here are host wall clock — real measurements worth
  // tracking, but machine-dependent, so "info": recorded in the
  // trajectory yet never gated by bench_compare.
  const obs::RepeatPolicy policy{/*warmup=*/1, /*reps=*/3};
  obs::BenchRunner runner("host_mttkrp");

  std::printf("[host_mttkrp] tensor %ux%ux%u nnz=%llu rank=%u\n", g.dims[0],
              g.dims[1], g.dims[2],
              static_cast<unsigned long long>(t.nnz()), kRank);
  obs::BenchCase& ref_case = runner.with_case("ref");
  const double ref_ms =
      ref_case
          .measure("time_ms", "ms", obs::Direction::kInfo, policy,
                   [&] {
                     WallTimer timer;
                     mttkrp_coo_ref(t, f, 0, out);
                     return timer.millis();
                   })
          .median;
  std::printf("[host_mttkrp] ref                 %8.2f ms\n", ref_ms);

  const std::size_t hw = ThreadPool::global().size();
  std::vector<std::size_t> counts{1, 2, 4};
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  runner.metrics().set("pool_threads", static_cast<double>(hw));
  runner.metrics().count("sweep_nnz", t.nnz());

  for (const std::size_t threads : counts) {
    HostExecParams opt;
    opt.threads = threads;
    opt.features = &feat;
    const HostStrategy strat = choose_host_strategy(t, 0, opt);
    obs::BenchCase& c = runner.with_case("par_t" + std::to_string(threads));
    const double par_ms =
        c.measure("time_ms", "ms", obs::Direction::kInfo, policy,
                  [&] {
                    WallTimer timer;
                    mttkrp_coo_par(t, f, 0, out, /*accumulate=*/false, opt);
                    return timer.millis();
                  })
            .median;
    const double speedup = ref_ms / par_ms;
    c.set("speedup_vs_ref", speedup, "x", obs::Direction::kInfo);
    std::printf("[host_mttkrp] par t=%-2zu %-13s %8.2f ms  %.2fx vs ref\n",
                threads, host_strategy_name(strat), par_ms, speedup);
  }

  // Single-sort permutation views on the same tensor: the gather-view
  // kernel time (wall clock, info) and the resident-memory comparison
  // against the per-mode-copies scheme. The byte counts depend only on
  // nnz/order, so they ARE gateable — the perf-smoke job holds the
  // >= 2x reduction on this 3-mode sweep tensor.
  const ModeViews views(t);
  {
    DenseMatrix out1(t.dim(1), kRank);
    HostExecParams opt;
    opt.threads = hw;
    obs::BenchCase& c = runner.with_case("par_gather_view");
    const double gather_ms =
        c.measure("time_ms", "ms", obs::Direction::kInfo, policy,
                  [&] {
                    WallTimer timer;
                    mttkrp_coo_par(views.view(1), f, 1, out1,
                                   /*accumulate=*/false, opt);
                    return timer.millis();
                  })
            .median;
    std::printf("[host_mttkrp] gather view (m=1)   %8.2f ms\n", gather_ms);
  }
  // SIMD microkernel speedups: the same engine forced onto the scalar
  // kernel table vs the auto-detected ISA table (src/tensor/simd/), on
  // the contiguous span (mode 0) and the gather view (mode 1), at
  // 1/2/4 worker caps under compact pinning. Scalar and SIMD runs are
  // interleaved in pairs, alternating which table runs first, and the
  // gated speedup_vs_scalar is the median of the per-pair ratios: a
  // burst of host load or a clock change then hits both halves of a
  // pair instead of one whole series. It is still a wall-clock ratio
  // of one ISA, so it is isa_sensitive: bench_compare warns instead of
  // gating when baseline and current ISAs differ.
  {
    ThreadPool::global().apply_pinning(PinPolicy::Compact);
    const HostIsa best = detect_host_isa();
    std::printf("[host_mttkrp] simd table: %s (%d lanes, pinning=compact)\n",
                host_isa_name(best), host_isa_lanes(best));
    DenseMatrix out1(t.dim(1), kRank);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (const bool gather : {false, true}) {
        HostExecParams opt;
        opt.threads = threads;
        opt.pinning = PinPolicy::Compact;
        if (!gather) opt.features = &feat;
        const order_t mode = gather ? 1 : 0;
        DenseMatrix& o = gather ? out1 : out;
        auto run_isa = [&](HostIsa isa) {
          opt.isa = isa;
          WallTimer timer;
          if (gather) {
            mttkrp_coo_par(views.view(1), f, mode, o, /*accumulate=*/false,
                           opt);
          } else {
            mttkrp_coo_par(t, f, mode, o, /*accumulate=*/false, opt);
          }
          return timer.millis();
        };
        obs::BenchCase& c = runner.with_case(
            std::string(gather ? "simd_gather_t" : "simd_ident_t") +
            std::to_string(threads));
        run_isa(HostIsa::Scalar);  // warm both tables
        run_isa(best);
        std::vector<double> scalar_ms, simd_ms, ratio;
        for (int pair = 0; pair < kSimdPairs; ++pair) {
          const bool scalar_first = pair % 2 == 0;
          const double first = run_isa(scalar_first ? HostIsa::Scalar : best);
          const double second = run_isa(scalar_first ? best : HostIsa::Scalar);
          scalar_ms.push_back(scalar_first ? first : second);
          simd_ms.push_back(scalar_first ? second : first);
          ratio.push_back(scalar_ms.back() / simd_ms.back());
          c.add_sample("scalar_ms", scalar_ms.back(), "ms",
                       obs::Direction::kInfo);
          c.add_sample("simd_ms", simd_ms.back(), "ms", obs::Direction::kInfo);
          c.add_sample("speedup_vs_scalar", ratio.back(), "x",
                       obs::Direction::kHigherIsBetter,
                       /*isa_sensitive=*/true);
        }
        std::printf(
            "[host_mttkrp] simd %-6s t=%-2zu scalar %8.2f ms  %s %8.2f ms "
            " %.2fx\n",
            gather ? "gather" : "ident", threads,
            obs::summarize(scalar_ms).median, host_isa_name(best),
            obs::summarize(simd_ms).median, obs::summarize(ratio).median);
      }
    }
  }
  {
    const double views_bytes = static_cast<double>(views.resident_bytes());
    const double legacy_bytes =
        static_cast<double>(ModeViews::legacy_copies_bytes(t));
    obs::BenchCase& c = runner.with_case("plan_memory");
    c.set("views_resident_bytes", views_bytes, "bytes",
          obs::Direction::kLowerIsBetter);
    c.set("legacy_copies_bytes", legacy_bytes, "bytes",
          obs::Direction::kInfo);
    c.set("memory_reduction", legacy_bytes / views_bytes, "x",
          obs::Direction::kHigherIsBetter);
    std::printf("[host_mttkrp] plan memory %.1f MB -> %.1f MB (%.2fx)\n",
                legacy_bytes / 1e6, views_bytes / 1e6,
                legacy_bytes / views_bytes);
  }
  write_bench_json(runner);
}

}  // namespace

int main(int argc, char** argv) {
  run_host_mttkrp_sweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
