// cpd-nell2 and cpd-deli4d: one CPD-ALS time-to-solution per timed
// operation, backend "coo" on one simulated RTX 3090 with adaptive
// launching, rank 16, 10 iterations with tol 0 so the work is fixed.
// The host kernel runs on one thread: on a shared host, a pool that
// spans every CPU waits on its slowest worker, and the solve time
// spread 21-27% over ten runs.
//
// The untraced run times cpd_als itself. The traced run times a copy of
// cpd_als's "coo" loop assembled from public calls (ModeViews,
// MttkrpPlan, run_on, linalg::*), one span per call, and checks that
// the copy's factors match cpd_als bit for bit.

#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>

#include "bench.hpp"
#include "tensor_common.hpp"
#include "common/rng.hpp"
#include "scalfrag/cpd.hpp"
#include "tensor/linalg.hpp"
#include "testing/oracle.hpp"

namespace perfbench {
namespace {

using namespace scalfrag;
using Clock = std::chrono::steady_clock;

constexpr index_t kRank = 16;
constexpr int kIters = 10;

ExecConfig cpd_config(const Options& opt) {
  return ExecConfig{}.backend("coo").rank(kRank).max_iters(kIters).tol(0.0)
      .seed(opt.seed + 1).threads(1);
}

/// The result of one traced replica solve plus what the pipeline
/// reported along the way.
struct Replica {
  CpdResult res;
  // Summed over the solve's MTTKRP calls.
  sim_ns h2d = 0, kernel = 0, d2h = 0, overlap_saved = 0;
  std::size_t segments = 0;  // realized segments
  double resident_mb = 0.0;
  std::vector<std::size_t> plan_segments;  // per mode
};

/// cpd_als's "coo" single-device path, call for call (src/scalfrag/cpd.cpp),
/// with a span around every library call. Kept in step with cpd_als by
/// the bit-identity check in run_traced.
Replica replica_solve(const CooTensor& x, const ExecConfig& cfg,
                      gpusim::SimDevice& dev, const LaunchSelector& sel,
                      Tracer& tr) {
  Tracer::Scope root(&tr, "cpd.solve");
  const order_t order = x.order();
  Replica out;
  CpdResult& res = out.res;

  std::optional<ModeViews> views;
  {
    Tracer::Scope s(&tr, "tensor.mode_views.build");
    views.emplace(x);
  }
  std::optional<MttkrpPlan> plan;
  {
    Tracer::Scope s(&tr, "scalfrag.plan.build");
    plan.emplace(std::move(*views), kRank, dev, &sel, cfg);
  }
  out.resident_mb = static_cast<double>(plan->resident_bytes()) / (1 << 20);
  for (order_t m = 0; m < order; ++m) {
    out.plan_segments.push_back(plan->mode(m).segments.size());
  }

  std::vector<DenseMatrix> grams(order);
  double norm_x_sq = 0.0;
  {
    Tracer::Scope s(&tr, "cpd.init");
    Rng rng(cfg.decomp_seed);
    for (order_t m = 0; m < order; ++m) {
      DenseMatrix f(x.dim(m), kRank);
      f.randomize(rng);
      res.factors.push_back(std::move(f));
    }
    res.lambda.assign(kRank, 1.0);
    for (order_t m = 0; m < order; ++m) {
      Tracer::Scope g(&tr, "tensor.linalg.gram");
      grams[m] = linalg::gram(res.factors[m]);
    }
    for (value_t v : x.values()) {
      norm_x_sq += static_cast<double>(v) * static_cast<double>(v);
    }
  }
  const double norm_x = std::sqrt(norm_x_sq);

  for (int it = 0; it < kIters; ++it) {
    DenseMatrix last_m;
    for (order_t mode = 0; mode < order; ++mode) {
      PipelineResult r;
      {
        Tracer::Scope s(&tr, "scalfrag.pipeline.run_on");
        r = plan->run_on(dev, res.factors, mode, nullptr);
      }
      res.mttkrp_sim_ns += r.total_ns;
      ++res.mttkrp_calls;
      out.h2d += r.breakdown.h2d;
      out.kernel += r.breakdown.kernel;
      out.d2h += r.breakdown.d2h;
      out.overlap_saved += r.breakdown.overlap_saved();
      out.segments += r.plan.size();

      DenseMatrix v(kRank, kRank, 1.0f);
      {
        Tracer::Scope s(&tr, "tensor.linalg.hadamard");
        for (order_t m = 0; m < order; ++m) {
          if (m != mode) linalg::hadamard_inplace(v, grams[m]);
        }
      }
      DenseMatrix pinv;
      {
        Tracer::Scope s(&tr, "tensor.linalg.pinv_spd");
        pinv = linalg::pinv_spd(v);
      }
      DenseMatrix updated;
      {
        Tracer::Scope s(&tr, "tensor.linalg.matmul");
        updated = linalg::matmul(r.output, pinv);
      }
      {
        Tracer::Scope s(&tr, "tensor.linalg.normalize");
        const auto norms = linalg::column_norms(updated);
        for (index_t f = 0; f < kRank; ++f) {
          res.lambda[f] = norms[f] > 1e-30 ? norms[f] : 1.0;
        }
        for (index_t i = 0; i < updated.rows(); ++i) {
          value_t* row = updated.row(i);
          for (index_t f = 0; f < kRank; ++f) {
            row[f] = static_cast<value_t>(row[f] / res.lambda[f]);
          }
        }
      }
      res.factors[mode] = std::move(updated);
      {
        Tracer::Scope s(&tr, "tensor.linalg.gram");
        grams[mode] = linalg::gram(res.factors[mode]);
      }
      if (mode + 1 == order) last_m = std::move(r.output);
    }

    Tracer::Scope s(&tr, "cpd.fit");
    double norm_model_sq = 0.0;
    for (index_t f = 0; f < kRank; ++f) {
      for (index_t g = 0; g < kRank; ++g) {
        double prod = res.lambda[f] * res.lambda[g];
        for (order_t m = 0; m < order; ++m) prod *= grams[m](f, g);
        norm_model_sq += prod;
      }
    }
    const order_t last = static_cast<order_t>(order - 1);
    double inner = 0.0;
    for (index_t i = 0; i < res.factors[last].rows(); ++i) {
      const value_t* mrow = last_m.row(i);
      const value_t* arow = res.factors[last].row(i);
      for (index_t f = 0; f < kRank; ++f) {
        inner += res.lambda[f] * static_cast<double>(mrow[f]) *
                 static_cast<double>(arow[f]);
      }
    }
    const double resid_sq =
        std::max(0.0, norm_x_sq - 2.0 * inner + norm_model_sq);
    res.fit_history.push_back(1.0 - std::sqrt(resid_sq) / norm_x);
    res.iterations = it + 1;
  }
  res.final_fit = res.fit_history.back();
  return out;
}

bool same_solve(const CpdResult& a, const CpdResult& b, const Report& rep) {
  if (a.factors.size() != b.factors.size() || a.lambda != b.lambda ||
      a.final_fit != b.final_fit || a.mttkrp_sim_ns != b.mttkrp_sim_ns) {
    return false;
  }
  for (std::size_t m = 0; m < a.factors.size(); ++m) {
    if (!same_bits(a.factors[m], rep.checked(b.factors[m]))) return false;
  }
  return true;
}

/// Times `solve` until `seconds` have passed and at least `min_n` solves
/// ran; each result must match `ref` bit for bit.
std::vector<double> timed_solves(double seconds, std::size_t min_n,
                                 const std::function<CpdResult()>& solve,
                                 const CpdResult& ref, Report& rep) {
  std::vector<double> walls;
  const auto t_loop = Clock::now();
  std::size_t tries = 0;
  while (tries < min_n || since(t_loop) < seconds) {
    ++tries;
    try {
      const auto t0 = Clock::now();
      const CpdResult r = solve();
      walls.push_back(since(t0));
      rep.op(same_solve(ref, r, rep),
             "a repeated cpd_als solve differs from the run's first solve");
    } catch (const std::exception& e) {
      rep.op(false, std::string("cpd_als threw: ") + e.what());
    }
  }
  SF_CHECK(!walls.empty(), "no cpd_als solve completed");
  return walls;
}

/// Correctness checks after the timed loop. Returns each mode's
/// simulated MTTKRP time, which is what cpd_als pays per call.
std::vector<sim_ns> check_cpd(const Options& opt, const CooTensor& x,
                              const ExecConfig& cfg, const LaunchSelector& sel,
                              gpusim::SimDevice& dev, const CpdResult& ref,
                              Report& rep) {
  // One MTTKRP per mode through the plan cpd_als builds, against the
  // double-precision oracle and its tolerance model.
  const MttkrpPlan plan(x, kRank, dev, &sel, cfg);
  Rng rng(opt.seed + 7);
  FactorList factors;
  for (order_t m = 0; m < x.order(); ++m) {
    factors.emplace_back(x.dim(m), kRank);
    factors.back().randomize(rng);
  }
  std::vector<sim_ns> mode_sim;
  for (order_t m = 0; m < x.order(); ++m) {
    const PipelineResult r = plan.run_on(dev, factors, m);
    mode_sim.push_back(r.total_ns);
    const auto diff = testing::compare_to_oracle(
        testing::mttkrp_oracle(x, factors, m), rep.checked(r.output),
        x.order());
    rep.op(!diff.diverged, "mode-" + std::to_string(m) +
                               " MTTKRP outside the oracle's tolerance");
  }
  sim_ns per_solve = 0;
  for (const sim_ns t : mode_sim) per_solve += t * kIters;
  rep.op(per_solve == ref.mttkrp_sim_ns,
         "per-mode plan replays do not add up to cpd_als's simulated time");

  // The same decomposition on the host engine: same seed, same fit up
  // to float reassociation.
  const CpdResult host =
      cpd_als(x, ExecConfig(cfg).backend("coo_host"), nullptr, nullptr);
  rep.op(std::abs(rep.checked(host.final_fit) - ref.final_fit) <= 1e-3,
         "final_fit differs from the coo_host run by more than 1e-3");
  return mode_sim;
}

/// Per-layer metrics of the traced run, each per solve and the median
/// over the traced solves.
void report_cpd_layers(const CooTensor& x, const std::vector<Replica>& reps,
                       const std::vector<double>& untraced_walls,
                       Tracer& tr, Report& rep) {
  const std::vector<int> roots = tr.find("cpd.solve");
  auto per_solve = [&](const char* span) {
    std::vector<double> v;
    for (const int r : roots) v.push_back(tr.total(span, r));
    return median(v);
  };
  const Tracer::Roots solves = tr.roots("cpd.solve");
  const std::size_t n = roots.size();
  const double replay = per_solve("scalfrag.pipeline.run_on");
  rep.set("tensor.mode_views.build_s", per_solve("tensor.mode_views.build"), n);
  rep.set("tensor.mode_views.resident_mb", reps.back().resident_mb);
  rep.set("scalfrag.plan.build_s", per_solve("scalfrag.plan.build"), n);
  rep.set("scalfrag.pipeline.replay_s", replay, n);
  rep.set("tensor.linalg.gram_s", per_solve("tensor.linalg.gram"), n);
  rep.set("tensor.linalg.hadamard_s", per_solve("tensor.linalg.hadamard"), n);
  rep.set("tensor.linalg.pinv_spd_s", per_solve("tensor.linalg.pinv_spd"), n);
  rep.set("tensor.linalg.matmul_s", per_solve("tensor.linalg.matmul"), n);
  rep.set("tensor.linalg.normalize_s", per_solve("tensor.linalg.normalize"),
          n);
  rep.set("cpd.fit_s", per_solve("cpd.fit"), n);
  rep.set("trace.unattributed_frac", median(solves.unattributed), n);
  rep.set("trace.overhead_frac",
          median(solves.seconds) / median(untraced_walls) - 1.0, n);

  const Replica& last = reps.back();
  rep.set("gpusim.h2d_ms_sim", static_cast<double>(last.h2d) * 1e-6);
  rep.set("gpusim.kernel_ms_sim", static_cast<double>(last.kernel) * 1e-6);
  rep.set("gpusim.d2h_ms_sim", static_cast<double>(last.d2h) * 1e-6);
  rep.set("gpusim.overlap_saved_ms_sim",
          static_cast<double>(last.overlap_saved) * 1e-6);
  rep.set("scalfrag.pipeline.segments", static_cast<double>(last.segments));

  // The host kernel and the segmenter on their own, on the views a
  // replay executes on, scaled to one solve's call count.
  std::vector<int> segments(last.plan_segments.begin(),
                            last.plan_segments.end());
  const double kernel_s = host_kernel_layers(
      ModeViews(x), last.res.factors, segments, kIters, &tr, rep);
  rep.set("scalfrag.pipeline.wrapper_s", replay - kernel_s, n);
}

}  // namespace

void run_cpd(const Options& opt, Report& rep) {
  const bool nell = opt.workload == "cpd-nell2";
  const std::string profile = nell ? "nell-2" : "deli-4d";
  const double scale = (nell ? 1.0 / 128 : 1.0 / 512) / (opt.tiny ? 64 : 1);
  const std::size_t min_solves = opt.tiny ? 2 : 3;
  const ExecConfig cfg = cpd_config(opt);
  std::optional<Tracer> tracer;
  if (opt.trace) tracer.emplace();
  Tracer* const tr = opt.trace ? &*tracer : nullptr;

  const TensorSetup setup = tensor_setup(opt, profile, scale,
                                         /*build_views=*/false, tr);
  const CooTensor& x = setup.x;
  const LaunchSelector* sel = &*setup.selector;
  setup.census(rep, profile, scale);
  rep.census("rank", kRank);
  rep.census("iterations", kIters);

  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
  auto solve = [&] { return cpd_als(x, cfg, &dev, sel); };

  // The first solve warms the thread pool and is the bit-identity
  // reference for every later one.
  const CpdResult ref = solve();
  rep.op(true, "first cpd_als solve");
  const double rss_mb = peak_rss_mb();

  if (!opt.trace) {
    const std::vector<double> walls =
        timed_solves(opt.seconds, min_solves, solve, ref, rep);
    const std::vector<sim_ns> mode_sim =
        check_cpd(opt, x, cfg, *sel, dev, ref, rep);
    // A "job" on the simulated clock is one MTTKRP call; its finish
    // stamp is the device time at which the call completes.
    std::vector<double> stamps_ms;
    double clock_ms = 0.0;
    for (int it = 0; it < kIters; ++it) {
      for (const sim_ns t : mode_sim) {
        clock_ms += static_cast<double>(t) * 1e-6;
        stamps_ms.push_back(clock_ms);
      }
    }
    rep.set("setup_s", median(setup.setup_s), setup.setup_s.size());
    rep.set("solve_s", median(walls), walls.size());
    rep.set("peak_rss_mb", rss_mb);
    set_sim_jobs(rep, stamps_ms, static_cast<double>(ref.mttkrp_sim_ns) * 1e-6);
    rep.census("timed_solves", static_cast<double>(walls.size()));
    return;
  }

  // Traced run: untraced solves for the tracing overhead, then traced
  // replicas of the same solve.
  const std::vector<double> walls =
      timed_solves(opt.seconds / 2, min_solves, solve, ref, rep);
  std::vector<Replica> reps;
  const auto t_loop = Clock::now();
  while (reps.size() < min_solves || since(t_loop) < opt.seconds / 2) {
    reps.push_back(replica_solve(x, cfg, dev, *sel, *tracer));
    const CpdResult& r = reps.back().res;
    bool same = r.lambda == ref.lambda && r.mttkrp_sim_ns == ref.mttkrp_sim_ns;
    for (order_t m = 0; m < x.order(); ++m) {
      same = same && same_bits(rep.checked(r.factors[m]), ref.factors[m]);
    }
    const double fit_rel =
        std::abs(r.final_fit - ref.final_fit) / std::abs(ref.final_fit);
    rep.op(same && fit_rel <= 1e-12,
           "traced replica differs from cpd_als: factors, lambda or "
           "simulated time not bit-identical, or final_fit off by more "
           "than 1e-12 relative");
  }
  rep.set("tensor.io_tns.read_s", median(setup.read_s), setup.read_s.size());
  rep.set("scalfrag.autotune.train_s", median(setup.train_s),
          setup.train_s.size());
  report_cpd_layers(x, reps, walls, *tracer, rep);
  check_cpd(opt, x, cfg, *sel, dev, ref, rep);
  rep.census("traced_solves", static_cast<double>(reps.size()));
  tracer->write_chrome(artifact(opt, "-chrome-trace.json"));
  std::printf("%s", tracer->self_time_table("cpd.solve").c_str());
}

}  // namespace perfbench
