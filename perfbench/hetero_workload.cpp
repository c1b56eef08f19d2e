// mttkrp-hetero: all-mode MTTKRP sweeps of nell-2 at 1/64 on a mixed
// one RTX 3090 + one RTX 3060 group (DeviceGroup::mixed_3090_3060),
// default ExecConfig policies (weighted shards, overlapped reduction,
// work stealing) and auto segments. One timed operation is one sweep:
// run_multi_pipeline on every mode in turn.
//
// Two members, not the preset's 3 + 1: every member gets a host driver
// thread, and the steal scheduler makes them wait on each other, so on
// a shared 4-CPU host four of them made the sweep time spread about
// twice as much over ten runs as two.

#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "common/rng.hpp"
#include "scalfrag/multi_pipeline.hpp"
#include "tensor_common.hpp"
#include "testing/oracle.hpp"

namespace perfbench {
namespace {

using namespace scalfrag;
using Clock = std::chrono::steady_clock;

constexpr index_t kRank = 16;

using Sweep = std::vector<MultiPipelineResult>;  // one entry per mode

bool same_sweep(const Sweep& a, const Sweep& b, const Report& rep) {
  if (a.size() != b.size()) return false;
  for (std::size_t m = 0; m < a.size(); ++m) {
    if (a[m].total_ns != b[m].total_ns ||
        !same_bits(a[m].output, rep.checked(b[m].output))) {
      return false;
    }
  }
  return true;
}

/// Per-layer metrics read off one sweep's results.
void report_sweep_layers(const Sweep& sweep, Report& rep) {
  double compute = 0, reduce = 0, overlap = 0, steals = 0, segments = 0;
  double h2d = 0, kernel = 0, d2h = 0, saved = 0;
  std::vector<double> imbalance, busy_ratio;
  for (const MultiPipelineResult& r : sweep) {
    compute += static_cast<double>(r.compute_ns);
    reduce += static_cast<double>(r.reduce_ns);
    overlap += static_cast<double>(r.overlap_saved_ns);
    steals += static_cast<double>(r.steals.size());
    segments += static_cast<double>(r.plan.plan.size());
    imbalance.push_back(r.pred_imbalance);
    // Busy-time spread over the members that ran (idle ones are 0).
    sim_ns busy_max = 0, busy_min = 0;
    for (const DeviceRunStats& d : r.devices) {
      h2d += static_cast<double>(d.breakdown.h2d);
      kernel += static_cast<double>(d.breakdown.kernel);
      d2h += static_cast<double>(d.breakdown.d2h);
      saved += static_cast<double>(d.breakdown.overlap_saved());
      if (d.total_ns == 0) continue;
      busy_max = std::max(busy_max, d.total_ns);
      busy_min = busy_min == 0 ? d.total_ns : std::min(busy_min, d.total_ns);
    }
    busy_ratio.push_back(static_cast<double>(busy_max) /
                         static_cast<double>(std::max<sim_ns>(busy_min, 1)));
  }
  rep.set("scalfrag.multi_pipeline.compute_us_sim", compute * 1e-3);
  rep.set("scalfrag.multi_pipeline.reduce_us_sim", reduce * 1e-3);
  rep.set("scalfrag.multi_pipeline.overlap_saved_us_sim", overlap * 1e-3);
  rep.set("scalfrag.multi_pipeline.steals", steals);
  rep.set("scalfrag.multi_pipeline.pred_imbalance",
          *std::max_element(imbalance.begin(), imbalance.end()),
          imbalance.size());
  rep.set("scalfrag.multi_pipeline.device_busy_max_min_ratio",
          *std::max_element(busy_ratio.begin(), busy_ratio.end()),
          busy_ratio.size());
  rep.set("scalfrag.pipeline.segments", segments);
  rep.set("gpusim.h2d_ms_sim", h2d * 1e-6);
  rep.set("gpusim.kernel_ms_sim", kernel * 1e-6);
  rep.set("gpusim.d2h_ms_sim", d2h * 1e-6);
  rep.set("gpusim.overlap_saved_ms_sim", saved * 1e-6);
}

}  // namespace

void run_hetero(const Options& opt, Report& rep) {
  const std::string profile = "nell-2";
  const double scale = 1.0 / 64 / (opt.tiny ? 64 : 1);
  const std::size_t min_sweeps = opt.tiny ? 2 : 3;
  std::optional<Tracer> tracer;
  if (opt.trace) tracer.emplace();
  Tracer* const tr = opt.trace ? &*tracer : nullptr;

  const TensorSetup setup =
      tensor_setup(opt, profile, scale, /*build_views=*/true, tr);
  const CooTensor& x = setup.x;
  const ModeViews& views = *setup.views;
  const LaunchSelector* sel = &*setup.selector;

  gpusim::DeviceGroup group = gpusim::DeviceGroup::mixed_3090_3060(1, 1);
  const ExecConfig cfg = ExecConfig{}.devices(group.size()).threads(1);

  Rng rng(opt.seed + 1);
  FactorList factors;
  for (order_t m = 0; m < x.order(); ++m) {
    factors.emplace_back(x.dim(m), kRank);
    factors.back().randomize(rng);
  }
  setup.census(rep, profile, scale);
  rep.census("rank", kRank);
  rep.census("devices", "1x rtx3090 + 1x rtx3060");

  auto sweep = [&](Tracer* t) {
    Tracer::Scope root(t, "multi_pipeline.sweep");
    Sweep out;
    for (order_t m = 0; m < x.order(); ++m) {
      Tracer::Scope s(t, "scalfrag.multi_pipeline.run");
      out.push_back(
          run_multi_pipeline(group, views.view(m), factors, m, cfg, sel));
    }
    return out;
  };

  // The first sweep is an untimed warm-up and the bit-identity
  // reference for every later one; its outputs go to the oracle.
  const Sweep ref = sweep(nullptr);
  rep.op(true, "first sweep");
  const double rss_mb = peak_rss_mb();
  for (order_t m = 0; m < x.order(); ++m) {
    const auto diff = testing::compare_to_oracle(
        testing::mttkrp_oracle(x, factors, m), rep.checked(ref[m].output),
        x.order());
    rep.op(!diff.diverged, "mode-" + std::to_string(m) +
                               " sharded MTTKRP outside the oracle's "
                               "tolerance");
  }

  // Repeats sweeps until `seconds` passed and at least min_sweeps ran;
  // returns their wall times.
  auto timed_sweeps = [&](double seconds, Tracer* t) {
    std::vector<double> walls;
    const auto t_loop = Clock::now();
    std::size_t tries = 0;
    while (tries < min_sweeps || since(t_loop) < seconds) {
      ++tries;
      try {
        const auto t0 = Clock::now();
        const Sweep s = sweep(t);
        walls.push_back(since(t0));
        rep.op(same_sweep(ref, s, rep),
               "a repeated sweep differs from the run's first sweep");
      } catch (const std::exception& e) {
        rep.op(false, std::string("run_multi_pipeline threw: ") + e.what());
      }
    }
    SF_CHECK(!walls.empty(), "no sweep completed");
    return walls;
  };

  if (!opt.trace) {
    const std::vector<double> walls = timed_sweeps(opt.seconds, nullptr);
    std::vector<double> stamps_ms;
    double clock_ms = 0.0;
    for (const auto& r : ref) {
      clock_ms += static_cast<double>(r.total_ns) * 1e-6;
      stamps_ms.push_back(clock_ms);
    }
    rep.set("setup_s", median(setup.setup_s), setup.setup_s.size());
    rep.set("solve_s", median(walls), walls.size());
    rep.set("peak_rss_mb", rss_mb);
    set_sim_jobs(rep, stamps_ms, clock_ms);
    rep.census("timed_sweeps", static_cast<double>(walls.size()));
    return;
  }

  // Traced run: untraced sweeps for the tracing overhead, then traced.
  const std::vector<double> walls = timed_sweeps(opt.seconds / 2, nullptr);
  timed_sweeps(opt.seconds / 2, tr);
  const Tracer::Roots sweeps = tracer->roots("multi_pipeline.sweep");
  const std::size_t n = sweeps.seconds.size();
  rep.set("tensor.io_tns.read_s", median(setup.read_s), setup.read_s.size());
  rep.set("scalfrag.autotune.train_s", median(setup.train_s),
          setup.train_s.size());
  rep.set("tensor.mode_views.build_s", median(setup.views_s),
          setup.views_s.size());
  rep.set("tensor.mode_views.resident_mb",
          static_cast<double>(views.resident_bytes()) / (1 << 20));
  rep.set("scalfrag.multi_pipeline.wall_s", median(sweeps.seconds), n);
  rep.set("trace.unattributed_frac", median(sweeps.unattributed), n);
  rep.set("trace.overhead_frac", median(sweeps.seconds) / median(walls) - 1.0,
          n);
  report_sweep_layers(ref, rep);

  // The shard planner, host kernel and segmenter on their own, once per
  // mode as in a sweep.
  const std::size_t repeats = 3;
  double shard_s = 0.0;
  std::vector<int> segments;
  for (order_t m = 0; m < x.order(); ++m) {
    std::vector<double> t_s;
    for (std::size_t i = 0; i < repeats; ++i) {
      Tracer::Scope s(tr, "standalone.make_shard_plan");
      const auto t0 = Clock::now();
      const ShardPlan plan =
          make_shard_plan(group, views.view(m), m, kRank, cfg, sel);
      t_s.push_back(since(t0));
    }
    shard_s += median(t_s);
    segments.push_back(static_cast<int>(ref[m].plan.plan.size()));
  }
  rep.set("scalfrag.shard.plan_s", shard_s, repeats);
  host_kernel_layers(views, factors, segments, 1, tr, rep);
  tracer->write_chrome(artifact(opt, "-chrome-trace.json"));
  std::printf("%s", tracer->self_time_table("multi_pipeline.sweep").c_str());
}

}  // namespace perfbench
