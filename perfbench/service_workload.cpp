// service-mix: a closed batch of jobs on a 2-device DecompositionService.
// One submitter queues the whole mix, releases it, and waits until every
// job is terminal; one timed operation is one run_batch on a fresh
// service, so every batch starts with cold caches and is the same work.
//
// Two weighted tenants: "hot" repeats a few recipes (plan-cache hits)
// and "cold" names more distinct recipes than the cache holds (misses
// and evictions). Backends coo, auto and csf_tiled, plus short CPD and
// Tucker jobs; every job runs on one host thread. coo_stream and
// coo_host jobs are left out: admission rejects coo_stream when its
// budget is below the in-core bytes, and refuses coo_host MTTKRP jobs.

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>

#include "bench.hpp"
#include "scalfrag/autotune.hpp"
#include "service/service.hpp"

namespace perfbench {
namespace {

using namespace scalfrag;
using namespace scalfrag::service;
using Clock = std::chrono::steady_clock;

constexpr index_t kRank = 16;
constexpr int kDevices = 2;
constexpr std::size_t kCacheCapacity = 16;

JobSpec job(const char* tenant, int weight, JobKind kind, const char* tensor,
            double scale, std::uint64_t tensor_seed, ExecConfig cfg,
            order_t mode = 0) {
  JobSpec s;
  s.tenant = tenant;
  s.weight = weight;
  s.kind = kind;
  s.tensor = tensor;
  s.scale = scale;
  s.tensor_seed = tensor_seed;
  s.mode = mode;
  cfg.threads(1);
  s.exec = std::move(cfg);
  return s;
}

/// The job mix, generated from the seed. Recipes are fixed; the seed
/// picks the tensors' generator seeds.
std::vector<JobSpec> make_mix(const Options& opt) {
  const double scale = 1.0 / 512 / (opt.tiny ? 8 : 1);
  const int hot_reps = opt.tiny ? 2 : 20;
  const int cold_jobs = opt.tiny ? 4 : 40;
  const std::uint64_t hot_seed = opt.seed * 1000;
  const auto mttkrp = ExecConfig{}.rank(kRank);
  std::vector<JobSpec> jobs;
  for (int r = 0; r < hot_reps; ++r) {
    const auto mode = static_cast<order_t>(r % 3);
    jobs.push_back(job("hot", 3, JobKind::Mttkrp, "nips", scale, hot_seed,
                       ExecConfig(mttkrp).backend("coo"), mode));
    jobs.push_back(job("hot", 3, JobKind::Mttkrp, "uber", scale, hot_seed + 1,
                       ExecConfig(mttkrp).backend("auto"), mode));
    jobs.push_back(job("hot", 3, JobKind::Mttkrp, "vast", scale, hot_seed + 2,
                       ExecConfig(mttkrp).backend("csf_tiled"), mode));
    if (r % 4 == 0) {
      jobs.push_back(job("hot", 3, JobKind::Cpd, "nips", scale, hot_seed,
                         ExecConfig{}.backend("coo").rank(kRank).max_iters(3)
                             .tol(0.0)));
    }
    if (r % 8 == 0) {
      jobs.push_back(job("hot", 3, JobKind::Tucker, "uber", scale,
                         hot_seed + 1,
                         ExecConfig{}.core_dims({2, 2, 2, 2}).max_iters(2)));
    }
  }
  for (int i = 0; i < cold_jobs; ++i) {
    jobs.push_back(job("cold", 1, JobKind::Mttkrp, "vast", scale / 4,
                       opt.seed * 1000 + 100 + static_cast<std::uint64_t>(i),
                       ExecConfig(mttkrp).backend("coo")));
  }
  return jobs;
}

bool same_output(const JobResult& a, const JobResult& b, const Report& rep) {
  if (a.sim_cost_ns != b.sim_cost_ns ||
      !same_bits(a.mttkrp_output, rep.checked(b.mttkrp_output)) ||
      a.cpd.has_value() != b.cpd.has_value() ||
      a.tucker.has_value() != b.tucker.has_value()) {
    return false;
  }
  if (a.cpd) {
    if (a.cpd->final_fit != b.cpd->final_fit) return false;
    for (std::size_t m = 0; m < a.cpd->factors.size(); ++m) {
      if (!same_bits(a.cpd->factors[m], b.cpd->factors[m])) return false;
    }
  }
  if (a.tucker) {
    const DenseTensor& ca = a.tucker->core;
    const DenseTensor& cb = b.tucker->core;
    if (a.tucker->final_fit != b.tucker->final_fit || ca.size() != cb.size() ||
        std::memcmp(ca.data(), cb.data(), ca.size() * sizeof(value_t)) != 0) {
      return false;
    }
  }
  return true;
}

/// One job is one operation. It fails if the service rejected or failed
/// it, if it differs from the first job of the same spec in its batch
/// (its cold twin), or if it differs from the same job of the run's
/// first batch.
void check_batch(const std::vector<JobResult>& results,
                 const std::vector<JobResult>* first_batch, Report& rep) {
  std::map<std::string, const JobResult*> twins;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    std::string why;
    if (r.state != JobState::Completed) {
      why = std::string(job_state_name(r.state)) + ": " + r.error;
    } else {
      const auto [twin, cold] = twins.emplace(r.spec.to_json(), &r);
      if (!cold && !same_output(*twin->second, r, rep)) {
        why = "output differs from its cold twin";
      } else if (first_batch != nullptr &&
                 !same_output((*first_batch)[i], r, rep)) {
        why = "output differs from the run's first batch";
      }
    }
    rep.op(why.empty(), "job " + std::to_string(i) + " (" +
                            job_kind_name(r.spec.kind) + " " + r.spec.tensor +
                            " " + r.spec.exec.backend_name + "): " + why);
  }
}

struct Batch {
  std::vector<JobResult> results;
  ServiceStats stats;
  double wall_s = 0.0;
};

/// One closed batch. Untraced it is run_batch; traced it is the same
/// sequence (pause, submit all, resume, wait for each) with spans.
Batch run_one(DecompositionService& svc, const std::vector<JobSpec>& mix,
              Tracer* tr) {
  Batch b;
  Tracer::Scope root(tr, "service.batch");
  const auto t0 = Clock::now();
  if (tr == nullptr) {
    b.results = svc.run_batch(mix);
  } else {
    std::vector<std::uint64_t> ids;
    {
      Tracer::Scope s(tr, "service.submit");
      svc.pause();
      for (const JobSpec& spec : mix) ids.push_back(svc.submit(spec));
      svc.resume();
    }
    for (const std::uint64_t id : ids) {
      Tracer::Scope s(tr, "service.wait");
      b.results.push_back(svc.wait(id));
    }
  }
  b.wall_s = since(t0);
  b.stats = svc.stats();
  return b;
}

}  // namespace

void run_service(const Options& opt, Report& rep) {
  const std::size_t min_batches = opt.tiny ? 2 : 3;
  std::optional<Tracer> tracer;
  if (opt.trace) tracer.emplace();
  Tracer* const tr = opt.trace ? &*tracer : nullptr;

  const std::vector<JobSpec> mix = make_mix(opt);
  std::map<std::string, int> kinds;
  std::map<std::string, int> specs;
  for (const JobSpec& s : mix) {
    ++kinds[s.tenant + "." + job_kind_name(s.kind)];
    ++specs[s.to_json()];
  }
  rep.census("jobs", static_cast<double>(mix.size()));
  for (const auto& [k, n] : kinds) rep.census("jobs." + k, n);
  rep.census("distinct_specs", static_cast<double>(specs.size()));
  rep.census("cache_capacity", static_cast<double>(kCacheCapacity));
  rep.census("devices", std::to_string(kDevices) + "x rtx3090");

  // --- set-up: launch-model training + service construction, repeated.
  // The last service built runs the reference batch.
  std::vector<double> setup_s, train_s;
  std::optional<LaunchSelector> launch;
  std::optional<JointSelector> joint;
  std::optional<DecompositionService> svc;
  auto options = [&] {
    return ServiceOptions{.num_devices = kDevices,
                          .cache_capacity = kCacheCapacity,
                          .joint = &*joint,
                          .launch = &*launch};
  };
  for (int k = 0; k < (opt.tiny ? 1 : 3); ++k) {
    Tracer::Scope span(tr, "setup");
    svc.reset();
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(tr, "scalfrag.autotune.train");
      AutoTuner tuner(gpusim::DeviceSpec::rtx3090(),
                      {.corpus_size = opt.tiny ? 8 : 48});
      tuner.train();
      launch.emplace(tuner.selector());
      // No format model: its training times host kernels, which would
      // make the "auto" choices, and so the simulated clock, vary.
      joint.emplace(nullptr, &*launch);
    }
    train_s.push_back(since(t0));
    {
      Tracer::Scope s(tr, "service.construct");
      svc.emplace(options());
    }
    setup_s.push_back(since(t0));
  }

  // The reference batch: every later batch must reproduce it exactly.
  const Batch first = run_one(*svc, mix, nullptr);
  svc.reset();
  const double rss_mb = peak_rss_mb();
  check_batch(first.results, nullptr, rep);

  auto timed_batches = [&](double seconds, Tracer* t) {
    std::vector<Batch> out;
    const auto t_loop = Clock::now();
    while (out.size() < min_batches || since(t_loop) < seconds) {
      DecompositionService fresh(options());
      out.push_back(run_one(fresh, mix, t));
      check_batch(out.back().results, &first.results, rep);
    }
    return out;
  };
  auto walls = [](const std::vector<Batch>& batches) {
    std::vector<double> v;
    for (const Batch& b : batches) v.push_back(b.wall_s);
    return v;
  };

  if (!opt.trace) {
    const std::vector<double> batch_s =
        walls(timed_batches(opt.seconds, nullptr));
    std::vector<double> finish_ms;
    for (const JobResult& r : first.results) {
      if (r.state == JobState::Completed) {
        finish_ms.push_back(static_cast<double>(r.sim_finish_ns) * 1e-6);
      }
    }
    rep.set("setup_s", median(setup_s), setup_s.size());
    rep.set("solve_s", median(batch_s), batch_s.size());
    rep.set("peak_rss_mb", rss_mb);
    set_sim_jobs(rep, finish_ms,
                 static_cast<double>(first.stats.makespan_ns) * 1e-6);
    rep.census("timed_batches", static_cast<double>(batch_s.size()));
    return;
  }

  // Traced run: untraced batches for the tracing overhead, then traced.
  const std::vector<double> untraced =
      walls(timed_batches(opt.seconds / 2, nullptr));
  const std::vector<Batch> traced = timed_batches(opt.seconds / 2, tr);
  std::vector<double> hit_ratio, prepare, exec, wait, busy;
  for (const Batch& b : traced) {
    const ServiceStats& st = b.stats;
    hit_ratio.push_back(static_cast<double>(st.cache_hits) /
                        static_cast<double>(st.cache_hits + st.cache_misses));
    double p = 0, e = 0, sim = 0;
    std::vector<double> w;
    for (const JobResult& r : b.results) {
      p += r.prepare_seconds;
      e += r.exec_seconds;
      sim += static_cast<double>(r.sim_cost_ns);
      w.push_back(r.queue_wait_seconds);
    }
    prepare.push_back(p);
    exec.push_back(e);
    wait.push_back(median(w));
    busy.push_back(sim / (kDevices * static_cast<double>(st.makespan_ns)));
  }
  const std::size_t n = traced.size();
  rep.set("scalfrag.autotune.train_s", median(train_s), train_s.size());
  rep.set("service.plan_cache.hit_ratio", median(hit_ratio), n);
  rep.set("service.prepare_s", median(prepare), n);
  rep.set("service.exec_s", median(exec), n);
  rep.set("service.queue_wait_s", median(wait), n);
  rep.set("service.device_busy_frac_sim", median(busy), n);
  // Device work of the batch, from the jobs' own metrics (the timeline
  // spans the pipeline records per run; deterministic, so the first
  // batch stands for all).
  double h2d = 0, kernel = 0, d2h = 0, segments = 0;
  for (const JobResult& r : first.results) {
    const obs::MetricsSnapshot& m = r.info.metrics;
    auto stage_ns = [&](const char* name) {
      const auto it = m.stages.find(name);
      return it == m.stages.end() ? 0.0 : it->second.total_ns;
    };
    h2d += stage_ns("gpu/H2D");
    kernel += stage_ns("gpu/Kernel");
    d2h += stage_ns("gpu/D2H");
    segments += static_cast<double>(m.counter("pipeline/segments_realized"));
  }
  rep.set("gpusim.h2d_ms_sim", h2d * 1e-6);
  rep.set("gpusim.kernel_ms_sim", kernel * 1e-6);
  rep.set("gpusim.d2h_ms_sim", d2h * 1e-6);
  rep.set("scalfrag.pipeline.segments", segments);
  rep.set("service.rejected", static_cast<double>(first.stats.rejected));
  rep.set("service.failed", static_cast<double>(first.stats.failed));
  rep.set("trace.unattributed_frac",
          median(tracer->roots("service.batch").unattributed), n);
  rep.set("trace.overhead_frac",
          median(walls(traced)) / median(untraced) - 1.0, n);
  tracer->write_chrome(artifact(opt, "-chrome-trace.json"));
  std::printf("%s", tracer->self_time_table("service.batch").c_str());
}

}  // namespace perfbench
