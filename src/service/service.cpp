#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "obs/json.hpp"
#include "scalfrag/segmenter.hpp"

namespace scalfrag::service {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool is_csf_backend(const std::string& name) {
  return name.rfind("csf_tiled", 0) == 0;
}

sim_ns percentile(std::vector<sim_ns>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto idx = static_cast<std::size_t>(std::ceil(q * n));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Queued:
      return "queued";
    case JobState::Running:
      return "running";
    case JobState::Completed:
      return "completed";
    case JobState::Rejected:
      return "rejected";
    case JobState::Failed:
      return "failed";
  }
  return "?";
}

namespace {

gpusim::DeviceGroup make_group(const ServiceOptions& o) {
  if (!o.device_specs.empty()) {
    return gpusim::DeviceGroup(o.device_specs, o.link);
  }
  return gpusim::DeviceGroup(o.device, o.num_devices, o.link);
}

}  // namespace

DecompositionService::DecompositionService(ServiceOptions opts)
    : opts_(std::move(opts)),
      group_(make_group(opts_)),
      cache_(opts_.cache_capacity, &metrics_) {
  const int n = group_.size();
  device_clock_.assign(static_cast<std::size_t>(n), 0);
  committed_.assign(static_cast<std::size_t>(n), 0.0);
  if (opts_.start_paused) queue_.pause();
  worker_queues_.reserve(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    worker_queues_.push_back(std::make_unique<WorkerQueue>());
  }
  for (int d = 0; d < n; ++d) {
    workers_.emplace_back([this, d] { worker_loop(d); });
  }
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

DecompositionService::~DecompositionService() { shutdown(); }

std::uint64_t DecompositionService::submit(JobSpec spec) {
  spec.validate();  // structural errors throw to the submitter
  QueuedJob job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SF_CHECK(!shutdown_, "service is shut down");
    job.id = next_id_++;
    JobResult r;
    r.id = job.id;
    r.spec = spec;
    r.state = JobState::Queued;
    results_.emplace(job.id, std::move(r));
    ++pending_;
  }
  metrics_.count("service/submitted");
  job.spec = std::move(spec);
  job.submit_ns = steady_now_ns();
  const std::uint64_t id = job.id;
  queue_.push(std::move(job));
  return id;
}

JobResult DecompositionService::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  SF_CHECK(results_.count(id) != 0, "unknown job id");
  done_cv_.wait(lock, [&] { return results_.at(id).terminal(); });
  return results_.at(id);
}

std::vector<JobResult> DecompositionService::run_batch(
    std::vector<JobSpec> specs) {
  pause();
  std::vector<std::uint64_t> ids;
  ids.reserve(specs.size());
  for (auto& s : specs) ids.push_back(submit(std::move(s)));
  resume();
  std::vector<JobResult> out;
  out.reserve(ids.size());
  for (const std::uint64_t id : ids) out.push_back(wait(id));
  return out;
}

void DecompositionService::pause() { queue_.pause(); }
void DecompositionService::resume() { queue_.resume(); }

void DecompositionService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
}

void DecompositionService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // Idempotent: a second caller must still not return before the
      // first finished joining, but joins below are guarded anyway.
    }
    shutdown_ = true;
  }
  queue_.close();
  if (scheduler_.joinable()) scheduler_.join();
  // scheduler_loop closed the worker queues on exit.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void DecompositionService::scheduler_loop() {
  while (auto job = queue_.pop_blocking()) {
    admit_and_dispatch(std::move(*job));
  }
  // Queue closed and drained: stop the workers (they drain their own
  // FIFOs first — graceful, nothing is dropped).
  for (auto& wq : worker_queues_) {
    {
      std::lock_guard<std::mutex> lock(wq->mu);
      wq->closed = true;
    }
    wq->cv.notify_all();
  }
}

std::size_t DecompositionService::predict_bytes(const JobSpec& spec,
                                                const CooTensor& t) const {
  const index_t rank = spec.exec.decomp_rank;
  std::size_t peak = 0;
  switch (spec.kind) {
    case JobKind::Mttkrp:
      peak = pipeline_resident_bytes(t, spec.mode, rank);
      break;
    case JobKind::Cpd:
      // ALS touches every mode each iteration; the resident set is the
      // worst mode's.
      for (order_t m = 0; m < t.order(); ++m) {
        peak = std::max(peak, pipeline_resident_bytes(t, m, rank));
      }
      break;
    case JobKind::Tucker: {
      // Factors U⁽ᵐ⁾ (Iₘ × rₘ) all resident, plus the widest projection
      // result Wₙ (Iₙ × Π_{m≠n} rₘ) and the core.
      const auto& core = spec.exec.tucker_core_dims;
      std::size_t factors = 0;
      double core_cells = 1.0;
      for (order_t m = 0; m < t.order(); ++m) {
        factors += static_cast<std::size_t>(t.dim(m)) *
                   static_cast<std::size_t>(core[m]) * sizeof(value_t);
        core_cells *= static_cast<double>(core[m]);
      }
      std::size_t widest = 0;
      for (order_t n = 0; n < t.order(); ++n) {
        double width = 1.0;
        for (order_t m = 0; m < t.order(); ++m) {
          if (m != n) width *= static_cast<double>(core[m]);
        }
        widest = std::max(
            widest, static_cast<std::size_t>(static_cast<double>(t.dim(n)) *
                                             width * sizeof(value_t)));
      }
      peak = factors + widest +
             static_cast<std::size_t>(core_cells * sizeof(value_t));
      break;
    }
  }
  return t.bytes() + peak;
}

void DecompositionService::admit_and_dispatch(QueuedJob job) {
  const std::uint64_t seq = ++dispatch_seq_;
  const double queue_wait =
      static_cast<double>(steady_now_ns() - job.submit_ns) * 1e-9;
  metrics_.span("service/queue_wait", static_cast<double>(
                                          steady_now_ns() - job.submit_ns));

  const JobSpec& spec = job.spec;
  WorkItem item;
  item.job = job;

  auto reject = [&](const std::string& why, std::size_t predicted,
                    std::size_t budget) {
    metrics_.count("service/rejected");
    std::lock_guard<std::mutex> lock(mu_);
    JobResult& r = results_.at(job.id);
    r.state = JobState::Rejected;
    r.error = why;
    r.dispatch_seq = seq;
    r.queue_wait_seconds = queue_wait;
    r.predicted_bytes = predicted;
    r.budget_bytes = budget;
    --pending_;
    done_cv_.notify_all();
  };

  try {
    ExecConfig cfg = spec.exec;
    // Service jobs are single-device by definition: the service owns
    // the group and leases one member per job.
    SF_CHECK(cfg.num_devices == 1,
             "service jobs are single-device (the service owns the group)");
    cfg.metrics_sink = nullptr;  // per-job registry attached at execution

    // Level 1: tensor + features (hit skips generation AND extraction).
    bool tensor_hit = false;
    item.tensor =
        cache_.tensor(spec.tensor, spec.scale, spec.tensor_seed, &tensor_hit);
    const CooTensor& t = item.tensor->tensor;
    double prepare = tensor_hit ? 0.0 : item.tensor->prepare_seconds;

    if (spec.kind == JobKind::Mttkrp) {
      SF_CHECK(spec.mode < t.order(), "mttkrp mode out of range");
    }
    if (spec.kind == JobKind::Tucker) {
      SF_CHECK(cfg.tucker_core_dims.size() ==
                   static_cast<std::size_t>(t.order()),
               "core_dims must have one entry per mode");
    }

    // Admission: predicted resident footprint vs the per-device budget.
    // With an explicit budget (job or service) every member is held to
    // the same bound; without one, each member's own global memory is
    // the bound — on a heterogeneous group a job can be admissible on
    // the big card but not the small one, and assignment below only
    // considers members it fits on.
    const std::size_t predicted = predict_bytes(spec, t);
    std::size_t budget = cfg.memory_budget_bytes;
    if (budget == 0) budget = opts_.device_budget_bytes;
    std::vector<bool> fits(static_cast<std::size_t>(group_.size()), true);
    bool any_fit;
    if (budget != 0) {
      any_fit = predicted <= budget;
    } else {
      any_fit = false;
      for (int d = 0; d < group_.size(); ++d) {
        const std::size_t cap = group_.spec(d).global_mem_bytes;
        fits[static_cast<std::size_t>(d)] = predicted <= cap;
        any_fit = any_fit || predicted <= cap;
        budget = std::max(budget, cap);  // reported bound
      }
    }
    if (!any_fit) {
      metrics_.count("service/admission_rejects");
      reject("admission: predicted resident " + std::to_string(predicted) +
                 " bytes exceeds budget " + std::to_string(budget),
             predicted, budget);
      return;
    }
    metrics_.count("service/admitted");

    // Resolve "auto" through the cached joint choice (selector
    // inference runs once per (features, rank), not once per job).
    const index_t rank = cfg.decomp_rank;
    bool auto_selected = false;
    JointChoice choice;
    if (cfg.backend_name == "auto") {
      choice = cache_.choice(
          item.tensor->features, rank,
          [&] {
            return opts_.joint != nullptr
                       ? opts_.joint->choose(item.tensor->features, rank)
                       : heuristic_joint_choice(item.tensor->features, rank);
          });
      apply_joint_choice(cfg, choice);
      auto_selected = true;
    }
    cfg.validate();  // typed UnknownBackendError for bad names

    // Device assignment: argmin of projected completion (a pure
    // function of dispatch order — deterministic load balancing).
    // Committed work is counted in predicted *time* — flops over the
    // member's peak throughput — so on a heterogeneous group the fast
    // cards absorb proportionally more jobs instead of a 1/N split.
    // Uniform groups reproduce the PR 9 argmin-flops assignments
    // exactly (a constant speed divisor preserves the ordering).
    int iters = 1;
    if (spec.kind == JobKind::Cpd) {
      iters = cfg.decomp_max_iters > 0 ? cfg.decomp_max_iters : 10;
    } else if (spec.kind == JobKind::Tucker) {
      iters = cfg.decomp_max_iters > 0 ? cfg.decomp_max_iters : 15;
    }
    const double cost = static_cast<double>(t.nnz()) *
                        static_cast<double>(t.order()) *
                        static_cast<double>(rank) *
                        static_cast<double>(iters);
    int dev = -1;
    double best = 0.0;
    for (int d = 0; d < group_.size(); ++d) {
      if (!fits[static_cast<std::size_t>(d)]) continue;
      const double finish = committed_[static_cast<std::size_t>(d)] +
                            cost / group_.spec(d).peak_gflops();
      if (dev < 0 || finish < best) {
        dev = d;
        best = finish;
      }
    }
    SF_CHECK(dev >= 0, "admission passed but no member fits the job");
    // Level 2: the prepared plan (hit skips sort/segment/selection),
    // built for — and cached per — the assigned member's spec: launch
    // prediction and replay are spec-bound, so a heterogeneous group
    // keeps one entry per member kind.
    const bool wants_coo_plan = cfg.backend_name == "coo";
    const bool wants_csf_plan = is_csf_backend(cfg.backend_name);
    bool plan_hit = false;
    if (wants_coo_plan || wants_csf_plan) {
      PlanKey key;
      key.features = item.tensor->features.to_vector();
      key.rank = rank;
      key.backend = cfg.backend_name;
      key.device = group_.spec(dev).name;
      key.config = plan_config_key(cfg);
      item.plan = cache_.plan(
          key,
          [&] {
            WallTimer timer;
            PlanEntry pe;
            ExecConfig plan_cfg = cfg;
            plan_cfg.metrics_sink = &metrics_;
            if (wants_coo_plan) {
              pe.coo = std::make_shared<MttkrpPlan>(
                  t, rank, group_.device(dev), opts_.launch, plan_cfg);
            } else {
              pe.csf = std::make_shared<CsfPlan>(t, plan_cfg);
            }
            pe.prepare_seconds = timer.seconds();
            return pe;
          },
          &plan_hit);
      if (!plan_hit) prepare += item.plan->prepare_seconds;
    } else if (spec.kind == JobKind::Mttkrp) {
      reject("mttkrp service jobs need a plan-backed backend "
             "(auto, coo, or csf_tiled*); got '" +
                 cfg.backend_name + "'",
             predicted, budget);
      return;
    }

    // Commit the job's predicted time only now that preparation can no
    // longer reject it.
    committed_[static_cast<std::size_t>(dev)] +=
        cost / group_.spec(dev).peak_gflops();

    item.cfg = std::move(cfg);
    {
      std::lock_guard<std::mutex> lock(mu_);
      JobResult& r = results_.at(job.id);
      r.state = JobState::Running;
      r.dispatch_seq = seq;
      r.device = dev;
      r.queue_wait_seconds = queue_wait;
      r.predicted_bytes = predicted;
      r.budget_bytes = budget;
      r.tensor_cache_hit = tensor_hit;
      r.plan_cache_hit = plan_hit;
      r.prepare_seconds = prepare;
      r.info.auto_selected = auto_selected;
      if (auto_selected) r.info.choice = choice;
    }
    metrics_.count("service/dispatched");

    WorkerQueue& wq = *worker_queues_[static_cast<std::size_t>(dev)];
    {
      std::lock_guard<std::mutex> lock(wq.mu);
      wq.fifo.push_back(std::move(item));
    }
    wq.cv.notify_all();
  } catch (const std::exception& e) {
    reject(e.what(), 0, 0);
  }
}

void DecompositionService::worker_loop(int device_index) {
  WorkerQueue& wq = *worker_queues_[static_cast<std::size_t>(device_index)];
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(wq.mu);
      wq.cv.wait(lock, [&] { return !wq.fifo.empty() || wq.closed; });
      if (wq.fifo.empty()) return;  // closed and drained
      item = std::move(wq.fifo.front());
      wq.fifo.pop_front();
    }
    execute(device_index, std::move(item));
  }
}

void DecompositionService::execute(int device_index, WorkItem item) {
  const std::uint64_t id = item.job.id;
  const JobSpec& spec = item.job.spec;
  group_.lease(device_index);
  gpusim::SimDevice& dev = group_.device(device_index);

  obs::MetricsRegistry job_met;
  WallTimer exec_timer;
  JobState state = JobState::Completed;
  std::string error;
  sim_ns sim_cost = 0;
  RunInfo info;
  DenseMatrix mttkrp_out;
  std::optional<CpdResult> cpd_res;
  std::optional<TuckerResult> tucker_res;

  try {
    const CooTensor& t = item.tensor->tensor;
    ExecConfig cfg = item.cfg;
    cfg.metrics_sink = &job_met;
    switch (spec.kind) {
      case JobKind::Mttkrp: {
        const index_t rank = cfg.decomp_rank;
        FactorList factors;
        Rng rng(spec.factor_seed);
        for (order_t m = 0; m < t.order(); ++m) {
          DenseMatrix f(t.dim(m), rank);
          f.randomize(rng);
          factors.push_back(std::move(f));
        }
        if (item.plan != nullptr && item.plan->coo != nullptr) {
          PipelineResult r =
              item.plan->coo->run_on(dev, factors, spec.mode, &job_met);
          sim_cost = r.total_ns;
          info = std::move(r.info);
          mttkrp_out = std::move(r.output);
        } else {
          SF_CHECK(item.plan != nullptr && item.plan->csf != nullptr,
                   "mttkrp job dispatched without a plan");
          mttkrp_out =
              item.plan->csf->run_on(factors, spec.mode, &job_met);
          info.backend = cfg.backend_name;
        }
        break;
      }
      case JobKind::Cpd: {
        SharedPlans sp;
        if (item.plan != nullptr) {
          sp.coo = item.plan->coo.get();
          sp.csf = item.plan->csf.get();
        }
        CpdResult r = cpd_als(t, cfg, &dev, opts_.launch, sp);
        sim_cost = r.mttkrp_sim_ns;
        info = r.info;
        cpd_res = std::move(r);
        break;
      }
      case JobKind::Tucker: {
        TuckerResult r = tucker_hooi(t, cfg, &dev, opts_.joint);
        sim_cost = r.projection_sim_ns;
        info = r.info;
        tucker_res = std::move(r);
        break;
      }
    }
  } catch (const std::exception& e) {
    state = JobState::Failed;
    error = e.what();
    sim_cost = 0;
  }
  const double exec_seconds = exec_timer.seconds();
  group_.release(device_index);

  info.metrics = job_met.snapshot();
  metrics_.merge(job_met);
  if (state == JobState::Completed) {
    metrics_.count("service/completed");
    metrics_.span("service/job_sim", static_cast<double>(sim_cost));
  } else {
    metrics_.count("service/failed");
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& clock = device_clock_[static_cast<std::size_t>(device_index)];
    JobResult& r = results_.at(id);
    r.state = state;
    r.error = std::move(error);
    r.sim_cost_ns = sim_cost;
    r.sim_start_ns = clock;
    clock += sim_cost;
    r.sim_finish_ns = clock;
    r.exec_seconds = exec_seconds;
    // Keep the admission-time auto-selection record; fill the rest
    // from the driver's RunInfo.
    const bool auto_selected = r.info.auto_selected;
    const JointChoice choice = r.info.choice;
    r.info = std::move(info);
    if (auto_selected) {
      r.info.auto_selected = true;
      r.info.choice = choice;
    }
    r.info.prepare_seconds = r.prepare_seconds;
    r.mttkrp_output = std::move(mttkrp_out);
    r.cpd = std::move(cpd_res);
    r.tucker = std::move(tucker_res);
    --pending_;
  }
  done_cv_.notify_all();
}

ServiceStats DecompositionService::stats() const {
  ServiceStats s;
  std::vector<sim_ns> latencies;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = next_id_ - 1;
    for (const auto& [id, r] : results_) {
      (void)id;
      switch (r.state) {
        case JobState::Completed:
          ++s.completed;
          latencies.push_back(r.sim_finish_ns);
          break;
        case JobState::Rejected:
          ++s.rejected;
          break;
        case JobState::Failed:
          ++s.failed;
          break;
        default:
          break;
      }
    }
    for (const sim_ns c : device_clock_) {
      s.makespan_ns = std::max(s.makespan_ns, c);
    }
  }
  const obs::MetricsSnapshot m = metrics_.snapshot();
  s.cache_hits = m.counter("service/cache_hits");
  s.cache_misses = m.counter("service/cache_misses");
  std::sort(latencies.begin(), latencies.end());
  s.p50_latency_ns = percentile(latencies, 0.50);
  s.p99_latency_ns = percentile(latencies, 0.99);
  if (s.makespan_ns > 0) {
    s.jobs_per_sec_sim = static_cast<double>(s.completed) /
                         (static_cast<double>(s.makespan_ns) * 1e-9);
  }
  return s;
}

std::string DecompositionService::report_json() const {
  const ServiceStats s = stats();
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "scalfrag-service");
  w.kv("version", 1);
  w.key("options").begin_object();
  w.kv("devices", group_.size());
  w.kv("device", group_.spec().name);
  w.kv("link", group_.link().name);
  w.kv("device_budget_bytes",
       static_cast<std::uint64_t>(opts_.device_budget_bytes));
  w.kv("cache_capacity", static_cast<std::uint64_t>(opts_.cache_capacity));
  w.end_object();
  w.key("jobs").begin_array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, r] : results_) {
      w.begin_object();
      w.kv("id", static_cast<std::uint64_t>(id));
      w.kv("state", job_state_name(r.state));
      if (!r.error.empty()) w.kv("error", r.error);
      w.key("spec");
      r.spec.write_json(w);
      w.kv("device", r.device);
      w.kv("dispatch_seq", static_cast<std::uint64_t>(r.dispatch_seq));
      w.kv("tensor_cache_hit", r.tensor_cache_hit);
      w.kv("plan_cache_hit", r.plan_cache_hit);
      w.kv("predicted_bytes", static_cast<std::uint64_t>(r.predicted_bytes));
      w.kv("budget_bytes", static_cast<std::uint64_t>(r.budget_bytes));
      w.kv("prepare_seconds", r.prepare_seconds);
      w.kv("backend", r.info.backend);
      w.kv("auto_selected", r.info.auto_selected);
      w.kv("sim_cost_ns", static_cast<std::uint64_t>(r.sim_cost_ns));
      w.kv("sim_finish_ns", static_cast<std::uint64_t>(r.sim_finish_ns));
      w.kv("queue_wait_seconds", r.queue_wait_seconds);
      w.kv("exec_seconds", r.exec_seconds);
      w.end_object();
    }
  }
  w.end_array();
  w.key("stats").begin_object();
  w.kv("submitted", s.submitted);
  w.kv("completed", s.completed);
  w.kv("rejected", s.rejected);
  w.kv("failed", s.failed);
  w.kv("cache_hits", s.cache_hits);
  w.kv("cache_misses", s.cache_misses);
  w.kv("makespan_sim_ns", static_cast<std::uint64_t>(s.makespan_ns));
  w.kv("jobs_per_sec_sim", s.jobs_per_sec_sim);
  w.kv("p50_latency_sim_ns", static_cast<std::uint64_t>(s.p50_latency_ns));
  w.kv("p99_latency_sim_ns", static_cast<std::uint64_t>(s.p99_latency_ns));
  w.end_object();
  w.key("metrics").begin_object();
  {
    const obs::MetricsSnapshot m = metrics_.snapshot();
    w.key("counters").begin_object();
    for (const auto& [name, v] : m.counters) w.kv(name, v);
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [name, v] : m.gauges) w.kv(name, v);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace scalfrag::service
