#include "scalfrag/backend_registry.hpp"

#include <algorithm>
#include <sstream>

#include "common/timer.hpp"
#include "parti/parti_executor.hpp"
#include "scalfrag/autotune.hpp"
#include "scalfrag/pipeline.hpp"
#include "scalfrag/streaming.hpp"
#include "tensor/csf_tiled.hpp"

namespace scalfrag {

namespace {

std::string unknown_backend_message(const std::string& name,
                                    const std::vector<std::string>& known) {
  std::ostringstream os;
  os << "unknown MTTKRP backend \"" << name << "\" — registered backends:";
  for (const auto& k : known) os << " " << k;
  return os.str();
}

/// The classic tiled GPU pipeline.
class CooBackend final : public MttkrpBackend {
 public:
  const std::string& name() const noexcept override {
    static const std::string n = "coo";
    return n;
  }
  DenseMatrix run(gpusim::SimDevice& dev, const CooSpan& t,
                  const FactorList& factors, order_t mode,
                  const ExecConfig& cfg,
                  const LaunchSelector* selector) const override {
    ExecConfig sub = cfg;
    sub.backend_name = "coo";  // "auto" resolved here must not recurse
    return run_pipeline(dev, t, factors, mode, sub, selector).output;
  }
};

/// The host engine alone (no simulated device involved).
class CooHostBackend final : public MttkrpBackend {
 public:
  const std::string& name() const noexcept override {
    static const std::string n = "coo_host";
    return n;
  }
  DenseMatrix run(gpusim::SimDevice&, const CooSpan& t,
                  const FactorList& factors, order_t mode,
                  const ExecConfig& cfg,
                  const LaunchSelector*) const override {
    return mttkrp_coo_par(t, factors, mode, cfg.host_for_run());
  }
};

class CsfTiledBackend final : public MttkrpBackend {
 public:
  CsfTiledBackend(std::string name, CsfTiledVariant variant)
      : name_(std::move(name)), variant_(variant) {}

  const std::string& name() const noexcept override { return name_; }

  DenseMatrix run(gpusim::SimDevice&, const CooSpan& t,
                  const FactorList& factors, order_t mode,
                  const ExecConfig& cfg,
                  const LaunchSelector*) const override {
    const CsfTensor csf = CsfTensor::build(t, mode);
    CsfTiledOptions opt;
    opt.variant = variant_;
    opt.fiber_budget = cfg.csf_fiber_budget;
    opt.host = cfg.host_for_run();
    DenseMatrix out(t.dim(mode), factors.at(mode).cols());
    mttkrp_csf_tiled(csf, factors, out, /*accumulate=*/false, opt);
    return out;
  }

 private:
  std::string name_;
  CsfTiledVariant variant_;
};

/// The ParTI baseline flow (one whole-tensor H2D + one kernel under the
/// static default launch) — the comparison point every figure bench
/// plots, reachable by name like every other backend.
class PartiBackend final : public MttkrpBackend {
 public:
  const std::string& name() const noexcept override {
    static const std::string n = "parti";
    return n;
  }
  DenseMatrix run(gpusim::SimDevice& dev, const CooSpan& t,
                  const FactorList& factors, order_t mode,
                  const ExecConfig& cfg,
                  const LaunchSelector*) const override {
    parti::ExecOptions opt;
    opt.launch = cfg.launch_override;
    return parti::run_mttkrp(dev, t, factors, mode, opt).output;
  }
};

/// The out-of-core pipeline: external sort under
/// ExecConfig::memory_budget_bytes, then chunk-at-a-time execution
/// through the classic pipeline (scalfrag/streaming.hpp).
class CooStreamBackend final : public MttkrpBackend {
 public:
  const std::string& name() const noexcept override {
    static const std::string n = "coo_stream";
    return n;
  }
  DenseMatrix run(gpusim::SimDevice& dev, const CooSpan& t,
                  const FactorList& factors, order_t mode,
                  const ExecConfig& cfg,
                  const LaunchSelector* selector) const override {
    StreamingPlan plan(dev, selector);
    return plan.run(t, factors, mode, cfg).output;
  }
};

/// Joint format×launch selection with the built-in heuristic. The
/// model-backed path lives in run_mttkrp_backend (a JointSelector does
/// not fit the virtual signature); this backend exists so "auto" is a
/// first-class registry name that validates and runs like any other.
class AutoBackend final : public MttkrpBackend {
 public:
  const std::string& name() const noexcept override {
    static const std::string n = "auto";
    return n;
  }
  DenseMatrix run(gpusim::SimDevice& dev, const CooSpan& t,
                  const FactorList& factors, order_t mode,
                  const ExecConfig& cfg,
                  const LaunchSelector* selector) const override {
    ExecConfig sub = cfg;
    sub.backend_name = "auto";
    return run_mttkrp_backend(dev, t, factors, mode, sub, selector).output;
  }
};

}  // namespace

UnknownBackendError::UnknownBackendError(std::string name,
                                         std::vector<std::string> known)
    : Error(unknown_backend_message(name, known)),
      name_(std::move(name)),
      known_(std::move(known)) {}

BackendRegistry::BackendRegistry() {
  add(std::make_shared<CooBackend>());
  add(std::make_shared<CooHostBackend>());
  add(std::make_shared<CsfTiledBackend>("csf_tiled_sync",
                                        CsfTiledVariant::Sync),
      {"csf_tiled"});
  add(std::make_shared<CsfTiledBackend>("csf_tiled_coop",
                                        CsfTiledVariant::Coop));
  add(std::make_shared<CsfTiledBackend>("csf_tiled_serial",
                                        CsfTiledVariant::Serial));
  add(std::make_shared<PartiBackend>());
  add(std::make_shared<CooStreamBackend>());
  add(std::make_shared<AutoBackend>());
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry reg;
  return reg;
}

void BackendRegistry::add(std::shared_ptr<const MttkrpBackend> backend,
                          std::vector<std::string> aliases) {
  SF_CHECK(backend != nullptr, "cannot register a null backend");
  std::lock_guard<std::mutex> lock(mutex_);
  aliases.push_back(backend->name());
  for (const auto& n : aliases) {
    SF_CHECK(!n.empty(), "backend names must be non-empty");
    SF_CHECK(by_name_.emplace(n, backend).second,
             "backend name already registered: " + n);
  }
}

bool BackendRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_name_.count(name) != 0;
}

const MttkrpBackend& BackendRegistry::resolve(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    std::vector<std::string> known;
    known.reserve(by_name_.size());
    for (const auto& [k, v] : by_name_) known.push_back(k);
    throw UnknownBackendError(name, std::move(known));
  }
  return *it->second;
}

std::vector<std::string> BackendRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(by_name_.size());
  for (const auto& [k, v] : by_name_) out.push_back(k);
  return out;  // std::map iterates sorted
}

BackendRun run_mttkrp_backend(gpusim::SimDevice& dev, const CooSpan& t,
                              const FactorList& factors, order_t mode,
                              const ExecConfig& cfg,
                              const LaunchSelector* selector,
                              const JointSelector* joint) {
  cfg.validate();
  BackendRun run;
  ExecConfig sub = cfg;
  // Host-only backends never touch the device timeline; device backends
  // reset it at entry. Comparing the makespan before/after tells the
  // two apart without a per-backend table.
  const sim_ns sim_before = dev.breakdown().makespan;
  WallTimer prep_timer;
  if (cfg.backend_name == "auto") {
    const TensorFeatures feat = TensorFeatures::extract(t, mode);
    const index_t rank = factors.at(mode).cols();
    run.choice = joint != nullptr ? joint->choose(feat, rank)
                                  : heuristic_joint_choice(feat, rank);
    apply_joint_choice(sub, run.choice);
    run.info.auto_selected = true;
    run.info.choice = run.choice;
    if (cfg.metrics_sink != nullptr) {
      cfg.metrics_sink->count(std::string("backend/auto/") +
                              run.choice.backend);
    }
  }
  run.info.prepare_seconds = prep_timer.seconds();
  const MttkrpBackend& backend =
      BackendRegistry::instance().resolve(sub.backend_name);
  run.backend = sub.backend_name;
  run.info.backend = run.backend;
  if (cfg.metrics_sink != nullptr) {
    cfg.metrics_sink->count(std::string("backend/run/") + run.backend);
  }
  run.output = backend.run(dev, t, factors, mode, sub, selector);
  const sim_ns sim_after = dev.breakdown().makespan;
  run.info.sim_total_ns = sim_after == sim_before ? 0 : sim_after;
  if (cfg.metrics_sink != nullptr) {
    run.info.metrics = cfg.metrics_sink->snapshot();
  }
  return run;
}

}  // namespace scalfrag
