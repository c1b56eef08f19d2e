#include "scalfrag/cpd.hpp"

#include <cmath>

#include "common/timer.hpp"
#include "parti/parti_executor.hpp"
#include "scalfrag/backend_registry.hpp"
#include "tensor/linalg.hpp"
#include "tensor/mode_views.hpp"

namespace scalfrag {

namespace {

/// V = ∘_{m≠mode} A⁽ᵐ⁾ᵀA⁽ᵐ⁾ (Algorithm 1, line 3).
DenseMatrix gram_hadamard(const FactorList& factors,
                          const std::vector<DenseMatrix>& grams,
                          order_t mode) {
  DenseMatrix v(factors[0].cols(), factors[0].cols(), 1.0f);
  for (order_t m = 0; m < factors.size(); ++m) {
    if (m == mode) continue;
    linalg::hadamard_inplace(v, grams[m]);
  }
  return v;
}

/// How one ALS sweep executes its MTTKRPs.
enum class CpdPath { Host, Parti, CooPlan, CooMulti, Csf, Generic };

bool is_csf_backend(const std::string& name) {
  return name.rfind("csf_tiled", 0) == 0;
}

}  // namespace

CpdResult cpd_als(const CooTensor& x, const ExecConfig& cfg,
                  gpusim::SimDevice* dev, const LaunchSelector* selector,
                  const SharedPlans& shared) {
  SF_CHECK(x.nnz() > 0, "cannot decompose an empty tensor");
  cfg.validate();
  const index_t rank = cfg.decomp_rank;
  const int max_iters =
      cfg.decomp_max_iters > 0 ? cfg.decomp_max_iters : 10;
  const double tol = cfg.decomp_tol >= 0.0 ? cfg.decomp_tol : 1e-4;
  const std::uint64_t seed = cfg.decomp_seed != 0 ? cfg.decomp_seed : 5;

  const order_t order = x.order();
  obs::MetricsRegistry* const met = cfg.metrics_sink;

  CpdResult res;
  WallTimer prep_timer;

  // One canonical sort shared by every backend that walks mode views
  // (MTTKRP kernels require mode order): a single sorted copy plus
  // per-mode gather permutations. The single-device "coo" backend moves
  // the views into its MttkrpPlan; backends replaying a SharedPlans
  // entry (or the CSF plans, which sort internally) skip the sort
  // entirely — that skip is the service's cache-hit fast path.
  std::string backend = cfg.backend_name;
  const bool multidev = backend == "coo" && cfg.num_devices > 1;
  auto needs_views = [&](const std::string& name) {
    if (name == "coo") return multidev || shared.coo == nullptr;
    if (is_csf_backend(name)) return false;
    return true;  // coo_host, parti, coo_stream, future generics, auto
  };

  std::optional<ModeViews> views;
  auto ensure_views = [&] {
    if (views) return;
    std::optional<obs::MetricsRegistry::ScopedSpan> span;
    if (met != nullptr) span.emplace(*met, "cpd/sort_modes");
    views.emplace(x, met);
  };
  if (needs_views(backend)) ensure_views();

  // "auto": one joint decision from mode-0 features, then dispatch on
  // the concrete name like any explicit config.
  if (backend == "auto") {
    res.info.choice = heuristic_joint_choice(
        TensorFeatures::extract(views->view(0), 0), rank);
    res.info.auto_selected = true;
    backend = res.info.choice.backend;
    if (met != nullptr) met->count("backend/auto/" + backend);
  }
  res.info.backend = backend;

  CpdPath path;
  if (backend == "coo_host") {
    path = CpdPath::Host;
  } else if (backend == "parti") {
    path = CpdPath::Parti;
  } else if (backend == "coo") {
    path = multidev ? CpdPath::CooMulti : CpdPath::CooPlan;
  } else if (is_csf_backend(backend)) {
    path = CpdPath::Csf;
  } else {
    path = CpdPath::Generic;
  }
  const bool host_only = path == CpdPath::Host || path == CpdPath::Csf;
  SF_CHECK(host_only || dev != nullptr,
           "backend \"" + backend + "\" needs a simulated device");

  res.factors.reserve(order);
  Rng rng(seed);
  for (order_t m = 0; m < order; ++m) {
    DenseMatrix f(x.dim(m), rank);
    f.randomize(rng);
    res.factors.push_back(std::move(f));
  }
  res.lambda.assign(rank, 1.0);

  std::vector<DenseMatrix> grams(order);
  for (order_t m = 0; m < order; ++m) grams[m] = linalg::gram(res.factors[m]);

  double norm_x_sq = 0.0;
  for (value_t v : x.values()) {
    norm_x_sq += static_cast<double>(v) * static_cast<double>(v);
  }
  const double norm_x = std::sqrt(norm_x_sq);

  // "coo" single device: plan once (per-mode sorting, segmentation, and
  // launch selection are factor-independent), replay every iteration —
  // unless the caller already holds a cached plan. Sharded: a
  // DeviceGroup cloned from the driver device's spec, with one ShardPlan
  // per mode built here and replayed every iteration. CSF: per-mode
  // trees + tilings, built or injected the same way.
  std::optional<MttkrpPlan> own_coo_plan;
  std::optional<CsfPlan> own_csf_plan;
  const MttkrpPlan* coo_plan = shared.coo;
  const CsfPlan* csf_plan = shared.csf;
  std::optional<gpusim::DeviceGroup> group;
  std::vector<ShardPlan> shard_plans;  // CooMulti: one per mode
  if (path == CpdPath::CooPlan) {
    if (coo_plan != nullptr) {
      SF_CHECK(coo_plan->rank() == rank,
               "shared MttkrpPlan rank does not match cfg.decomp_rank");
      if (met != nullptr) met->count("cpd/plan_reuse");
    } else {
      std::optional<obs::MetricsRegistry::ScopedSpan> span;
      if (met != nullptr) span.emplace(*met, "cpd/plan");
      ExecConfig plan_cfg = cfg;
      plan_cfg.backend_name = "coo";
      own_coo_plan.emplace(std::move(*views), rank, *dev, selector,
                           plan_cfg);
      views.reset();
      coo_plan = &*own_coo_plan;
    }
  } else if (path == CpdPath::Csf) {
    if (csf_plan != nullptr) {
      if (met != nullptr) met->count("cpd/plan_reuse");
    } else {
      std::optional<obs::MetricsRegistry::ScopedSpan> span;
      if (met != nullptr) span.emplace(*met, "cpd/plan");
      ExecConfig plan_cfg = cfg;
      plan_cfg.backend_name = backend;
      own_csf_plan.emplace(x, plan_cfg);
      csf_plan = &*own_csf_plan;
    }
  } else if (path == CpdPath::CooMulti) {
    std::optional<obs::MetricsRegistry::ScopedSpan> span;
    if (met != nullptr) span.emplace(*met, "cpd/plan");
    group.emplace(dev->spec(), cfg.num_devices, cfg.link);
    for (order_t m = 0; m < order; ++m) {
      shard_plans.push_back(
          make_shard_plan(*group, views->view(m), m, rank, cfg, selector));
    }
  }
  res.info.prepare_seconds = prep_timer.seconds();

  auto run_mttkrp = [&](order_t mode) -> DenseMatrix {
    switch (path) {
      case CpdPath::Host:
        return mttkrp_coo_par(views->view(mode), res.factors, mode,
                              cfg.host_for_run());
      case CpdPath::Parti: {
        auto r = parti::run_mttkrp(*dev, views->view(mode), res.factors,
                                   mode);
        res.mttkrp_sim_ns += r.total_ns;
        ++res.mttkrp_calls;
        return std::move(r.output);
      }
      case CpdPath::CooMulti: {
        auto r = run_shard_plan(*group, shard_plans[mode], views->view(mode),
                                res.factors, cfg);
        res.mttkrp_sim_ns += r.total_ns;
        ++res.mttkrp_calls;
        return std::move(r.output);
      }
      case CpdPath::CooPlan: {
        auto r = coo_plan->run_on(*dev, res.factors, mode, met);
        res.mttkrp_sim_ns += r.total_ns;
        ++res.mttkrp_calls;
        return std::move(r.output);
      }
      case CpdPath::Csf:
        return csf_plan->run_on(res.factors, mode, met);
      case CpdPath::Generic: {
        ExecConfig sub = cfg;
        sub.backend_name = backend;
        auto r = run_mttkrp_backend(*dev, views->view(mode), res.factors,
                                    mode, sub, selector);
        res.mttkrp_sim_ns += r.info.sim_total_ns;
        ++res.mttkrp_calls;
        return std::move(r.output);
      }
    }
    throw Error("unknown backend");
  };

  double prev_fit = 0.0;
  for (int it = 0; it < max_iters; ++it) {
    std::optional<obs::MetricsRegistry::ScopedSpan> it_span;
    if (met != nullptr) it_span.emplace(*met, "cpd/iteration");
    DenseMatrix last_m;  // MTTKRP result of the final mode (fit calc)
    for (order_t mode = 0; mode < order; ++mode) {
      DenseMatrix m = run_mttkrp(mode);
      const DenseMatrix v = gram_hadamard(res.factors, grams, mode);
      DenseMatrix updated = linalg::matmul(m, linalg::pinv_spd(v));

      if (cfg.cpd_nonnegative) {
        // Projected ALS: clamp to the non-negative orthant (a small
        // positive floor keeps Gram matrices from going singular when
        // whole columns would otherwise zero out).
        value_t* p = updated.data();
        for (std::size_t i = 0; i < updated.size(); ++i) {
          if (p[i] < 0.0f) p[i] = 1e-9f;
        }
      }

      // Column-normalize; absorb scales into lambda.
      auto norms = linalg::column_norms(updated);
      for (index_t f = 0; f < rank; ++f) {
        res.lambda[f] = norms[f] > 1e-30 ? norms[f] : 1.0;
      }
      for (index_t i = 0; i < updated.rows(); ++i) {
        value_t* row = updated.row(i);
        for (index_t f = 0; f < rank; ++f) {
          row[f] = static_cast<value_t>(row[f] / res.lambda[f]);
        }
      }
      res.factors[mode] = std::move(updated);
      grams[mode] = linalg::gram(res.factors[mode]);
      if (mode + 1 == order) last_m = std::move(m);
    }

    // Fit via the standard SPLATT identity:
    //   ||X̂||² = Σ_{f,g} λ_f λ_g Π_m Gram_m(f,g)
    //   <X, X̂> = Σ_{i,f} λ_f · M(i,f) · A⁽ᴺ⁾(i,f)
    double norm_model_sq = 0.0;
    for (index_t f = 0; f < rank; ++f) {
      for (index_t g = 0; g < rank; ++g) {
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
      for (index_t f = 0; f < rank; ++f) {
        inner += res.lambda[f] * static_cast<double>(mrow[f]) *
                 static_cast<double>(arow[f]);
      }
    }
    const double resid_sq =
        std::max(0.0, norm_x_sq - 2.0 * inner + norm_model_sq);
    const double fit = 1.0 - std::sqrt(resid_sq) / norm_x;
    res.fit_history.push_back(fit);
    res.iterations = it + 1;
    if (it > 0 && std::abs(fit - prev_fit) < tol) break;
    prev_fit = fit;
  }

  res.final_fit = res.fit_history.empty() ? 0.0 : res.fit_history.back();
  res.info.sim_total_ns = res.mttkrp_sim_ns;
  if (met != nullptr) {
    met->count("cpd/runs");
    met->count("cpd/iterations", static_cast<std::uint64_t>(res.iterations));
    met->count("cpd/mttkrp_calls",
               static_cast<std::uint64_t>(res.mttkrp_calls));
    met->set("cpd/final_fit", res.final_fit);
    met->set("cpd/mttkrp_sim_ns", static_cast<double>(res.mttkrp_sim_ns));
    res.info.metrics = met->snapshot();
  }
  return res;
}

double cpd_predict(const CpdResult& model, std::span<const index_t> coord) {
  SF_CHECK(coord.size() == model.factors.size(),
           "coordinate arity must match tensor order");
  const index_t rank = model.factors[0].cols();
  double s = 0.0;
  for (index_t f = 0; f < rank; ++f) {
    double prod = model.lambda[f];
    for (std::size_t m = 0; m < coord.size(); ++m) {
      SF_CHECK(coord[m] < model.factors[m].rows(), "coordinate out of range");
      prod *= static_cast<double>(model.factors[m](coord[m], f));
    }
    s += prod;
  }
  return s;
}

}  // namespace scalfrag
