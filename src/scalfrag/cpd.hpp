#pragma once
// CPD-ALS (paper Algorithm 1): alternating least squares for the
// canonical polyadic decomposition, with MTTKRP pluggable across the
// backend registry — the host engine, the ParTI baseline flow, the
// ScalFrag pipeline (single- or multi-device), and the CSF tiled
// engine. This is the application that motivates the whole paper ("the
// computation of the CPD for a sparse tensor is predominantly
// influenced by the MTTKRP operation").
//
// Configuration is one ExecConfig: backend by registry name, rank /
// max_iters / tol / seed through the decomposition knobs
// (ExecConfig::rank(r).max_iters(n).tol(t)). Unset knobs resolve to
// rank 16, 10 iterations, tol 1e-4 and seed 5.

#include <optional>

#include "gpusim/engine.hpp"
#include "scalfrag/csf_plan.hpp"
#include "scalfrag/multi_pipeline.hpp"
#include "scalfrag/pipeline.hpp"
#include "scalfrag/plan.hpp"
#include "tensor/mttkrp_ref.hpp"

namespace scalfrag {

struct CpdResult {
  FactorList factors;          // column-normalized
  std::vector<double> lambda;  // column weights
  std::vector<double> fit_history;
  double final_fit = 0.0;
  int iterations = 0;

  /// Simulated accelerator time spent in MTTKRP across the run
  /// (host-only backends leave this 0).
  sim_ns mttkrp_sim_ns = 0;
  int mttkrp_calls = 0;

  /// Uniform driver record (scalfrag/run_info.hpp).
  RunInfo info;
};

/// Prebuilt per-tensor plans a caller injects so cpd_als skips the
/// canonical sort and plan construction — the decomposition service's
/// PlanCache hands these out across jobs. Non-owning; the plans must
/// outlive the call and match the tensor and cfg.decomp_rank.
struct SharedPlans {
  const MttkrpPlan* coo = nullptr;  // backend "coo", single-device
  const CsfPlan* csf = nullptr;     // the csf_tiled backends
};

/// Run CPD-ALS on `x` under `cfg`. Backends that execute on the
/// simulated device ("coo", "parti", "coo_stream", and "auto" when it
/// resolves to one) require `dev`; "coo_host" and the csf_tiled
/// backends are host-only. `selector` enables adaptive launching for
/// the COO pipeline. "auto" resolves through the built-in heuristic
/// from mode-0 features — callers holding a JointSelector (the
/// service) resolve the choice themselves and pass a concrete name.
CpdResult cpd_als(const CooTensor& x, const ExecConfig& cfg = {},
                  gpusim::SimDevice* dev = nullptr,
                  const LaunchSelector* selector = nullptr,
                  const SharedPlans& shared = {});

/// Reconstruct one tensor entry from the factors (model evaluation):
/// x̂(i…) = Σ_f λ_f Π_m A⁽ᵐ⁾(i_m, f).
double cpd_predict(const CpdResult& model, std::span<const index_t> coord);

}  // namespace scalfrag
