#pragma once
// Sparse Tucker decomposition via HOOI (higher-order orthogonal
// iteration) — the second decomposition ParTI ships ("SpCPD, sparse
// Tucker decomposition", paper §V-A3).
//
// Model: X ≈ G ×_1 U⁽¹⁾ ×_2 U⁽²⁾ ⋯ ×_N U⁽ᴺ⁾ with orthonormal factor
// matrices U⁽ⁿ⁾ ∈ R^{Iₙ×rₙ} and a small dense core G ∈ R^{r₁×⋯×r_N}.
//
// HOOI iterates: for each mode n, project X onto all other factors
// (a TTM chain, realized here as one fused sparse kernel producing
// Wₙ = X₍ₙ₎ (⊗_{m≠n} U⁽ᵐ⁾)), then set U⁽ⁿ⁾ to Wₙ's top-rₙ left
// singular vectors. Because the factors are orthonormal, the fit is
// computable from ‖G‖ alone: ‖X−X̂‖² = ‖X‖² − ‖G‖².
//
// Configuration is one ExecConfig: core dims / max_iters / tol / seed
// through the decomposition knobs (core_dims({...}).max_iters(n)).
// Unset knobs resolve to 15 iterations, tol 1e-5 and seed 7.

#include "gpusim/engine.hpp"
#include "scalfrag/exec_config.hpp"
#include "scalfrag/run_info.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mttkrp_ref.hpp"

namespace scalfrag {

class JointSelector;

struct TuckerResult {
  FactorList factors;  // orthonormal, one per mode
  DenseTensor core;
  std::vector<double> fit_history;
  double final_fit = 0.0;
  int iterations = 0;

  /// Simulated accelerator time across all projection kernels (0 when
  /// no device was passed — the run was host-only).
  sim_ns projection_sim_ns = 0;

  /// Uniform driver record (scalfrag/run_info.hpp).
  RunInfo info;
};

/// Run HOOI on `x` under `cfg` (core dims from cfg.tucker_core_dims).
/// Throws on inconsistent core dims.
///
/// The projection kernel always computes on the host engine
/// (cfg.threads/grain/strategy; strategy Serial reproduces the
/// single-threaded chain bit-exactly) — numerics are independent of
/// `dev`. When a shared `dev` is passed, each projection additionally
/// runs as a cost-modeled kernel on that device's timeline (the launch
/// predicted by `joint` from per-mode features when given), so service
/// jobs account simulated time against the shared DeviceGroup instead
/// of silently constructing private devices.
TuckerResult tucker_hooi(const CooTensor& x, const ExecConfig& cfg = {},
                         gpusim::SimDevice* dev = nullptr,
                         const JointSelector* joint = nullptr);

/// Reconstruct one entry: X̂(i…) = Σ_r G(r…) Π_n U⁽ⁿ⁾(i_n, r_n).
double tucker_predict(const TuckerResult& model,
                      std::span<const index_t> coord);

/// The fused projection kernel: Wₙ = X₍ₙ₎ (⊗_{m≠n} U⁽ᵐ⁾), i.e.
/// Wₙ(i_n, col(r…)) = Σ_{x∈nnz sliced at i_n} val · Π_{m≠n} U⁽ᵐ⁾(i_m, r_m),
/// with col() the mixed-radix index over (r_m)_{m≠n} in increasing mode
/// order. Exposed for testing and for building other TTM chains. Runs
/// on the host engine: non-Serial strategies split the non-zero stream
/// into a fixed chunk grid reduced in chunk order, so the result is
/// deterministic for a given grain (but reassociated vs Serial).
DenseMatrix ttm_chain_all_but(const CooTensor& x, const FactorList& factors,
                              order_t mode, const HostExecParams& opt = {});

}  // namespace scalfrag
