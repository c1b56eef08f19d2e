#pragma once
// The ParTI end-to-end flow (the baseline of Figs. 5, 9, 10):
// synchronous single-stream H2D(tensor) → H2D(factors) → kernel →
// D2H(output). No segmentation, no overlap — the device waits for the
// full transfer before computing (§III-B's "waste of computational
// resources").

#include <optional>

#include "gpusim/engine.hpp"
#include "parti/parti_kernel.hpp"

namespace scalfrag::parti {

struct ExecOptions {
  /// Override the static heuristic (used by the Fig. 4 sweep).
  std::optional<gpusim::LaunchConfig> launch;
};

struct ExecResult {
  DenseMatrix output;
  gpusim::LaunchConfig launch;
  gpusim::TimelineBreakdown breakdown;
  sim_ns total_ns = 0;
  sim_ns kernel_ns = 0;
  double kernel_gflops = 0.0;
};

/// Run one mode-`mode` MTTKRP end to end on the simulated device.
/// `t` is a mode-sorted view (a CooTensor converts implicitly;
/// ModeViews::view(mode) plugs in zero-copy); `factors` are
/// host-resident. The device timeline is reset first; breakdown/total
/// reflect this run.
ExecResult run_mttkrp(gpusim::SimDevice& dev, const CooSpan& t,
                      const FactorList& factors, order_t mode,
                      const ExecOptions& opt = {});

}  // namespace scalfrag::parti
