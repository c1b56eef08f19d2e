#pragma once
// Set-up and standalone layer measurements shared by the tensor
// workloads (cpd-nell2, cpd-deli4d, mttkrp-hetero).

#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "scalfrag/autotune.hpp"
#include "tensor/mode_views.hpp"
#include "tensor/mttkrp_ref.hpp"

namespace perfbench {

/// What set-up produced, and how long each repetition took.
struct TensorSetup {
  scalfrag::CooTensor x;
  std::optional<scalfrag::LaunchSelector> selector;
  std::optional<scalfrag::ModeViews> views;  // when asked for
  std::vector<double> setup_s, read_s, train_s, views_s;

  void census(Report& rep, const std::string& profile, double scale) const;
};

/// Generate the profile's tensor from opt.seed and write it as .tns
/// (untimed), then repeat the timed set-up: read_tns_file, AutoTuner
/// training, and optionally a ModeViews build. Three repetitions, one
/// under --tiny; the last one's products are kept.
TensorSetup tensor_setup(const Options& opt, const std::string& profile,
                         double scale, bool build_views, Tracer* tr);

/// Time mttkrp_coo_par (on one host thread, as every workload runs its
/// kernels) and make_segments (with features) on each mode view on their
/// own, scale them to `calls_per_mode` calls, and report the host-kernel
/// and segmenter layers. Returns the kernel seconds.
double host_kernel_layers(const scalfrag::ModeViews& views,
                          const scalfrag::FactorList& factors,
                          const std::vector<int>& segments_per_mode,
                          int calls_per_mode, Tracer* tr, Report& rep);

}  // namespace perfbench
