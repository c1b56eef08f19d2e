// Pieces the tensor workloads (cpd-*, mttkrp-hetero) share: the timed
// set-up, and the standalone host-kernel and segmenter measurements.

#include "tensor_common.hpp"

#include <cstdio>

#include "scalfrag/segmenter.hpp"
#include "tensor/generator.hpp"
#include "tensor/io_tns.hpp"
#include "tensor/mttkrp_par.hpp"

namespace perfbench {

using namespace scalfrag;
using Clock = std::chrono::steady_clock;

namespace {

std::string dims_string(const CooTensor& x) {
  std::string s;
  for (const index_t d : x.dims()) {
    if (!s.empty()) s += 'x';
    s += std::to_string(d);
  }
  return s;
}

}  // namespace

TensorSetup tensor_setup(const Options& opt, const std::string& profile,
                         double scale, bool build_views, Tracer* tr) {
  // The input is generated and written before the clock starts; set-up
  // reads it back the way a user loads a .tns file.
  const std::string input = artifact(opt, "-input.tns");
  write_tns_file(input, make_frostt_tensor(profile, scale, opt.seed));
  TensorSetup s;
  const int repeats = opt.tiny ? 1 : 3;
  for (int k = 0; k < repeats; ++k) {
    Tracer::Scope span(tr, "setup");
    const auto t0 = Clock::now();
    {
      Tracer::Scope read(tr, "tensor.io_tns.read");
      s.x = read_tns_file(input);
    }
    s.read_s.push_back(since(t0));
    const auto t_train = Clock::now();
    {
      Tracer::Scope train(tr, "scalfrag.autotune.train");
      AutoTuner tuner(gpusim::DeviceSpec::rtx3090(),
                      {.corpus_size = opt.tiny ? 8 : 48});
      tuner.train();
      s.selector.emplace(tuner.selector());
    }
    s.train_s.push_back(since(t_train));
    if (build_views) {
      const auto t_views = Clock::now();
      Tracer::Scope views(tr, "tensor.mode_views.build");
      s.views.emplace(s.x);
      s.views_s.push_back(since(t_views));
    }
    s.setup_s.push_back(since(t0));
  }
  std::remove(input.c_str());
  return s;
}

void TensorSetup::census(Report& rep, const std::string& profile,
                         double scale) const {
  rep.census("profile", profile);
  rep.census("scale", scale);
  rep.census("nnz", static_cast<double>(x.nnz()));
  rep.census("dims", dims_string(x));
}

double host_kernel_layers(const ModeViews& views, const FactorList& factors,
                          const std::vector<int>& segments_per_mode,
                          int calls_per_mode, Tracer* tr, Report& rep) {
  const std::size_t repeats = 3;
  const double nnz = static_cast<double>(views.nnz());
  const double order = views.order();
  const double rank = factors.front().cols();
  double kernel_s = 0.0, segment_s = 0.0, flops = 0.0, bytes = 0.0;
  for (order_t m = 0; m < views.order(); ++m) {
    const CooSpan view = views.view(m);
    std::vector<double> k_s, s_s;
    for (std::size_t i = 0; i < repeats; ++i) {
      {
        Tracer::Scope s(tr, "standalone.mttkrp_coo_par");
        const auto t0 = Clock::now();
        const DenseMatrix out =
            mttkrp_coo_par(view, factors, m, HostExecParams{.threads = 1});
        k_s.push_back(since(t0));
      }
      Tracer::Scope s(tr, "standalone.make_segments");
      const auto t0 = Clock::now();
      const SegmentPlan segs =
          make_segments(view, m, segments_per_mode[m],
                        /*align_to_slices=*/true, /*with_features=*/true);
      s_s.push_back(since(t0));
    }
    kernel_s += calls_per_mode * median(k_s);
    segment_s += calls_per_mode * median(s_s);
    // Per (non-zero, column): order-1 multiplies and one add.
    flops += calls_per_mode * nnz * rank * order;
    // Computed bytes: the COO entries, the gathered factor rows and the
    // output rows, each touched once.
    bytes += calls_per_mode *
             (nnz * (order + 1) * 4 + nnz * (order - 1) * rank * 4 +
              static_cast<double>(views.canonical().dim(m)) * rank * 4);
  }
  rep.set("tensor.mttkrp_par.kernel_s", kernel_s, repeats);
  rep.set("scalfrag.segmenter.make_segments_s", segment_s, repeats);
  rep.set("tensor.mttkrp_par.gflops", flops / kernel_s * 1e-9, repeats);
  rep.set("tensor.mttkrp_par.bytes_computed", bytes / (1 << 20));
  return kernel_s;
}

}  // namespace perfbench
