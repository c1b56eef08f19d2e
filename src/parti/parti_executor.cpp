#include "parti/parti_executor.hpp"

#include "gpusim/dev_memory.hpp"

namespace scalfrag::parti {

ExecResult run_mttkrp(gpusim::SimDevice& dev, const CooSpan& t,
                      const FactorList& factors, order_t mode,
                      const ExecOptions& opt) {
  const index_t rank = check_factors(t, factors);
  SF_CHECK(t.is_sorted_by_mode(mode), "tensor must be sorted by the mode");
  // Established once; the hint makes the feature extraction below O(nnz)
  // with no second sortedness scan.
  CooSpan view = t;
  view.assume_sorted_by(mode);

  dev.reset_timeline();

  // Device allocations: full tensor + all factors + output.
  gpusim::DeviceBuffer<char> d_tensor(dev.allocator(), t.bytes());
  std::size_t factor_bytes = 0;
  for (const auto& f : factors) factor_bytes += f.bytes();
  gpusim::DeviceBuffer<char> d_factors(dev.allocator(), factor_bytes);
  gpusim::DeviceBuffer<char> d_out(
      dev.allocator(),
      static_cast<std::size_t>(t.dim(mode)) * rank * sizeof(value_t));

  ExecResult res;
  res.output = DenseMatrix(t.dim(mode), rank);

  const TensorFeatures feat = TensorFeatures::extract(view, mode);
  const gpusim::KernelProfile prof = mttkrp_profile(feat, rank);
  res.launch = opt.launch ? *opt.launch : default_launch(dev.spec(), t.nnz());

  const gpusim::StreamId s = 0;  // default stream: fully synchronous
  dev.memcpy_h2d(s, t.bytes(), nullptr, "H2D tensor");
  dev.memcpy_h2d(s, factor_bytes, nullptr, "H2D factors");
  auto kt = dev.launch_kernel(
      s, res.launch, prof,
      [&] { mttkrp_exec(view, factors, mode, res.output); }, "ParTI SpMTTKRP");
  dev.memcpy_d2h(s, d_out.bytes(), nullptr, "D2H output");

  res.total_ns = dev.synchronize();
  res.breakdown = dev.breakdown();
  res.kernel_ns = kt.total;
  res.kernel_gflops = kt.total > 0 ? static_cast<double>(prof.flops) /
                                         static_cast<double>(kt.total)
                                   : 0.0;
  return res;
}

}  // namespace scalfrag::parti
