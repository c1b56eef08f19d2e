#pragma once
// The parallel host execution engine. mttkrp_coo_ref defines
// correctness; this file makes the same computation run at host-memory
// speed: rank-tiled, pointer-hoisted inner loops over zero-copy CooSpan
// views (contiguous spans and ModeViews-style gather views alike),
// multithreaded on ThreadPool::global() with two partitioning schemes
// (Nisa et al.'s load-balanced slice ownership, and privatized
// accumulators with a reduction pass for unsorted/skewed inputs).
// Every kernel body in the repository — the ScalFrag segment kernel,
// the ParTI baseline, the hybrid CPU path, CPD-ALS's reference
// backend — routes through here.

#include "common/cpu_caps.hpp"
#include "obs/metrics.hpp"
#include "tensor/coo.hpp"
#include "tensor/csf.hpp"
#include "tensor/features.hpp"
#include "tensor/mttkrp_ref.hpp"

namespace scalfrag {

/// How the non-zero range is split across threads.
enum class HostStrategy {
  /// Pick per call: Serial below grain_nnz; SliceOwner when the mode's
  /// index array is non-decreasing and no slice dominates; else
  /// PrivateReduce.
  Auto,
  /// Single-threaded pointer-hoisted kernel (the testing baseline —
  /// same summation order as mttkrp_coo_ref; only FMA contraction in
  /// the fused inner loops can move the last bits).
  Serial,
  /// Cut the range on slice boundaries; each thread owns the output
  /// rows of its chunk, so no atomics and no reduction pass. Requires
  /// slices_contiguous(mode).
  SliceOwner,
  /// Even nnz split into per-thread private output buffers, followed
  /// by a parallel tree reduction over output rows. Works for any
  /// entry order; costs O(threads · mode_dim · rank) extra memory.
  PrivateReduce,
};

const char* host_strategy_name(HostStrategy s);

/// Knobs of the host engine. The defaults give the parallel fast path
/// on large inputs and the serial kernel on small ones.
///
/// This is the low-level engine parameter block. Application code
/// should build a `scalfrag::ExecConfig` (src/scalfrag/exec_config.hpp)
/// and let the drivers derive the HostExecParams from it; the engine
/// entry points below stay on this struct because the tensor layer
/// cannot see the scalfrag layer.
struct HostExecParams {
  /// Worker-count cap; 0 = every worker of ThreadPool::global().
  std::size_t threads = 0;
  /// Ranges smaller than this run serially on the caller (dispatch
  /// overhead floor; also the grain handed to ThreadPool::parallel_for).
  nnz_t grain_nnz = 8192;
  HostStrategy strategy = HostStrategy::Auto;
  /// Optional precomputed features of the viewed tensor. When present,
  /// Auto's strategy choice is O(1): it reads max_nnz_per_slice instead
  /// of probing the index array. Setting this asserts the view is the
  /// mode-grouped (slice-contiguous) tensor the features were extracted
  /// from — the pipeline's fused segment features and the planner
  /// satisfy this by construction.
  const TensorFeatures* features = nullptr;
  /// Optional observability sink. When set, every engine call records
  /// its strategy dispatch, selected kernel ISA, nnz processed, and
  /// wall-clock span there (thread-safe; see src/obs/metrics.hpp).
  obs::MetricsRegistry* metrics = nullptr;
  /// Kernel ISA of the rank-tile microkernels (src/tensor/simd/). Auto
  /// picks the best table this build and CPU support, honoring
  /// $SCALFRAG_HOST_ISA; a concrete value forces that table and throws
  /// when it is unsupported. All tables produce bit-identical output,
  /// so this knob trades only speed, never results.
  HostIsa isa = HostIsa::Auto;
  /// Worker-to-core pinning applied to ThreadPool::global() before the
  /// parallel sections (idempotent, so per-call cost is a flag check).
  /// None leaves the current affinity untouched — it does NOT unpin.
  /// Pinning also fixes NUMA first-touch placement of the
  /// PrivateReduce private buffers, which are allocated and faulted
  /// inside the worker that fills them.
  PinPolicy pinning = PinPolicy::None;
};

/// check_factors against a span's shape (same contract as the
/// CooTensor overload in mttkrp_ref.hpp). Returns the common rank F.
index_t check_factors(const CooSpan& t, const FactorList& factors);

/// The strategy Auto would pick for this input (exposed for tests and
/// the docs' selection table).
HostStrategy choose_host_strategy(const CooSpan& t, order_t mode,
                                  const HostExecParams& opt = {});

/// Parallel mode-`mode` MTTKRP of the viewed range into `out` (shape
/// dims[mode] × F; zeroed first unless `accumulate`). Agrees with
/// mttkrp_coo_ref to FP tolerance — parallel strategies reassociate
/// the per-row sums, exactly like a GPU kernel would.
void mttkrp_coo_par(const CooSpan& t, const FactorList& factors, order_t mode,
                    DenseMatrix& out, bool accumulate = false,
                    const HostExecParams& opt = {});

/// Convenience wrapper allocating the output.
DenseMatrix mttkrp_coo_par(const CooSpan& t, const FactorList& factors,
                           order_t mode, const HostExecParams& opt = {});

/// CSF MTTKRP for the root mode, parallel over root slices (each root
/// node owns one output row, so chunks of slices are race-free).
void mttkrp_csf_par(const CsfTensor& t, const FactorList& factors,
                    DenseMatrix& out, bool accumulate = false,
                    const HostExecParams& opt = {});

}  // namespace scalfrag
