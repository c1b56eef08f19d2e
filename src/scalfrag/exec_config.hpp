#pragma once
// ExecConfig — the one execution-configuration surface for every
// driver in the repository.
//
// One builder-style value that `run_pipeline`, `run_hybrid` (the
// pipeline's hybrid split), `cpd_als`, `tucker_hooi` and the
// multi-device executor all accept, and that a service JobSpec
// carries. The host engine's low-level block is HostExecParams
// (host_for_run() derives it).
//
//   auto cfg = scalfrag::ExecConfig{}
//                  .devices(4)
//                  .segments_auto()
//                  .threads(8)
//                  .metrics(&reg);
//
// Fields stay public (aggregate-style reads everywhere in the
// executors); the fluent setters exist so configs compose in one
// expression.

#include <optional>
#include <string>
#include <vector>

#include "gpusim/device_group.hpp"
#include "obs/metrics.hpp"
#include "tensor/mttkrp_par.hpp"

namespace scalfrag {

struct ExecConfig {
  // --- backend ---------------------------------------------------------
  /// Execution backend, resolved by name in the BackendRegistry
  /// (src/scalfrag/backend_registry.hpp). "coo" is the classic tiled
  /// pipeline; "csf_tiled" (alias of "csf_tiled_sync"),
  /// "csf_tiled_coop", "csf_tiled_serial" run the CSF tiled engine;
  /// "coo_host" is the host engine alone; "coo_stream" is the
  /// out-of-core pipeline bounded by memory_budget_bytes; "auto" asks
  /// the joint format×launch selector. validate() rejects unknown names
  /// with a typed UnknownBackendError.
  std::string backend_name = "coo";
  // --- device group (multi-device sharding) ---------------------------
  /// Simulated devices to shard segments across. 1 = the classic
  /// single-device pipeline; N > 1 shards it (run_multi_pipeline).
  int num_devices = 1;
  /// Partial-output reduction schedule across devices; nullopt picks
  /// the cheaper of tree/ring for the output size at run time.
  std::optional<gpusim::ReduceSchedule> reduce_schedule;
  /// Peer link the reduction cost model uses.
  gpusim::LinkSpec link = gpusim::LinkSpec::pcie4_p2p();
  /// Cost-weighted uneven sharding for heterogeneous groups: shard cuts
  /// target equal *predicted time* per device instead of equal nnz.
  /// Uniform groups are unaffected — the planner detects equal weights
  /// and takes the exact nnz-balanced integer path.
  bool weighted_sharding = true;
  /// Overlap the chunked cross-device reduction with the compute tail:
  /// each boundary row-block starts its peer exchange as soon as both
  /// neighbouring shards have finished, instead of waiting for the
  /// global barrier. Off reproduces the barrier accounting
  /// (total_ns == compute_ns + reduce_ns) exactly.
  bool overlap_reduction = true;
  /// Segment-granularity work stealing: a device that drains its shard
  /// takes whole segments from the tail of the most-loaded predicted
  /// timeline. Deterministic (decisions are serialized in simulated-
  /// time order) and bit-identical to the non-stealing run.
  bool work_stealing = true;

  // --- segmentation / pipeline ----------------------------------------
  /// 0 = auto: pick a segment count so each segment's copy is large
  /// enough to amortize PCIe latency (the paper "empirically determines
  /// the appropriate number of segments"); small tensors then run
  /// unsegmented. Explicit values (e.g. the Fig. 11 sweep) are honored
  /// as-is. Under multi-device execution the count applies per device.
  int num_segments = 0;
  int num_streams = 4;
  bool use_shared_mem = true;
  bool adaptive_launch = true;
  /// Force a specific launch config (overrides adaptive/static choice).
  std::optional<gpusim::LaunchConfig> launch_override;

  // --- CPU–GPU hybrid --------------------------------------------------
  /// Slice-nnz threshold below which work routes to the CPU (0 = off).
  /// Single-device only; the multi-device executor rejects it.
  nnz_t hybrid_cpu_threshold = 0;
  gpusim::CpuSpec cpu_spec = gpusim::CpuSpec::i7_11700k();

  // --- host execution engine ------------------------------------------
  /// Engine knobs for every functional kernel body a driver runs
  /// (segment kernels, hybrid CPU share, reference backends).
  HostExecParams host_exec;
  /// CSF tile budget (fibers per tile) for the csf_tiled backends;
  /// 0 = CsfTiling::auto_budget.
  nnz_t csf_fiber_budget = 0;

  // --- out-of-core streaming ------------------------------------------
  /// Peak host residency target (bytes) for the out-of-core
  /// "coo_stream" backend: ingest windows, sort scratch, and execution
  /// chunks are all sized from it (docs/outofcore.md has the split).
  /// 0 = the 64 MiB default (scalfrag::kDefaultMemoryBudget). In-core
  /// backends ignore it.
  std::size_t memory_budget_bytes = 0;

  // --- decomposition drivers ------------------------------------------
  /// CP rank / per-call MTTKRP rank for the decomposition drivers
  /// (cpd_als; also what JobSpec carries for MTTKRP service jobs).
  index_t decomp_rank = 16;
  /// ALS/HOOI iteration cap. 0 = the driver's default (CPD 10,
  /// Tucker 15) so one config can drive either decomposition.
  int decomp_max_iters = 0;
  /// Fit-improvement stopping tolerance. Negative = driver default
  /// (CPD 1e-4, Tucker 1e-5); 0 is meaningful — it disables the early
  /// stop so every iteration runs.
  double decomp_tol = -1.0;
  /// Factor-initialization seed. 0 = driver default (CPD 5, Tucker 7).
  /// Committed outputs and baselines depend on these defaults, and
  /// ExecConfig.DefaultDecompositionKnobsArePinned holds them.
  std::uint64_t decomp_seed = 0;
  /// Projected ALS: clamp CPD factors to the non-negative orthant.
  bool cpd_nonnegative = false;
  /// Tucker core size per mode (rₙ). Required by tucker_hooi; ignored
  /// by every other driver.
  std::vector<index_t> tucker_core_dims;

  // --- observability ---------------------------------------------------
  /// Optional sink: executors record phase spans, plan counters, and
  /// device-timeline breakdowns here. LIFETIME: the registry must
  /// outlive every run launched with this config — including replays
  /// through an MttkrpPlan, which copies the config (and this pointer)
  /// by value at plan-build time.
  obs::MetricsRegistry* metrics_sink = nullptr;

  // --- fluent builders -------------------------------------------------
  ExecConfig& backend(std::string name) {
    backend_name = std::move(name);
    return *this;
  }
  /// Fibers per CSF tile for the csf_tiled backends; 0 = auto (about
  /// four tiles per worker). Ignored by the COO backends.
  ExecConfig& csf_budget(nnz_t fibers) {
    csf_fiber_budget = fibers;
    return *this;
  }
  /// Host residency budget for "coo_stream"; 0 = the 64 MiB default.
  ExecConfig& memory_budget(std::size_t bytes) {
    memory_budget_bytes = bytes;
    return *this;
  }
  ExecConfig& devices(int n) { num_devices = n; return *this; }
  ExecConfig& reduction(gpusim::ReduceSchedule s) {
    reduce_schedule = s;
    return *this;
  }
  ExecConfig& peer_link(gpusim::LinkSpec l) {
    link = std::move(l);
    return *this;
  }
  ExecConfig& weighted_shards(bool on) {
    weighted_sharding = on;
    return *this;
  }
  ExecConfig& overlap_reduce(bool on) {
    overlap_reduction = on;
    return *this;
  }
  ExecConfig& steal(bool on) {
    work_stealing = on;
    return *this;
  }
  ExecConfig& segments(int n) { num_segments = n; return *this; }
  ExecConfig& segments_auto() { num_segments = 0; return *this; }
  ExecConfig& streams(int n) { num_streams = n; return *this; }
  ExecConfig& shared_mem(bool on) { use_shared_mem = on; return *this; }
  ExecConfig& adaptive(bool on) { adaptive_launch = on; return *this; }
  ExecConfig& launch(const gpusim::LaunchConfig& c) {
    launch_override = c;
    return *this;
  }
  ExecConfig& hybrid_threshold(nnz_t t) {
    hybrid_cpu_threshold = t;
    return *this;
  }
  ExecConfig& cpu(gpusim::CpuSpec s) {
    cpu_spec = std::move(s);
    return *this;
  }
  ExecConfig& threads(std::size_t n) {
    host_exec.threads = n;
    return *this;
  }
  ExecConfig& grain(nnz_t g) {
    host_exec.grain_nnz = g;
    return *this;
  }
  ExecConfig& strategy(HostStrategy s) {
    host_exec.strategy = s;
    return *this;
  }
  /// Force the host SIMD kernel ISA (default Auto = best supported,
  /// honoring $SCALFRAG_HOST_ISA). All ISAs are bit-identical; this
  /// knob exists for perf experiments and the dispatch self-test.
  ExecConfig& host_isa_override(HostIsa i) {
    host_exec.isa = i;
    return *this;
  }
  /// Pin host workers to cores (and thereby fix NUMA first-touch of
  /// the PrivateReduce scratch). None leaves affinity untouched.
  ExecConfig& host_pinning(PinPolicy p) {
    host_exec.pinning = p;
    return *this;
  }
  ExecConfig& metrics(obs::MetricsRegistry* reg) {
    metrics_sink = reg;
    return *this;
  }
  ExecConfig& rank(index_t r) { decomp_rank = r; return *this; }
  ExecConfig& max_iters(int n) { decomp_max_iters = n; return *this; }
  ExecConfig& tol(double t) { decomp_tol = t; return *this; }
  ExecConfig& seed(std::uint64_t s) { decomp_seed = s; return *this; }
  ExecConfig& nonneg(bool on = true) { cpd_nonnegative = on; return *this; }
  ExecConfig& core_dims(std::vector<index_t> dims) {
    tucker_core_dims = std::move(dims);
    return *this;
  }

  /// Throws scalfrag::Error on inconsistent settings (non-positive
  /// streams/devices, negative segment count, hybrid under multi-device).
  void validate() const;

  /// The engine block a driver should hand to kernel bodies: host_exec
  /// with its metrics pointer defaulted to metrics_sink when unset.
  HostExecParams host_for_run() const {
    HostExecParams h = host_exec;
    if (metrics_sink != nullptr && h.metrics == nullptr) {
      h.metrics = metrics_sink;
    }
    return h;
  }
};

}  // namespace scalfrag
