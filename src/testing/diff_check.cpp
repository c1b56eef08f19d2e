#include "testing/diff_check.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "parti/parti_executor.hpp"
#include "scalfrag/backend_registry.hpp"
#include "scalfrag/multi_pipeline.hpp"
#include "scalfrag/pipeline.hpp"
#include "tensor/csf_tiled.hpp"
#include "tensor/fcoo.hpp"
#include "tensor/hicoo.hpp"
#include "tensor/mode_views.hpp"
#include "tensor/mttkrp_par.hpp"

namespace scalfrag::testing {
namespace {

DenseMatrix run_host_engine(const CooSpan& t, const FactorList& f,
                            order_t mode, HostStrategy strategy,
                            std::size_t threads) {
  HostExecParams opt;
  opt.strategy = strategy;
  opt.threads = threads;
  opt.grain_nnz = 1;  // fuzz tensors are small; force the parallel paths
  return mttkrp_coo_par(t, f, mode, opt);
}

DenseMatrix run_pipeline(const CooSpan& t, const FactorList& f, order_t mode,
                         int segments, int streams, nnz_t hybrid_threshold,
                         HostStrategy strategy = HostStrategy::Auto,
                         bool use_shared_mem = true,
                         bool schedule_from_plan = false) {
  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
  ExecConfig opt = ExecConfig{}
                       .segments(segments)
                       .streams(streams)
                       .shared_mem(use_shared_mem)
                       .hybrid_threshold(hybrid_threshold)
                       .strategy(strategy)
                       .grain(64);
  if (!schedule_from_plan) {
    return scalfrag::run_pipeline(dev, t, f, mode, opt).output;
  }
  // Overwrite the realized plan's launches with alternating shapes so a
  // launch paired with the wrong segment would actually change the
  // simulated kernels (and any config-sensitive bug surfaces).
  SF_CHECK(segments > 0, "scheduled paths need an explicit count");
  const index_t rank = f[0].cols();
  PipelinePlan plan = make_pipeline_plan(dev, t, mode, rank, opt);
  for (std::size_t i = 0; i < plan.launches.size(); ++i) {
    gpusim::LaunchConfig c{i % 2 == 0 ? 48u : 96u, i % 2 == 0 ? 128u : 64u,
                           0};
    if (use_shared_mem) c.shmem_per_block = kernel_shmem_bytes(c.block, rank);
    plan.launches[i] = c;
  }
  return PipelineExecutor(dev).run(plan, t, f, opt).output;
}

DenseMatrix run_multidev(const CooSpan& t, const FactorList& f, order_t mode,
                         int devices, int segments,
                         std::optional<gpusim::ReduceSchedule> sched = {}) {
  gpusim::DeviceGroup group(gpusim::DeviceSpec::rtx3090(), devices);
  ExecConfig cfg = ExecConfig{}
                       .devices(devices)
                       .segments(segments)
                       .streams(2)
                       .grain(64);
  if (sched) cfg.reduction(*sched);
  return run_multi_pipeline(group, t, f, mode, cfg).output;
}

/// Alternating 3090/3060 group: runs the full feature set (weighted
/// sharding + overlapped reduction + work stealing) and cross-checks
/// the result BIT-FOR-BIT against the barrier/no-steal run on the same
/// group — overlap and stealing are scheduling-only by contract, so
/// any byte of difference is a fold-order bug tolerance would mask.
DenseMatrix run_multidev_hetero(const CooSpan& t, const FactorList& f,
                                order_t mode, int devices, int segments) {
  std::vector<gpusim::DeviceSpec> specs;
  specs.reserve(static_cast<std::size_t>(devices));
  for (int d = 0; d < devices; ++d) {
    specs.push_back(d % 2 == 0 ? gpusim::DeviceSpec::rtx3090()
                               : gpusim::DeviceSpec::rtx3060());
  }
  gpusim::DeviceGroup group(specs);
  const ExecConfig cfg = ExecConfig{}
                             .devices(devices)
                             .segments(segments)
                             .streams(2)
                             .grain(64);
  const DenseMatrix full = run_multi_pipeline(group, t, f, mode, cfg).output;
  const DenseMatrix barrier =
      run_multi_pipeline(group, t, f, mode,
                         ExecConfig(cfg).overlap_reduce(false).steal(false))
          .output;
  SF_CHECK(full.rows() == barrier.rows() && full.cols() == barrier.cols(),
           "hetero multidev output shape mismatch");
  SF_CHECK(std::memcmp(full.data(), barrier.data(),
                       full.size() * sizeof(value_t)) == 0,
           "overlapped/stealing heterogeneous run is not bit-identical "
           "to the barrier run");
  return full;
}

DenseMatrix run_csf_tiled(const CooTensor& t, const FactorList& f,
                          order_t mode, CsfTiledVariant variant,
                          std::size_t threads, nnz_t fiber_budget) {
  const CsfTensor csf = CsfTensor::build(t, mode);
  DenseMatrix out(t.dim(mode), f[0].cols());
  CsfTiledOptions opt;
  opt.variant = variant;
  opt.fiber_budget = fiber_budget;  // tiny so fuzz tensors multi-tile
  opt.host.threads = threads;
  opt.host.grain_nnz = 1;  // keep the tiled schedules live at fuzz sizes
  mttkrp_csf_tiled(csf, f, out, /*accumulate=*/false, opt);
  return out;
}

/// True when the (sorted) tensor holds two entries with identical
/// coordinates in every mode. The CSF-serial / COO-serial bit-identity
/// contract only covers duplicate-free inputs.
bool has_duplicate_coords(const CooTensor& t) {
  for (nnz_t e = 1; e < t.nnz(); ++e) {
    bool same = true;
    for (order_t m = 0; m < t.order() && same; ++m) {
      same = t.index(m, e) == t.index(m, e - 1);
    }
    if (same) return true;
  }
  return false;
}

/// Threshold one above the mean slice size — a skewed tensor then
/// always has both CPU and GPU shares.
nnz_t mixed_hybrid_threshold(const CooTensor& t, order_t mode) {
  const TensorFeatures feat = TensorFeatures::extract(t, mode);
  return static_cast<nnz_t>(feat.avg_nnz_per_slice) + 1;
}

/// Runs `exec` on a ModeViews gather view of `t`, cross-checks the
/// result BIT-FOR-BIT against the same path on the materialized copy of
/// that view (same logical order, so any difference is a
/// gather-addressing bug — FP tolerance would mask it), and returns the
/// view-side result for the usual oracle comparison.
template <typename Exec>
DenseMatrix run_on_views(const CooTensor& t, order_t mode, Exec exec) {
  const ModeViews views(t);
  const CooSpan view = views.view(mode);
  const DenseMatrix got = exec(view);

  const CooTensor dense = view.materialize();
  CooSpan flat(dense);
  flat.assume_sorted_by(mode);
  const DenseMatrix want = exec(flat);
  SF_CHECK(got.rows() == want.rows() && got.cols() == want.cols(),
           "view/materialized output shape mismatch");
  SF_CHECK(std::memcmp(got.data(), want.data(),
                       got.size() * sizeof(value_t)) == 0,
           "permutation-view result is not bit-identical to the "
           "materialized-copy run");
  return got;
}

const std::vector<ExecPath>& build_table() {
  static const std::vector<ExecPath> kPaths = [] {
    std::vector<ExecPath> paths;
    auto add = [&](std::string name, decltype(ExecPath::run) run,
                   decltype(ExecPath::supports) supports = nullptr) {
      paths.push_back({std::move(name), std::move(run), std::move(supports)});
    };

    add("coo_ref", [](const CooTensor& t, const FactorList& f, order_t mode) {
      return mttkrp_coo_ref(t, f, mode);
    });

    // Host engine: every strategy × {1, 2, 4} worker caps.
    add("coo_par/serial",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_host_engine(t, f, mode, HostStrategy::Serial, 1);
        });
    add("coo_par/auto", [](const CooTensor& t, const FactorList& f,
                           order_t mode) {
      return run_host_engine(t, f, mode, HostStrategy::Auto, 0);
    });
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      add("coo_par/slice_owner/t" + std::to_string(threads),
          [threads](const CooTensor& t, const FactorList& f, order_t mode) {
            return run_host_engine(t, f, mode, HostStrategy::SliceOwner,
                                   threads);
          });
      add("coo_par/private_reduce/t" + std::to_string(threads),
          [threads](const CooTensor& t, const FactorList& f, order_t mode) {
            return run_host_engine(t, f, mode, HostStrategy::PrivateReduce,
                                   threads);
          });
    }

    // SIMD kernel tables (src/tensor/simd/): each ISA forced explicitly
    // under the Serial strategy, so the only varying piece is the
    // vector table itself; supports() skips ISAs this build/CPU lacks.
    for (HostIsa isa : {HostIsa::Scalar, HostIsa::Avx2, HostIsa::Avx512}) {
      add(std::string("coo_par/isa_") + host_isa_name(isa),
          [isa](const CooTensor& t, const FactorList& f, order_t mode) {
            HostExecParams opt;
            opt.strategy = HostStrategy::Serial;
            opt.grain_nnz = 1;
            opt.isa = isa;
            return mttkrp_coo_par(t, f, mode, opt);
          },
          [isa](const CooTensor&, order_t) {
            return host_isa_supported(isa);
          });
    }
    // The bit-identity contract itself: every supported vector table
    // must memcmp-equal the scalar table, on the contiguous span AND on
    // a gather view (the masked/prefetched path). FP tolerance would
    // mask a lane-order bug, so this is exact.
    add("coo_par/isa_bit_identical",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          auto run_isa = [&](const CooSpan& v, HostIsa isa) {
            HostExecParams opt;
            opt.strategy = HostStrategy::Serial;
            opt.grain_nnz = 1;
            opt.isa = isa;
            return mttkrp_coo_par(v, f, mode, opt);
          };
          CooSpan flat(t);
          flat.assume_sorted_by(mode);
          const ModeViews views(t);
          const CooSpan gather = views.view(mode);
          const DenseMatrix want_flat = run_isa(flat, HostIsa::Scalar);
          const DenseMatrix want_gather = run_isa(gather, HostIsa::Scalar);
          for (HostIsa isa : {HostIsa::Avx2, HostIsa::Avx512}) {
            if (!host_isa_supported(isa)) continue;
            const DenseMatrix got_flat = run_isa(flat, isa);
            SF_CHECK(std::memcmp(got_flat.data(), want_flat.data(),
                                 want_flat.size() * sizeof(value_t)) == 0,
                     std::string(host_isa_name(isa)) +
                         " is not bit-identical to scalar on the "
                         "contiguous span");
            const DenseMatrix got_gather = run_isa(gather, isa);
            SF_CHECK(std::memcmp(got_gather.data(), want_gather.data(),
                                 want_gather.size() * sizeof(value_t)) == 0,
                     std::string(host_isa_name(isa)) +
                         " is not bit-identical to scalar on the "
                         "gather view");
          }
          return want_flat;
        });

    // Tree formats: plain CSF, the parallel CSF walker, and the
    // slice-split balanced variant.
    add("csf_ref", [](const CooTensor& t, const FactorList& f, order_t mode) {
      const CsfTensor csf = CsfTensor::build(t, mode);
      DenseMatrix out(t.dim(mode), f[0].cols());
      mttkrp_csf(csf, f, out);
      return out;
    });
    add("csf_par/t4",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          const CsfTensor csf = CsfTensor::build(t, mode);
          DenseMatrix out(t.dim(mode), f[0].cols());
          HostExecParams opt;
          opt.threads = 4;
          opt.grain_nnz = 1;
          mttkrp_csf_par(csf, f, out, /*accumulate=*/false, opt);
          return out;
        });
    // The CSF tiled backend: every schedule against the oracle, the
    // serial fallback additionally against the COO serial kernel
    // BIT-FOR-BIT on duplicate-free inputs (CSF leaves enumerate the
    // entries in exactly the sorted COO order and both paths route
    // through the same rank-tile microkernels, so any difference is a
    // walk-order or seed/store bug that FP tolerance would mask).
    add("csf_tiled/serial",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          const DenseMatrix got =
              run_csf_tiled(t, f, mode, CsfTiledVariant::Serial, 1, 0);
          if (!has_duplicate_coords(t)) {
            const DenseMatrix want =
                run_host_engine(t, f, mode, HostStrategy::Serial, 1);
            SF_CHECK(got.rows() == want.rows() && got.cols() == want.cols(),
                     "csf_tiled/serial output shape mismatch");
            SF_CHECK(std::memcmp(got.data(), want.data(),
                                 got.size() * sizeof(value_t)) == 0,
                     "CSF-tiled serial walk is not bit-identical to the "
                     "COO serial kernel on a duplicate-free input");
          }
          return got;
        });
    add("csf_tiled/sync/t4",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_csf_tiled(t, f, mode, CsfTiledVariant::Sync, 4, 3);
        });
    add("csf_tiled/coop/t4",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_csf_tiled(t, f, mode, CsfTiledVariant::Coop, 4, 3);
        });
    // CSF built from a ModeViews gather span must match the build from
    // the materialized copy bit-for-bit (run_on_views asserts it).
    add("csf_tiled/views",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_on_views(t, mode, [&](const CooSpan& v) {
            const CsfTensor csf = CsfTensor::build(v, mode);
            DenseMatrix out(t.dim(mode), f[0].cols());
            CsfTiledOptions opt;
            opt.fiber_budget = 3;
            opt.host.threads = 4;
            opt.host.grain_nnz = 1;
            mttkrp_csf_tiled(csf, f, out, /*accumulate=*/false, opt);
            return out;
          });
        });
    // The out-of-core streaming backend under a deliberately tiny
    // budget, so fuzz-sized tensors actually window, spill, and chunk.
    // Slice-aligned chunks + elementwise combine preserve every bit, so
    // on duplicate-free inputs the result must memcmp-equal the in-core
    // "coo" backend under the same Serial strategy (PrivateReduce would
    // reassociate the per-row sums; FP tolerance would mask a chunk
    // boundary bug).
    add("backend/coo_stream",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          ExecConfig cfg = ExecConfig{}
                               .segments(2)
                               .streams(2)
                               .strategy(HostStrategy::Serial)
                               .grain(1)
                               .memory_budget(std::size_t{1} << 12);
          gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
          cfg.backend("coo_stream");
          const DenseMatrix got =
              run_mttkrp_backend(dev, t, f, mode, cfg).output;
          if (!has_duplicate_coords(t)) {
            gpusim::SimDevice dev2(gpusim::DeviceSpec::rtx3090());
            cfg.backend("coo");
            const DenseMatrix want =
                run_mttkrp_backend(dev2, t, f, mode, cfg).output;
            SF_CHECK(got.rows() == want.rows() && got.cols() == want.cols(),
                     "coo_stream output shape mismatch");
            SF_CHECK(std::memcmp(got.data(), want.data(),
                                 got.size() * sizeof(value_t)) == 0,
                     "out-of-core streaming result is not bit-identical "
                     "to the in-core coo backend on a duplicate-free "
                     "input");
          }
          return got;
        });

    // The joint (format, launch) auto dispatch end to end: whatever
    // backend the selector picks must still match the oracle.
    add("backend/auto_joint",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
          const ExecConfig cfg = ExecConfig{}.backend("auto").grain(1);
          return run_mttkrp_backend(dev, t, f, mode, cfg).output;
        });

    // Blocked / flagged coordinate formats.
    add("hicoo", [](const CooTensor& t, const FactorList& f, order_t mode) {
      const HicooTensor h = HicooTensor::build(t, 4);
      DenseMatrix out(t.dim(mode), f[0].cols());
      h.mttkrp(f, mode, out);
      return out;
    });
    add("fcoo", [](const CooTensor& t, const FactorList& f, order_t mode) {
      // Small partitions so segments regularly straddle partitions.
      const FcooTensor fc = FcooTensor::build(t, mode, 7);
      DenseMatrix out(t.dim(mode), f[0].cols());
      fc.mttkrp(f, out);
      return out;
    });

    // The ParTI synchronous baseline on the simulated device.
    add("parti", [](const CooTensor& t, const FactorList& f, order_t mode) {
      gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
      return parti::run_mttkrp(dev, t, f, mode).output;
    });

    // The segmented pipeline across segment/stream shapes, including
    // the auto-segmentation rule.
    add("pipeline/auto",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_pipeline(t, f, mode, 0, 4, 0);
        });
    add("pipeline/s1x1",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_pipeline(t, f, mode, 1, 1, 0);
        });
    add("pipeline/s3x2",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_pipeline(t, f, mode, 3, 2, 0);
        });
    add("pipeline/s8x4/private_reduce",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_pipeline(t, f, mode, 8, 4, 0,
                              HostStrategy::PrivateReduce);
        });

    // The global-memory kernel variant (no shared-memory privatization)
    // and plans whose per-segment launches were rewritten after the
    // build — alone and combined with the hybrid split.
    add("pipeline/s4x2/noshmem",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_pipeline(t, f, mode, 4, 2, 0, HostStrategy::Auto,
                              /*use_shared_mem=*/false);
        });
    add("pipeline/s3x2/scheduled",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_pipeline(t, f, mode, 3, 2, 0, HostStrategy::Auto,
                              /*use_shared_mem=*/true,
                              /*schedule_from_plan=*/true);
        });
    // Budget-driven segmentation: the count comes from the device-memory
    // planner (exercises the mode/rank-aware accounting end to end).
    add("pipeline/budget",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          const index_t rank = f[0].cols();
          const std::size_t budget =
              pipeline_resident_bytes(t, mode, rank) + t.bytes() / 2 +
              2 * (t.order() * sizeof(index_t) + sizeof(value_t)) + 1;
          return run_pipeline(t, f, mode,
                              segments_for_budget(t, mode, rank, budget), 2,
                              0);
        });

    // CPU–GPU hybrid: mixed split and the all-CPU degenerate split.
    add("hybrid/mixed",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_pipeline(t, f, mode, 2, 2,
                              mixed_hybrid_threshold(t, mode));
        });
    add("hybrid/mixed/scheduled_noshmem",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_pipeline(t, f, mode, 2, 2,
                              mixed_hybrid_threshold(t, mode),
                              HostStrategy::Auto,
                              /*use_shared_mem=*/false,
                              /*schedule_from_plan=*/true);
        });
    add("hybrid/all_cpu",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_pipeline(t, f, mode, 1, 2, t.nnz() + 1);
        });

    // Permutation-view execution (ModeViews): the same engines fed a
    // single-sort gather view instead of a contiguous sorted copy.
    // Each row also asserts bit-identity against the materialized copy
    // of the view (see run_on_views) before the oracle comparison.
    add("views/host_engine",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_on_views(t, mode, [&](const CooSpan& v) {
            return run_host_engine(v, f, mode, HostStrategy::Auto, 0);
          });
        });
    add("views/pipeline/s3x2",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_on_views(t, mode, [&](const CooSpan& v) {
            return run_pipeline(v, f, mode, 3, 2, 0);
          });
        });
    add("views/hybrid/mixed",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          const nnz_t thr = mixed_hybrid_threshold(t, mode);
          return run_on_views(t, mode, [&](const CooSpan& v) {
            return run_pipeline(v, f, mode, 2, 2, thr);
          });
        });
    // The gather_limit fallback (per-mode materialized copies) forced
    // via gather_limit=0: the same engine fed the fallback view must be
    // bit-identical to the gather-view path — the two present the same
    // logical order, so any difference is a fallback indexing bug.
    add("views/materialized_fallback",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          const ModeViews fallback(t, nullptr, /*gather_limit=*/0);
          SF_CHECK(t.nnz() == 0 || t.order() == 1 || fallback.materialized(),
                   "gather_limit=0 must force the materialized fallback");
          const ModeViews gathered(t);
          auto exec = [&](const CooSpan& v) {
            return run_host_engine(v, f, mode, HostStrategy::Serial, 1);
          };
          const DenseMatrix got = exec(fallback.view(mode));
          const DenseMatrix want = exec(gathered.view(mode));
          SF_CHECK(got.rows() == want.rows() && got.cols() == want.cols(),
                   "fallback view output shape mismatch");
          SF_CHECK(std::memcmp(got.data(), want.data(),
                               got.size() * sizeof(value_t)) == 0,
                   "materialized-fallback view result is not "
                   "bit-identical to the gather-view result");
          return got;
        });
    add("views/multidev/d2",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_on_views(t, mode, [&](const CooSpan& v) {
            return run_multidev(v, f, mode, 2, 0);
          });
        });

    // Multi-device sharded pipelines: the realized segment plan is
    // partitioned across N simulated devices and the per-device
    // partials reduced — both collective schedules, plus the
    // auto-segmented shape.
    add("multidev/d2/auto",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_multidev(t, f, mode, 2, 0);
        });
    add("multidev/d3/tree",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_multidev(t, f, mode, 3, 5,
                              gpusim::ReduceSchedule::Tree);
        });
    add("multidev/d4/ring",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_multidev(t, f, mode, 4, 8,
                              gpusim::ReduceSchedule::Ring);
        });

    // Heterogeneous groups (alternating 3090/3060): weighted sharding,
    // overlapped reduction, and stealing all on, memcmp'd inside the
    // row against the barrier/no-steal run on the same group.
    add("multidev/hetero/d2",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_multidev_hetero(t, f, mode, 2, 0);
        });
    add("multidev/hetero/d4",
        [](const CooTensor& t, const FactorList& f, order_t mode) {
          return run_multidev_hetero(t, f, mode, 4, 8);
        });

    return paths;
  }();
  return kPaths;
}

CooTensor remove_entry_range(const CooTensor& t, nnz_t begin, nnz_t end) {
  CooTensor out(t.dims());
  out.reserve(t.nnz() - (end - begin));
  std::vector<index_t> c(t.order());
  for (nnz_t e = 0; e < t.nnz(); ++e) {
    if (e >= begin && e < end) continue;
    for (order_t m = 0; m < t.order(); ++m) c[m] = t.index(m, e);
    out.push(std::span<const index_t>(c.data(), c.size()), t.value(e));
  }
  return out;
}

}  // namespace

const std::vector<ExecPath>& conformance_paths() { return build_table(); }

FactorList conformance_factors(const CooTensor& t, index_t rank,
                               std::uint64_t seed) {
  Rng rng(seed);
  FactorList f;
  f.reserve(t.order());
  for (order_t m = 0; m < t.order(); ++m) {
    DenseMatrix a(t.dim(m), rank);
    a.randomize(rng);
    f.push_back(std::move(a));
  }
  return f;
}

DiffReport check_all_paths(const CooTensor& t, order_t mode,
                           const DiffOptions& opt) {
  SF_CHECK(mode < t.order(), "mode out of range");
  SF_CHECK(opt.rank > 0, "rank must be positive");

  const FactorList factors =
      conformance_factors(t, opt.rank, opt.factor_seed);
  const OracleResult oracle = mttkrp_oracle(t, factors, mode);

  CooTensor sorted = t;
  sorted.sort_by_mode(mode);

  DiffReport rep;
  auto matches_filter = [&](const std::string& name) {
    return opt.path_filter.empty() ||
           name.find(opt.path_filter) != std::string::npos;
  };
  auto run_one = [&](const std::string& name, const CooTensor& input,
                     const decltype(ExecPath::run)& run) {
    Divergence div;
    div.path = name;
    try {
      const DenseMatrix out = run(input, factors, mode);
      const OracleDiff d =
          compare_to_oracle(oracle, out, t.order(), opt.tolerance);
      if (!d.diverged) {
        ++rep.paths_run;
        return false;
      }
      div.row = d.row;
      div.col = d.col;
      div.got = d.got;
      div.want = d.want;
      div.tol = d.tol;
    } catch (const std::exception& ex) {
      div.threw = true;
      div.message = ex.what();
    }
    ++rep.paths_run;
    rep.divergences.push_back(std::move(div));
    return true;
  };

  for (const ExecPath& p : conformance_paths()) {
    if (!matches_filter(p.name)) continue;
    if (p.supports && !p.supports(sorted, mode)) {
      ++rep.paths_skipped;
      continue;
    }
    if (run_one(p.name, sorted, p.run) && opt.stop_at_first) return rep;
  }

  // Order-independent paths additionally run on the raw entry order —
  // only meaningful when the input actually arrived unsorted.
  if (!t.is_sorted_by_mode(mode)) {
    if (matches_filter("coo_ref/raw_order")) {
      const bool failed = run_one(
          "coo_ref/raw_order", t,
          [](const CooTensor& rt, const FactorList& f, order_t m) {
            return mttkrp_coo_ref(rt, f, m);
          });
      if (failed && opt.stop_at_first) return rep;
    }
    if (matches_filter("coo_par/private_reduce/raw_order")) {
      const bool failed = run_one(
          "coo_par/private_reduce/raw_order", t,
          [](const CooTensor& rt, const FactorList& f, order_t m) {
            return run_host_engine(rt, f, m, HostStrategy::PrivateReduce, 4);
          });
      if (failed && opt.stop_at_first) return rep;
    }
  }
  return rep;
}

CooTensor shrink_tensor(const CooTensor& t,
                        const std::function<bool(const CooTensor&)>&
                            still_fails) {
  SF_CHECK(still_fails(t), "shrink_tensor requires a failing input");
  CooTensor cur = t;
  nnz_t chunk = std::max<nnz_t>(1, cur.nnz() / 2);
  for (;;) {
    bool removed = false;
    nnz_t pos = 0;
    while (pos < cur.nnz()) {
      const nnz_t end = std::min<nnz_t>(pos + chunk, cur.nnz());
      CooTensor cand = remove_entry_range(cur, pos, end);
      if (still_fails(cand)) {
        cur = std::move(cand);
        removed = true;
        // Re-test from the same position: the next chunk slid into it.
      } else {
        pos = end;
      }
    }
    if (chunk > 1) {
      chunk = std::max<nnz_t>(1, chunk / 2);
    } else if (!removed) {
      break;  // 1-minimal: no single entry can be removed
    }
  }
  return cur;
}

std::function<bool(const CooTensor&)> divergence_predicate(order_t mode,
                                                           DiffOptions opt) {
  opt.stop_at_first = true;
  return [mode, opt](const CooTensor& t) {
    return !check_all_paths(t, mode, opt).ok();
  };
}

}  // namespace scalfrag::testing
