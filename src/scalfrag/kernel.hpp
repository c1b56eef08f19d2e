#pragma once
// ScalFrag's tiled shared-memory MTTKRP kernel (paper §IV-A: "the
// frequently accessed data in the kernel and intermediate results
// (e.g., computation result mvals, factor matrices times_mat) are
// stored in shared memory").
//
// Modeled structure, per thread block:
//  * a `times_mat` staging tile of gathered factor rows lives in shared
//    memory, so repeated rows within a fiber/slice are read from DRAM
//    once per block instead of once per non-zero;
//  * partial outputs (`mvals`) accumulate in a shared-memory tile and
//    flush to the global output once per slice — turning ParTI's
//    per-non-zero atomics into per-slice-flush atomics.
//
// The shared-memory footprint grows with blockSize and rank, which is
// exactly what makes blockSize a real tuning knob (occupancy cliff).

#include "gpusim/cost_model.hpp"
#include "tensor/csf_tiled.hpp"
#include "tensor/features.hpp"
#include "tensor/mttkrp_par.hpp"
#include "tensor/mttkrp_ref.hpp"

namespace scalfrag {

/// Shared memory per block for a given blockSize/rank: the times_mat
/// tile (one F-row per thread) plus the mvals accumulation tile.
std::size_t kernel_shmem_bytes(std::uint32_t block, index_t rank);

/// Cost-model profile of the ScalFrag kernel over a (segment's)
/// feature summary. `use_shared_mem` is the ablation switch
/// (ExecConfig::use_shared_mem).
gpusim::KernelProfile mttkrp_profile(const TensorFeatures& feat, index_t rank,
                                     bool use_shared_mem = true);

/// Cost-model profile of the CSF tiled kernel (fig9's CSF-tiled
/// series). Deterministic in the tree's node counts: index traffic is
/// the exact CSF array footprint, factor reads are amortized to one row
/// per tree node (the whole point of the format), and the schedule adds
/// its own synchronization term — sync pays one cross-tile partial fold
/// per shared boundary slice, coop pays the per-tile block reduction.
gpusim::KernelProfile csf_tiled_profile(const CsfTensor& csf,
                                        const CsfTiling& tiling, index_t rank,
                                        CsfTiledVariant variant);

/// Functional kernel body: accumulate mode-`mode` MTTKRP of the segment
/// into `out` (commutative adds; cross-segment accumulation safe). The
/// segment is a zero-copy view; it runs on the host execution engine
/// (CooTensor converts implicitly, so old call sites still work).
void mttkrp_exec(const CooSpan& segment, const FactorList& factors,
                 order_t mode, DenseMatrix& out,
                 const HostExecParams& opt = {});

}  // namespace scalfrag
