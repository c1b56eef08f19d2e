#pragma once
// Dense golden oracle for MTTKRP conformance checking.
//
// Every execution path in this repository (reference COO, the parallel
// host engine's strategies, CSF/HiCOO/F-COO, the ParTI baseline,
// the segmented pipeline, the CPU–GPU hybrid) computes the same
// mathematical object:
//
//   M(i_n, f) = Σ_{x ∈ nnz}  val(x) · Π_{m ≠ n} A⁽ᵐ⁾(i_m(x), f)
//
// but each one associates the sum differently, which moves the last
// float bits. The oracle computes the sum by definition in double
// precision with Neumaier-compensated accumulation — several decimal
// digits more accurate than any fp32 engine — and records, per output
// cell, the *magnitude* Σ|term| and the term count. Those two numbers
// feed a first-principles tolerance model (see ToleranceModel): an
// fp32 engine that merely reassociated the sum lands within the bound;
// an engine that dropped, duplicated, or misrouted a term does not.

#include <vector>

#include "tensor/coo.hpp"
#include "tensor/dense_matrix.hpp"
#include "tensor/mttkrp_ref.hpp"

namespace scalfrag::testing {

/// High-precision MTTKRP output plus per-cell conditioning data.
struct OracleResult {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<double> sum;   // compensated signed sum per cell
  std::vector<double> mag;   // Σ|term| per cell (cancellation measure)
  std::vector<nnz_t> terms;  // contributions per cell

  double value(index_t i, index_t f) const {
    return sum[static_cast<std::size_t>(i) * cols + f];
  }
  double magnitude(index_t i, index_t f) const {
    return mag[static_cast<std::size_t>(i) * cols + f];
  }
  nnz_t term_count(index_t i, index_t f) const {
    return terms[static_cast<std::size_t>(i) * cols + f];
  }
};

/// Compute the mode-`mode` MTTKRP oracle. Accepts any entry order and
/// duplicate coordinates (duplicates simply contribute extra terms).
OracleResult mttkrp_oracle(const CooTensor& t, const FactorList& factors,
                           order_t mode);

/// Per-cell error bound for an fp32 engine versus the oracle.
///
/// A cell is the sum of n terms, each a product of (order−1) fp32
/// factor entries and one fp32 value. First-order rounding analysis:
/// forming one term costs ≤ order·ε_32 relative error, and any
/// summation order (serial, tree, privatized partials) costs
/// ≤ (n−1)·ε_32 · Σ|term|. We allow
///
///   tol(cell) = abs_floor + slack · ε_32 · (order + n) · mag(cell)
///
/// `slack` absorbs second-order effects, FMA contraction differences,
/// and the final fp32 store. Cells no engine touched (n = 0) get only
/// abs_floor, so a misrouted write to an untouched row is always
/// caught.
struct ToleranceModel {
  double abs_floor = 1e-20;
  double slack = 8.0;

  double cell_tol(const OracleResult& o, index_t i, index_t f,
                  order_t order) const;
};

/// First out-of-tolerance cell (row-major scan), plus the worst
/// relative exceedance seen anywhere — `diverged` is false when every
/// cell is within its bound.
struct OracleDiff {
  bool diverged = false;
  index_t row = 0;
  index_t col = 0;
  double got = 0.0;   // engine value at the first divergent cell
  double want = 0.0;  // oracle value there
  double tol = 0.0;   // allowed deviation there
  double worst_excess = 0.0;  // max over cells of |got−want| / tol
};

OracleDiff compare_to_oracle(const OracleResult& oracle,
                             const DenseMatrix& got, order_t order,
                             const ToleranceModel& model = {});

}  // namespace scalfrag::testing
