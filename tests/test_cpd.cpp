// CPD-ALS tests: recovery of planted low-rank structure, fit
// monotonicity, backend equivalence, prediction.

#include <gtest/gtest.h>

#include "scalfrag/cpd.hpp"
#include "tensor/generator.hpp"
#include "tensor/linalg.hpp"

namespace scalfrag {
namespace {

/// Build a sparse tensor that is *exactly* rank `r` as a sparse object:
/// a sum of r rank-one blocks with disjoint index supports (factor
/// columns are dense only inside their block). Unlike a sparse sample
/// of a dense low-rank tensor — which is NOT low-rank because the
/// implicit zeros break the structure — this is a tensor CPD-ALS at
/// rank ≥ r can fit essentially perfectly.
CooTensor planted_low_rank(std::vector<index_t> dims, index_t r,
                           index_t block_len, std::uint64_t seed) {
  Rng rng(seed);
  const order_t order = static_cast<order_t>(dims.size());
  for (index_t d : dims) {
    SF_CHECK(d >= r * block_len, "dims too small for disjoint blocks");
  }
  // Per-block, per-mode vectors over [f*block_len, (f+1)*block_len).
  std::vector<std::vector<std::vector<double>>> vecs(r);
  for (index_t f = 0; f < r; ++f) {
    vecs[f].resize(order);
    for (order_t m = 0; m < order; ++m) {
      vecs[f][m].resize(block_len);
      for (auto& v : vecs[f][m]) v = 0.25 + rng.next_double();
    }
  }
  CooTensor t(dims);
  std::vector<index_t> coord(order);
  std::vector<index_t> local(order);
  for (index_t f = 0; f < r; ++f) {
    // Enumerate the dense block via mixed-radix counting.
    std::fill(local.begin(), local.end(), 0);
    for (;;) {
      double v = 1.0;
      for (order_t m = 0; m < order; ++m) {
        coord[m] = f * block_len + local[m];
        v *= vecs[f][m][local[m]];
      }
      t.push(std::span<const index_t>(coord.data(), order),
             static_cast<value_t>(v));
      order_t m = 0;
      while (m < order && ++local[m] == block_len) {
        local[m] = 0;
        ++m;
      }
      if (m == order) break;
    }
  }
  t.sort_by_mode(0);
  return t;
}

TEST(Cpd, RecoversPlantedRank2Structure) {
  const CooTensor t = planted_low_rank({30, 25, 20}, 2, 8, 101);
  const auto cfg =
      ExecConfig{}.backend("coo_host").rank(4).max_iters(30).tol(1e-7);
  const CpdResult res = cpd_als(t, cfg);
  EXPECT_GT(res.final_fit, 0.95);
}

TEST(Cpd, FitHistoryIsMostlyIncreasing) {
  const CooTensor t = planted_low_rank({24, 24, 24}, 3, 8, 102);
  const auto cfg = ExecConfig{}.backend("coo_host").rank(4).max_iters(15).tol(
      0.0);  // tol 0 disables the early stop: run all iterations
  const CpdResult res = cpd_als(t, cfg);
  ASSERT_GE(res.fit_history.size(), 5u);
  // ALS is monotone in exact arithmetic; allow tiny float wiggle.
  for (std::size_t i = 1; i < res.fit_history.size(); ++i) {
    EXPECT_GT(res.fit_history[i], res.fit_history[i - 1] - 1e-3);
  }
}

TEST(Cpd, ToleranceStopsEarly) {
  const CooTensor t = planted_low_rank({20, 20, 20}, 1, 8, 103);
  const auto cfg =
      ExecConfig{}.backend("coo_host").rank(2).max_iters(50).tol(1e-3);
  const CpdResult res = cpd_als(t, cfg);
  EXPECT_LT(res.iterations, 50);
}

TEST(Cpd, FactorsAreColumnNormalized) {
  const CooTensor t = planted_low_rank({16, 16, 16}, 2, 8, 104);
  const auto cfg = ExecConfig{}.backend("coo_host").rank(3).max_iters(5);
  const CpdResult res = cpd_als(t, cfg);
  for (const auto& f : res.factors) {
    const auto norms = linalg::column_norms(f);
    for (double n : norms) EXPECT_NEAR(n, 1.0, 0.05);
  }
  for (double l : res.lambda) EXPECT_GT(l, 0.0);
}

TEST(Cpd, PredictReconstructsKnownEntries) {
  const CooTensor t = planted_low_rank({30, 25, 20}, 2, 8, 105);
  const auto cfg =
      ExecConfig{}.backend("coo_host").rank(4).max_iters(30).tol(1e-7);
  const CpdResult res = cpd_als(t, cfg);
  double err = 0.0, norm = 0.0;
  for (nnz_t e = 0; e < t.nnz(); e += 97) {
    const index_t coord[3] = {t.index(0, e), t.index(1, e), t.index(2, e)};
    const double p = cpd_predict(res, coord);
    err += (p - t.value(e)) * (p - t.value(e));
    norm += static_cast<double>(t.value(e)) * t.value(e);
  }
  EXPECT_LT(std::sqrt(err / norm), 0.25);
}

TEST(Cpd, BackendsAgreeOnFit) {
  const CooTensor t = planted_low_rank({20, 18, 16}, 2, 8, 106);
  const auto base = ExecConfig{}.rank(3).max_iters(8).tol(0.0);
  const CpdResult ref = cpd_als(t, ExecConfig{base}.backend("coo_host"));

  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
  const CpdResult parti =
      cpd_als(t, ExecConfig{base}.backend("parti"), &dev);
  const CpdResult sf = cpd_als(t, ExecConfig{base}.backend("coo"), &dev);

  EXPECT_NEAR(ref.final_fit, parti.final_fit, 5e-3);
  EXPECT_NEAR(ref.final_fit, sf.final_fit, 5e-3);
  // Accelerated backends report simulated MTTKRP time.
  EXPECT_GT(parti.mttkrp_sim_ns, 0u);
  EXPECT_GT(sf.mttkrp_sim_ns, 0u);
  EXPECT_EQ(parti.mttkrp_calls, 8 * 3);
  EXPECT_LT(sf.mttkrp_sim_ns, parti.mttkrp_sim_ns);
}

TEST(Cpd, AcceleratedBackendRequiresDevice) {
  const CooTensor t = planted_low_rank({8, 8, 8}, 1, 4, 107);
  EXPECT_THROW(cpd_als(t, ExecConfig{}.backend("parti"), nullptr), Error);
}

TEST(Cpd, InputValidation) {
  CooTensor empty({4, 4});
  EXPECT_THROW(cpd_als(empty, ExecConfig{}.backend("coo_host")), Error);
  const CooTensor t = planted_low_rank({8, 8, 8}, 1, 4, 108);
  EXPECT_THROW(cpd_als(t, ExecConfig{}.backend("coo_host").rank(0)), Error);
  EXPECT_THROW(cpd_als(t, ExecConfig{}.backend("coo_host").max_iters(-1)),
               Error);
}

TEST(Cpd, PredictValidatesCoordinates) {
  const CooTensor t = planted_low_rank({8, 8, 8}, 1, 4, 109);
  const CpdResult res =
      cpd_als(t, ExecConfig{}.backend("coo_host").rank(2).max_iters(2));
  const index_t bad[3] = {100, 0, 0};
  EXPECT_THROW(cpd_predict(res, bad), Error);
  const index_t wrong_arity[2] = {0, 0};
  EXPECT_THROW(cpd_predict(res, wrong_arity), Error);
}

TEST(Cpd, NonnegativeProjectionKeepsFactorsNonnegative) {
  const CooTensor t = planted_low_rank({16, 16, 16}, 2, 8, 111);
  const CpdResult res = cpd_als(
      t, ExecConfig{}.backend("coo_host").rank(3).max_iters(15).nonneg());
  for (const auto& f : res.factors) {
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_GE(f.data()[i], 0.0f);
    }
  }
  // Planted data is non-negative, so the constrained fit stays strong.
  EXPECT_GT(res.final_fit, 0.9);
}

TEST(Cpd, NonnegativeFitNoBetterThanUnconstrained) {
  const CooTensor t = planted_low_rank({20, 20, 20}, 2, 8, 112);
  const auto free_cfg =
      ExecConfig{}.backend("coo_host").rank(3).max_iters(12).tol(0.0);
  const double free_fit = cpd_als(t, free_cfg).final_fit;
  const double nn_fit = cpd_als(t, ExecConfig{free_cfg}.nonneg()).final_fit;
  EXPECT_LE(nn_fit, free_fit + 1e-3);
  EXPECT_GT(nn_fit, 0.5);
}

TEST(Cpd, WorksOn4dTensors) {
  const CooTensor t = planted_low_rank({12, 10, 8, 6}, 2, 3, 110);
  const CpdResult res = cpd_als(
      t, ExecConfig{}.backend("coo_host").rank(3).max_iters(20).tol(1e-6));
  EXPECT_GT(res.final_fit, 0.9);
  EXPECT_EQ(res.factors.size(), 4u);
}

}  // namespace
}  // namespace scalfrag
