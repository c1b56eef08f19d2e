// B-CSF tests: slice splitting, balance guarantees, owner mapping, and
// MTTKRP equivalence with the COO reference.

#include <gtest/gtest.h>

#include <string>

#include "tensor/bcsf.hpp"
#include "tensor/features.hpp"
#include "tensor/generator.hpp"
#include "tensor/mttkrp_ref.hpp"

namespace scalfrag {
namespace {

FactorList random_factors(const CooTensor& t, index_t rank,
                          std::uint64_t seed) {
  Rng rng(seed);
  FactorList f;
  for (order_t m = 0; m < t.order(); ++m) {
    DenseMatrix a(t.dim(m), rank);
    a.randomize(rng);
    f.push_back(std::move(a));
  }
  return f;
}

TEST(Bcsf, SplitsHeavySlicesOnly) {
  // Slice 0: 10 nnz; slice 2: 3 nnz. Cap 4 → slice 0 splits into 3.
  CooTensor t({4, 16});
  for (index_t j = 0; j < 10; ++j) t.push({0, j}, 1.0f);
  for (index_t j = 0; j < 3; ++j) t.push({2, j}, 1.0f);
  const BcsfTensor b = BcsfTensor::build(t, 0, 4);
  EXPECT_EQ(b.num_virtual_slices(), 4u);  // 3 + 1
  EXPECT_EQ(b.slices_split(), 1u);
  EXPECT_LE(b.max_virtual_slice_nnz(), 4u);
  EXPECT_EQ(b.owner(0), 0u);
  EXPECT_EQ(b.owner(1), 0u);
  EXPECT_EQ(b.owner(2), 0u);
  EXPECT_EQ(b.owner(3), 2u);
}

TEST(Bcsf, NoSplitWhenUnderThreshold) {
  CooTensor t = make_frostt_tensor("nips", 1.0 / 4096, 411);
  const auto feat = TensorFeatures::extract(t, 0);
  const BcsfTensor b = BcsfTensor::build(t, 0, feat.max_nnz_per_slice + 1);
  EXPECT_EQ(b.slices_split(), 0u);
  EXPECT_EQ(b.num_virtual_slices(), feat.num_slices);
}

TEST(Bcsf, BalanceGuaranteeOnSkewedTensor) {
  CooTensor t = make_frostt_tensor("nell-2", 1.0 / 2048, 412);
  const auto feat = TensorFeatures::extract(t, 0);
  ASSERT_GT(feat.max_nnz_per_slice, 256u) << "fixture not skewed enough";
  const BcsfTensor b = BcsfTensor::build(t, 0, 256);
  EXPECT_LE(b.max_virtual_slice_nnz(), 256u);
  EXPECT_GT(b.slices_split(), 0u);
  EXPECT_GT(b.num_virtual_slices(), feat.num_slices);
  EXPECT_EQ(b.nnz(), t.nnz());
}

TEST(Bcsf, EmptyTensor) {
  CooTensor t({4, 4});
  const BcsfTensor b = BcsfTensor::build(t, 0, 8);
  EXPECT_EQ(b.num_virtual_slices(), 0u);
  EXPECT_EQ(b.max_virtual_slice_nnz(), 0u);
}

TEST(Bcsf, Validation) {
  CooTensor t({4, 4});
  EXPECT_THROW(BcsfTensor::build(t, 5, 8), Error);
  EXPECT_THROW(BcsfTensor::build(t, 0, 0), Error);
}

// Property: B-CSF MTTKRP == reference for every profile × threshold.
class BcsfMttkrp
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(BcsfMttkrp, MatchesReference) {
  const auto [name, cap] = GetParam();
  const CooTensor t = make_frostt_tensor(name, 1.0 / 4096, 413);
  const auto f = random_factors(t, 8, 414);
  const auto expect = mttkrp_coo_ref(t, f, 0);
  const BcsfTensor b = BcsfTensor::build(t, 0, static_cast<nnz_t>(cap));
  DenseMatrix got(t.dim(0), 8);
  b.mttkrp(f, got);
  EXPECT_LT(DenseMatrix::max_abs_diff(expect, got), 2e-3);
  EXPECT_LE(b.max_virtual_slice_nnz(), static_cast<nnz_t>(cap));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BcsfMttkrp,
    ::testing::Combine(::testing::Values("nell-2", "uber", "enron"),
                       ::testing::Values(1, 64, 1 << 20)));

}  // namespace
}  // namespace scalfrag
