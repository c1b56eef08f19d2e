// F-COO format tests: flag construction, storage accounting, and the
// atomic-free segmented-reduction MTTKRP.

#include <gtest/gtest.h>

#include <string>

#include "tensor/fcoo.hpp"
#include "tensor/generator.hpp"

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

TEST(Fcoo, FlagsOnHandBuiltTensor) {
  // Mode-0 sorted entry rows: 0,0,1,3 → bf = 1,0,1,1; segments {0,1,3}.
  CooTensor t({4, 4});
  t.push({0, 0}, 1.0f);
  t.push({0, 2}, 2.0f);
  t.push({1, 1}, 3.0f);
  t.push({3, 0}, 4.0f);
  const FcooTensor f = FcooTensor::build(t, 0, /*partition_size=*/2);

  EXPECT_EQ(f.nnz(), 4u);
  EXPECT_EQ(f.num_segments(), 3u);
  EXPECT_TRUE(f.bit_flag(0));
  EXPECT_FALSE(f.bit_flag(1));
  EXPECT_TRUE(f.bit_flag(2));
  EXPECT_TRUE(f.bit_flag(3));
  EXPECT_EQ(f.out_row(0), 0u);
  EXPECT_EQ(f.out_row(1), 1u);
  EXPECT_EQ(f.out_row(2), 3u);
  // Partition 0 starts at e=0 (bf set → fresh segment → sf false);
  // partition 1 starts at e=2 (bf set → sf false).
  EXPECT_FALSE(f.start_flag(0));
  EXPECT_FALSE(f.start_flag(1));
}

TEST(Fcoo, StartFlagMarksContinuedSegments) {
  // Three entries of one row with partition size 2: partition 1 begins
  // mid-segment → sf set.
  CooTensor t({2, 8});
  t.push({0, 0}, 1.0f);
  t.push({0, 1}, 1.0f);
  t.push({0, 2}, 1.0f);
  const FcooTensor f = FcooTensor::build(t, 0, 2);
  EXPECT_FALSE(f.start_flag(0));
  EXPECT_TRUE(f.start_flag(1));
}

TEST(Fcoo, DoesNotStoreTargetModeIndices) {
  CooTensor t({4, 4, 4});
  t.push({1, 2, 3}, 1.0f);
  const FcooTensor f = FcooTensor::build(t, 1);
  EXPECT_EQ(f.index(0, 0), 1u);
  EXPECT_EQ(f.index(2, 0), 3u);
  EXPECT_THROW(f.index(1, 0), Error);  // the compressed mode
}

TEST(Fcoo, SavesIndexStorageOnLongSlices) {
  // Few slices, many nnz → the per-entry mode-0 index array (4 B/nnz)
  // collapses to bit flags + a handful of out_rows.
  GeneratorConfig g{
      .dims = {16, 512, 512}, .nnz = 20000, .skew = {}, .seed = 205};
  const CooTensor t = generate_coo(g);
  const FcooTensor f = FcooTensor::build(t, 0);
  EXPECT_LT(f.bytes(), t.bytes());
  // Savings ≈ one index array minus flag bits.
  const std::size_t expected =
      t.bytes() - t.nnz() * sizeof(index_t) + t.nnz() / 8 + 64;
  EXPECT_NEAR(static_cast<double>(f.bytes()),
              static_cast<double>(expected), 200.0);
}

TEST(Fcoo, BuildsFromUnsortedInput) {
  CooTensor t({4, 4});
  t.push({3, 0}, 4.0f);
  t.push({0, 0}, 1.0f);
  const FcooTensor f = FcooTensor::build(t, 0);
  EXPECT_EQ(f.out_row(0), 0u);
  EXPECT_EQ(f.out_row(1), 3u);
  // Original untouched.
  EXPECT_EQ(t.index(0, 0), 3u);
}

TEST(Fcoo, EmptyTensorMttkrpIsZero) {
  CooTensor t({4, 4});
  const FcooTensor f = FcooTensor::build(t, 0);
  FactorList factors;
  factors.emplace_back(4, 4);
  factors.emplace_back(4, 4);
  DenseMatrix out(4, 4, 7.0f);
  f.mttkrp(factors, out);
  EXPECT_FLOAT_EQ(out(0, 0), 0.0f);  // zeroed, nothing accumulated
}

TEST(Fcoo, RejectsBadArguments) {
  CooTensor t({4, 4});
  EXPECT_THROW(FcooTensor::build(t, 2), Error);  // mode out of range
  EXPECT_THROW(FcooTensor::build(t, 0, 0), Error);  // zero partition
}

// Property: F-COO MTTKRP == COO reference across tensors, modes and
// partition sizes (partition size must not affect results at all).
class FcooMttkrp
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(FcooMttkrp, MatchesReference) {
  const auto [name, mode, part] = GetParam();
  const CooTensor t = make_frostt_tensor(name, 1.0 / 4096, 206);
  if (static_cast<order_t>(mode) >= t.order()) GTEST_SKIP();
  const auto f = random_factors(t, 8, 207);
  const auto expect = mttkrp_coo_ref(t, f, static_cast<order_t>(mode));
  const FcooTensor fc = FcooTensor::build(t, static_cast<order_t>(mode),
                                          static_cast<nnz_t>(part));
  DenseMatrix got(t.dim(static_cast<order_t>(mode)), 8);
  fc.mttkrp(f, got);
  EXPECT_LT(DenseMatrix::max_abs_diff(expect, got), 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FcooMttkrp,
    ::testing::Combine(::testing::Values("uber", "enron", "vast"),
                       ::testing::Values(0, 2, 3),
                       ::testing::Values(1, 64, 4096)));

}  // namespace
}  // namespace scalfrag
