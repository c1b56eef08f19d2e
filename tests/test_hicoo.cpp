// HiCOO format tests: blocking structure, COO round trip, compression,
// and MTTKRP equivalence.

#include <gtest/gtest.h>

#include <string>

#include "tensor/generator.hpp"
#include "tensor/hicoo.hpp"

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

TEST(Hicoo, BlockStructureOnHandBuiltTensor) {
  // 8×8 matrix, block size 4 → 2×2 block space.
  CooTensor t({8, 8});
  t.push({0, 0}, 1.0f);   // block (0,0)
  t.push({1, 3}, 2.0f);   // block (0,0)
  t.push({0, 7}, 3.0f);   // block (0,1)
  t.push({5, 5}, 4.0f);   // block (1,1)
  const HicooTensor h = HicooTensor::build(t, 4);

  EXPECT_EQ(h.nnz(), 4u);
  EXPECT_EQ(h.num_blocks(), 3u);
  EXPECT_EQ(h.block_size(), 4u);
  // Block (0,0) holds 2 entries.
  EXPECT_EQ(h.bptr(0), 0u);
  EXPECT_EQ(h.bptr(1), 2u);
  EXPECT_EQ(h.block_base(0, 0), 0u);
  EXPECT_EQ(h.block_base(1, 1), 4u);  // second block's mode-1 base
  // Entry (5,5) decodes to offsets (1,1) in block (1,1).
  EXPECT_EQ(h.coordinate(0, 3), 5u);
  EXPECT_EQ(h.coordinate(1, 3), 5u);
}

TEST(Hicoo, RejectsBadBlockSizes) {
  CooTensor t({8, 8});
  EXPECT_THROW(HicooTensor::build(t, 3), Error);    // not pow2
  EXPECT_THROW(HicooTensor::build(t, 1), Error);    // too small
  EXPECT_THROW(HicooTensor::build(t, 512), Error);  // > byte offset
  EXPECT_NO_THROW(HicooTensor::build(t, 256));
}

TEST(Hicoo, CooRoundTripPreservesEntries) {
  const CooTensor t = make_frostt_tensor("nips", 1.0 / 2048, 201);
  const HicooTensor h = HicooTensor::build(t, 64);
  CooTensor back = h.to_coo();
  ASSERT_EQ(back.nnz(), t.nnz());
  back.sort_by_mode(0);
  CooTensor sorted = t;
  sorted.sort_by_mode(0);
  double sum_a = 0, sum_b = 0;
  for (nnz_t e = 0; e < t.nnz(); ++e) {
    for (order_t m = 0; m < t.order(); ++m) {
      EXPECT_EQ(back.index(m, e), sorted.index(m, e));
    }
    sum_a += back.value(e);
    sum_b += sorted.value(e);
  }
  EXPECT_NEAR(sum_a, sum_b, 1e-3);
}

TEST(Hicoo, CompressesClusteredTensor) {
  // Dense 32×32×8 cluster inside a huge index space: per-entry index
  // storage shrinks from 12 B (three index_t) to 3 B (three offsets).
  CooTensor t({1 << 20, 1 << 20, 1 << 10});
  for (index_t i = 0; i < 32; ++i) {
    for (index_t j = 0; j < 32; ++j) {
      for (index_t k = 0; k < 8; ++k) {
        t.push({i, j, k}, 1.0f);
      }
    }
  }
  const HicooTensor h = HicooTensor::build(t, 128);
  EXPECT_LT(h.bytes(), t.bytes() / 2);
  EXPECT_GT(h.avg_nnz_per_block(), 1000.0);
}

TEST(Hicoo, ScatteredTensorGainsLittle) {
  // One entry per block: block overhead ≈ COO indices, no win.
  CooTensor t({1 << 16, 1 << 16});
  for (index_t i = 0; i < 256; ++i) {
    t.push({i * 256, i * 256}, 1.0f);
  }
  const HicooTensor h = HicooTensor::build(t, 128);
  EXPECT_DOUBLE_EQ(h.avg_nnz_per_block(), 1.0);
  EXPECT_GT(h.bytes(), t.bytes());  // strictly worse — as documented
}

TEST(Hicoo, EmptyTensor) {
  CooTensor t({16, 16, 16});
  const HicooTensor h = HicooTensor::build(t);
  EXPECT_EQ(h.nnz(), 0u);
  EXPECT_EQ(h.num_blocks(), 0u);
  EXPECT_EQ(h.to_coo().nnz(), 0u);
}

TEST(Hicoo, MttkrpAccumulateFlag) {
  CooTensor t({4, 4});
  t.push({1, 1}, 2.0f);
  const HicooTensor h = HicooTensor::build(t, 4);
  auto f = random_factors(t, 4, 202);
  DenseMatrix out(4, 4, 1.0f);
  h.mttkrp(f, 0, out, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(out(0, 0), 1.0f);  // untouched row retained
  h.mttkrp(f, 0, out, /*accumulate=*/false);
  EXPECT_FLOAT_EQ(out(0, 0), 0.0f);  // zeroed first
}

// Property: HiCOO MTTKRP == COO reference across modes, block sizes,
// and tensor shapes.
class HicooMttkrp
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(HicooMttkrp, MatchesReference) {
  const auto [name, mode, block] = GetParam();
  const CooTensor t = make_frostt_tensor(name, 1.0 / 4096, 203);
  if (static_cast<order_t>(mode) >= t.order()) GTEST_SKIP();
  const auto f = random_factors(t, 8, 204);
  const auto expect = mttkrp_coo_ref(t, f, static_cast<order_t>(mode));
  const HicooTensor h = HicooTensor::build(t, static_cast<index_t>(block));
  DenseMatrix got(t.dim(static_cast<order_t>(mode)), 8);
  h.mttkrp(f, static_cast<order_t>(mode), got);
  EXPECT_LT(DenseMatrix::max_abs_diff(expect, got), 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HicooMttkrp,
    ::testing::Combine(::testing::Values("nips", "uber", "nell-2"),
                       ::testing::Values(0, 1, 2, 3),
                       ::testing::Values(16, 128)));

}  // namespace
}  // namespace scalfrag
