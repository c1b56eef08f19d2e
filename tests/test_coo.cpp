// COO tensor unit tests: construction, mutation, sorting, coalescing,
// slicing, extraction.

#include <gtest/gtest.h>

#include <array>

#include "tensor/coo.hpp"
#include "tensor/generator.hpp"

namespace scalfrag {
namespace {

CooTensor small3d() {
  // 3×4×2 tensor with 5 entries, deliberately unsorted.
  CooTensor t({3, 4, 2});
  t.push({2, 1, 0}, 5.0f);
  t.push({0, 0, 0}, 1.0f);
  t.push({1, 3, 1}, 4.0f);
  t.push({0, 2, 1}, 2.0f);
  t.push({1, 0, 0}, 3.0f);
  return t;
}

TEST(CooTensor, ConstructionValidatesDims) {
  EXPECT_THROW(CooTensor(std::vector<index_t>{}), Error);
  EXPECT_THROW(CooTensor({3, 0, 2}), Error);
  CooTensor t({3, 4});
  EXPECT_EQ(t.order(), 2);
  EXPECT_EQ(t.nnz(), 0u);
  EXPECT_TRUE(t.empty());
}

TEST(CooTensor, PushValidatesCoordinates) {
  CooTensor t({2, 2});
  EXPECT_THROW(t.push({2, 0}, 1.0f), Error);  // out of range
  EXPECT_THROW(t.push({0}, 1.0f), Error);     // wrong arity
  t.push({1, 1}, 1.0f);
  EXPECT_EQ(t.nnz(), 1u);
  EXPECT_EQ(t.index(0, 0), 1u);
  EXPECT_FLOAT_EQ(t.value(0), 1.0f);
}

TEST(CooTensor, SortByMode0IsLexicographic) {
  CooTensor t = small3d();
  EXPECT_FALSE(t.is_sorted_by_mode(0));
  t.sort_by_mode(0);
  EXPECT_TRUE(t.is_sorted_by_mode(0));
  // Expected order: (0,0,0) (0,2,1) (1,0,0) (1,3,1) (2,1,0)
  EXPECT_FLOAT_EQ(t.value(0), 1.0f);
  EXPECT_FLOAT_EQ(t.value(1), 2.0f);
  EXPECT_FLOAT_EQ(t.value(2), 3.0f);
  EXPECT_FLOAT_EQ(t.value(3), 4.0f);
  EXPECT_FLOAT_EQ(t.value(4), 5.0f);
}

TEST(CooTensor, SortByOtherModePutsThatModeFirst) {
  CooTensor t = small3d();
  t.sort_by_mode(2);
  EXPECT_TRUE(t.is_sorted_by_mode(2));
  // Full key order: mode 2 first, ties broken by mode 0, then mode 1.
  for (nnz_t e = 1; e < t.nnz(); ++e) {
    const auto key = [&](nnz_t i) {
      return std::tuple(t.index(2, i), t.index(0, i), t.index(1, i));
    };
    EXPECT_LE(key(e - 1), key(e));
  }
}

TEST(CooTensor, SortPreservesEntryAssociations) {
  CooTensor t = small3d();
  t.sort_by_mode(1);
  // The entry with value 4 must still be at (1,3,1).
  bool found = false;
  for (nnz_t e = 0; e < t.nnz(); ++e) {
    if (t.value(e) == 4.0f) {
      EXPECT_EQ(t.index(0, e), 1u);
      EXPECT_EQ(t.index(1, e), 3u);
      EXPECT_EQ(t.index(2, e), 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SortByKeyOrder, ValidatesPermutation) {
  CooTensor t({4, 4});
  t.push({0, 0}, 1.0f);
  const std::array<order_t, 2> dup = {0, 0};
  EXPECT_THROW(t.sort_by_key_order(dup), Error);
  const std::array<order_t, 1> incomplete = {0};
  EXPECT_THROW(t.sort_by_key_order(incomplete), Error);
}

TEST(CooTensor, CoalesceSumsDuplicates) {
  CooTensor t({2, 2});
  t.push({0, 1}, 1.0f);
  t.push({0, 1}, 2.5f);
  t.push({1, 0}, 3.0f);
  t.push({0, 1}, 0.5f);
  t.sort_by_mode(0);
  const nnz_t removed = t.coalesce_duplicates();
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(t.nnz(), 2u);
  EXPECT_FLOAT_EQ(t.value(0), 4.0f);  // (0,1) summed
  EXPECT_FLOAT_EQ(t.value(1), 3.0f);
}

TEST(CooTensor, CoalesceRequiresSorted) {
  CooTensor t = small3d();
  EXPECT_THROW(t.coalesce_duplicates(), Error);
}

TEST(CooTensor, CoalesceNoDuplicatesIsIdentity) {
  CooTensor t = small3d();
  t.sort_by_mode(0);
  EXPECT_EQ(t.coalesce_duplicates(), 0u);
  EXPECT_EQ(t.nnz(), 5u);
}

TEST(CooTensor, SlicePtrMatchesSliceBoundaries) {
  CooTensor t = small3d();
  t.sort_by_mode(0);
  const auto ptr = t.slice_ptr(0);
  ASSERT_EQ(ptr.size(), 4u);  // dim 3 + 1
  EXPECT_EQ(ptr[0], 0u);
  EXPECT_EQ(ptr[1], 2u);  // slice 0 holds 2 entries
  EXPECT_EQ(ptr[2], 4u);  // slice 1 holds 2 entries
  EXPECT_EQ(ptr[3], 5u);  // slice 2 holds 1 entry
}

TEST(CooTensor, SlicePtrRequiresSorted) {
  CooTensor t = small3d();
  EXPECT_THROW(t.slice_ptr(0), Error);
}

TEST(CooTensor, ExtractCopiesRange) {
  CooTensor t = small3d();
  t.sort_by_mode(0);
  const CooTensor seg = t.extract(1, 4);
  EXPECT_EQ(seg.nnz(), 3u);
  EXPECT_EQ(seg.dims(), t.dims());
  EXPECT_FLOAT_EQ(seg.value(0), 2.0f);
  EXPECT_FLOAT_EQ(seg.value(2), 4.0f);
  EXPECT_TRUE(seg.is_sorted_by_mode(0));
}

TEST(CooTensor, ExtractValidatesRange) {
  CooTensor t = small3d();
  EXPECT_THROW(t.extract(3, 2), Error);
  EXPECT_THROW(t.extract(0, 6), Error);
  EXPECT_EQ(t.extract(2, 2).nnz(), 0u);
}

TEST(CooTensor, BytesAccountsIndicesAndValues) {
  CooTensor t = small3d();
  EXPECT_EQ(t.bytes(), 5 * (3 * sizeof(index_t) + sizeof(value_t)));
}

TEST(CooTensor, DensityIsNnzOverCells) {
  CooTensor t = small3d();
  EXPECT_DOUBLE_EQ(t.density(), 5.0 / (3 * 4 * 2));
}

TEST(CooTensor, ValidatePassesOnGoodTensor) {
  CooTensor t = small3d();
  EXPECT_NO_THROW(t.validate());
}

TEST(CooTensor, EmptyTensorIsSortedAndCoalescible) {
  CooTensor t({4, 4});
  EXPECT_TRUE(t.is_sorted_by_mode(0));
  EXPECT_TRUE(t.is_sorted_by_mode(1));
  EXPECT_EQ(t.coalesce_duplicates(), 0u);
}

// Property-style sweep: sorting by any mode of any order yields a
// sorted tensor with identical multiset of (coords, value).
class CooSortProperty : public ::testing::TestWithParam<
                            std::tuple<int /*order*/, int /*mode*/>> {};

TEST_P(CooSortProperty, SortIsPermutation) {
  const auto [order, mode] = GetParam();
  if (mode >= order) GTEST_SKIP();
  GeneratorConfig g;
  for (int m = 0; m < order; ++m) {
    g.dims.push_back(16 + 8 * m);
    g.skew.push_back(1.0 + 0.5 * m);
  }
  g.nnz = 500;
  g.seed = 99 + order * 10 + mode;
  CooTensor t = generate_coo(g);

  double sum_before = 0.0;
  for (value_t v : t.values()) sum_before += v;
  const nnz_t nnz_before = t.nnz();

  t.sort_by_mode(static_cast<order_t>(mode));
  EXPECT_TRUE(t.is_sorted_by_mode(static_cast<order_t>(mode)));
  EXPECT_EQ(t.nnz(), nnz_before);
  double sum_after = 0.0;
  for (value_t v : t.values()) sum_after += v;
  EXPECT_DOUBLE_EQ(sum_before, sum_after);
  EXPECT_NO_THROW(t.validate());
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndModes, CooSortProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0, 1, 2, 3, 4)));

}  // namespace
}  // namespace scalfrag
