// Edge-case coverage for the segmenter and the pipeline executor:
// empty tensors, single-entry tensors, and budgets/segment counts that
// are pathological relative to the slice structure.

#include <gtest/gtest.h>

#include "scalfrag/pipeline.hpp"
#include "scalfrag/segmenter.hpp"
#include "testing/corpus.hpp"
#include "testing/diff_check.hpp"
#include "tensor/mttkrp_ref.hpp"

namespace scalfrag {
namespace {

using testing::conformance_factors;
using testing::make_archetype;

DenseMatrix run_pipeline(const CooTensor& t, const FactorList& f, order_t mode,
                         int segments, int streams) {
  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
  ExecConfig opt;
  opt.num_segments = segments;
  opt.num_streams = streams;
  return run_pipeline(dev, t, f, mode, opt).output;
}

TEST(SegmentEdges, EmptyTensorYieldsOneEmptySegment) {
  const CooTensor t = make_archetype("empty", 1);
  const SegmentPlan plan = make_segments(t, 0, 4, true, true);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.segments[0].nnz(), 0u);
  EXPECT_TRUE(plan.segments[0].slice_aligned);
  ASSERT_EQ(plan.features.size(), 1u);
  EXPECT_EQ(plan.features[0].nnz, 0u);
  EXPECT_EQ(plan.max_nnz(), 0u);
}

TEST(SegmentEdges, EmptyTensorThroughPipelineIsAllZero) {
  const CooTensor t = make_archetype("empty", 1);
  const FactorList f = conformance_factors(t, 6, 3);
  for (int segments : {0, 1, 5}) {
    const DenseMatrix out = run_pipeline(t, f, 1, segments, 2);
    ASSERT_EQ(out.rows(), t.dim(1));
    for (index_t i = 0; i < out.rows(); ++i) {
      for (index_t c = 0; c < out.cols(); ++c) EXPECT_EQ(out(i, c), 0.0f);
    }
  }
}

TEST(SegmentEdges, SingleNnzSurvivesExcessSegments) {
  CooTensor t = make_archetype("single_nnz", 9);
  t.sort_by_mode(0);
  const SegmentPlan plan = make_segments(t, 0, 16);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.segments[0].nnz(), 1u);

  const FactorList f = conformance_factors(t, 4, 5);
  const DenseMatrix want = mttkrp_coo_ref(t, f, 0);
  const DenseMatrix got = run_pipeline(t, f, 0, 16, 4);
  EXPECT_LT(DenseMatrix::max_abs_diff(got, want), 1e-6);
}

TEST(SegmentEdges, MoreSegmentsThanEntriesCoversExactly) {
  CooTensor t = make_archetype("uniform", 21, 0);
  t.sort_by_mode(0);
  const SegmentPlan plan = make_segments(t, 0, 1000);
  nnz_t covered = 0;
  nnz_t prev_end = 0;
  for (const Segment& s : plan.segments) {
    EXPECT_EQ(s.begin, prev_end) << "segments must tile [0, nnz)";
    EXPECT_GT(s.nnz(), 0u);
    covered += s.nnz();
    prev_end = s.end;
  }
  EXPECT_EQ(covered, t.nnz());
  EXPECT_LE(plan.size(), static_cast<std::size_t>(t.nnz()));
}

TEST(SegmentEdges, BudgetSmallerThanOneSliceForcesSliceSplit) {
  // One slice holds ~85% of the entries; a per-segment target far below
  // that slice's size must split it and flag the cut non-aligned.
  CooTensor t = make_archetype("mega_slice", 17, 1);
  t.sort_by_mode(0);
  const TensorFeatures feat = TensorFeatures::extract(t, 0);
  const int segments = static_cast<int>(
      t.nnz() / std::max<nnz_t>(1, feat.max_nnz_per_slice / 4));
  ASSERT_GT(segments, 1);
  const SegmentPlan plan = make_segments(t, 0, segments, true);
  bool any_split = false;
  for (const Segment& s : plan.segments) any_split |= !s.slice_aligned;
  EXPECT_TRUE(any_split) << "mega slice was never split";

  // The split plan still computes the right answer end to end.
  const FactorList f = conformance_factors(t, 8, 23);
  const DenseMatrix want = mttkrp_coo_ref(t, f, 0);
  const DenseMatrix got = run_pipeline(t, f, 0, segments, 3);
  EXPECT_LT(DenseMatrix::max_abs_diff(got, want), 2e-3);
}

TEST(SegmentEdges, BudgetPlannerDegeneracies) {
  CooTensor t = make_archetype("uniform", 33, 0);
  t.sort_by_mode(0);
  const index_t rank = 8;
  const std::size_t entry = t.order() * sizeof(index_t) + sizeof(value_t);
  const std::size_t resident = pipeline_resident_bytes(t, 0, rank);
  // Leftover room for just two entries demands one segment per entry,
  // clamped against the int cast instead of wrapping through it.
  const int tiny = segments_for_budget(t, 0, rank, resident + 2 * entry + 1);
  EXPECT_GE(tiny, static_cast<int>(t.nnz() / 2));
  // A huge budget wants exactly one segment.
  EXPECT_EQ(segments_for_budget(t, 0, rank, std::size_t{1} << 40), 1);
  EXPECT_THROW(segments_for_budget(t, 0, rank, 0), Error);
  // Budgets the residents exhaust (or that leave room for fewer than
  // two staged entries) are rejected outright.
  EXPECT_THROW(segments_for_budget(t, 0, rank, resident), Error);
  EXPECT_THROW(segments_for_budget(t, 0, rank, resident + entry), Error);

  // The tiny-budget segment count still yields a valid plan + answer.
  const SegmentPlan plan = make_segments(t, 0, tiny);
  EXPECT_GE(plan.size(), 1u);
  const FactorList f = conformance_factors(t, 4, 2);
  const DenseMatrix want = mttkrp_coo_ref(t, f, 0);
  const DenseMatrix got = run_pipeline(t, f, 0, tiny, 2);
  EXPECT_LT(DenseMatrix::max_abs_diff(got, want), 2e-3);
}

TEST(SegmentEdges, SegmenterRejectsBadArguments) {
  CooTensor sorted = make_archetype("uniform", 3, 0);
  sorted.sort_by_mode(0);
  EXPECT_THROW(make_segments(sorted, 0, 0), Error);
  const CooTensor unsorted = make_archetype("unsorted", 3, 0);
  ASSERT_FALSE(unsorted.is_sorted_by_mode(0));
  EXPECT_THROW(make_segments(unsorted, 0, 2), Error);
}

}  // namespace
}  // namespace scalfrag
