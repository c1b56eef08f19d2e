// ML subsystem tests: dataset mechanics, each regressor's learning
// ability on synthetic functions, serialization, metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "ml/adaboost.hpp"
#include "ml/bagging.hpp"
#include "ml/dtree.hpp"
#include "ml/knn.hpp"
#include "ml/metrics.hpp"
#include "ml/serialize.hpp"
#include "ml/svr.hpp"

namespace scalfrag::ml {
namespace {

/// y = step function of x0 plus mild noise — trees nail this.
Dataset step_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(2);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(0.0, 1.0);
    const double x1 = rng.uniform(0.0, 1.0);
    const double y = (x0 < 0.5 ? 1.0 : 5.0) + 0.01 * rng.normal();
    const double row[2] = {x0, x1};
    d.add(row, y);
  }
  return d;
}

/// Smooth nonlinear target.
Dataset smooth_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    const double b = rng.uniform(-2.0, 2.0);
    const double c = rng.uniform(-2.0, 2.0);
    const double y = std::sin(a) + b * b - 0.5 * c;
    const double row[3] = {a, b, c};
    d.add(row, y);
  }
  return d;
}

double mean_model_rmse(const Dataset& test) {
  double mean = 0.0;
  for (double t : test.targets()) mean += t;
  mean /= static_cast<double>(test.size());
  std::vector<double> pred(test.size(), mean);
  return rmse(test.targets(), pred);
}

TEST(DatasetTest, AddAndRowAccess) {
  Dataset d(2);
  const double r1[2] = {1.0, 2.0};
  d.add(r1, 10.0);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.dim(), 2u);
  EXPECT_DOUBLE_EQ(d.row(0)[1], 2.0);
  EXPECT_DOUBLE_EQ(d.target(0), 10.0);
  const double bad[3] = {1, 2, 3};
  EXPECT_THROW(d.add(bad, 0.0), Error);
}

TEST(DatasetTest, SplitPartitionsRows) {
  const Dataset d = step_data(100, 1);
  auto [train, test] = d.train_test_split(0.25, 42);
  EXPECT_EQ(train.size(), 75u);
  EXPECT_EQ(test.size(), 25u);
  EXPECT_EQ(train.dim(), d.dim());
}

TEST(DatasetTest, ColumnStatsStandardize) {
  Dataset d(1);
  for (double v : {2.0, 4.0, 6.0}) {
    d.add(std::span<const double>(&v, 1), 0.0);
  }
  std::vector<double> mean, sd;
  d.column_stats(mean, sd);
  EXPECT_DOUBLE_EQ(mean[0], 4.0);
  EXPECT_NEAR(sd[0], std::sqrt(8.0 / 3.0), 1e-12);
}

TEST(DecisionTree, LearnsStepFunctionExactly) {
  const Dataset train = step_data(400, 2);
  DecisionTreeRegressor tree;
  tree.fit(train);
  const double lo[2] = {0.2, 0.5};
  const double hi[2] = {0.9, 0.5};
  EXPECT_NEAR(tree.predict(lo), 1.0, 0.1);
  EXPECT_NEAR(tree.predict(hi), 5.0, 0.1);
  EXPECT_TRUE(tree.trained());
  EXPECT_GT(tree.node_count(), 1u);
}

TEST(DecisionTree, RespectsMaxDepth) {
  DTreeConfig cfg;
  cfg.max_depth = 1;
  DecisionTreeRegressor tree(cfg);
  tree.fit(smooth_data(200, 3));
  EXPECT_LE(tree.depth(), 1);
  EXPECT_LE(tree.node_count(), 3u);
}

TEST(DecisionTree, BeatsMeanModelOnSmoothData) {
  const Dataset d = smooth_data(600, 4);
  auto [train, test] = d.train_test_split(0.3, 5);
  DecisionTreeRegressor tree;
  tree.fit(train);
  const double tree_rmse = rmse(test.targets(), tree.predict_all(test));
  EXPECT_LT(tree_rmse, 0.5 * mean_model_rmse(test));
}

TEST(DecisionTree, WeightedFitFollowsHeavySamples) {
  // Two clusters; put all the weight on the second.
  Dataset d(1);
  for (int i = 0; i < 10; ++i) {
    const double x = 0.1;
    d.add(std::span<const double>(&x, 1), 0.0);
  }
  const double x2 = 0.9;
  d.add(std::span<const double>(&x2, 1), 100.0);
  std::vector<double> w(11, 1e-9);
  w[10] = 1.0;
  DTreeConfig cfg;
  cfg.max_depth = 0;  // single leaf → weighted mean
  DecisionTreeRegressor tree(cfg);
  tree.fit_weighted(d, w);
  const double q = 0.5;
  EXPECT_NEAR(tree.predict(std::span<const double>(&q, 1)), 100.0, 0.1);
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTreeRegressor tree;
  const double x[1] = {0.0};
  EXPECT_THROW(tree.predict(x), Error);
}

TEST(DecisionTree, SaveLoadRoundTripPreservesPredictions) {
  const Dataset train = smooth_data(300, 6);
  DecisionTreeRegressor tree;
  tree.fit(train);
  std::stringstream ss;
  tree.save(ss);
  const DecisionTreeRegressor loaded = DecisionTreeRegressor::load(ss);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(tree.predict(train.row(i)), loaded.predict(train.row(i)));
  }
}

TEST(Serialize, FileRoundTrip) {
  const Dataset train = step_data(100, 7);
  DecisionTreeRegressor tree;
  tree.fit(train);
  const std::string path = ::testing::TempDir() + "scalfrag_tree.txt";
  save_tree_file(path, tree);
  const auto loaded = load_tree_file(path);
  EXPECT_DOUBLE_EQ(tree.predict(train.row(0)), loaded.predict(train.row(0)));
  std::remove(path.c_str());
  EXPECT_THROW(load_tree_file("/nonexistent/t.txt"), Error);
}

TEST(Bagging, BeatsMeanModel) {
  const Dataset d = smooth_data(600, 8);
  auto [train, test] = d.train_test_split(0.3, 9);
  BaggingRegressor bag;
  bag.fit(train);
  EXPECT_EQ(bag.size(), 24u);
  const double e = rmse(test.targets(), bag.predict_all(test));
  EXPECT_LT(e, 0.5 * mean_model_rmse(test));
}

TEST(AdaBoost, BeatsMeanModel) {
  const Dataset d = smooth_data(600, 10);
  auto [train, test] = d.train_test_split(0.3, 11);
  AdaBoostR2Regressor ada;
  ada.fit(train);
  EXPECT_GE(ada.size(), 1u);
  const double e = rmse(test.targets(), ada.predict_all(test));
  EXPECT_LT(e, 0.6 * mean_model_rmse(test));
}

TEST(LinearSvr, RecoversLinearFunction) {
  Rng rng(12);
  Dataset d(2);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    const double row[2] = {a, b};
    d.add(row, 3.0 * a - 2.0 * b + 1.0);
  }
  LinearSvrRegressor svr;
  svr.fit(d);
  const double x[2] = {0.5, -0.5};
  EXPECT_NEAR(svr.predict(x), 3.5, 0.3);
}

TEST(Knn, InterpolatesLocally) {
  Dataset d(1);
  for (double x = 0.0; x < 10.0; x += 0.5) {
    d.add(std::span<const double>(&x, 1), 2.0 * x);
  }
  KnnRegressor knn(KnnConfig{.k = 3});
  knn.fit(d);
  const double q = 5.0;
  EXPECT_NEAR(knn.predict(std::span<const double>(&q, 1)), 10.0, 1.5);
}

TEST(Metrics, KnownValues) {
  const std::vector<double> t{1.0, 2.0, 4.0};
  const std::vector<double> p{1.0, 1.0, 5.0};
  EXPECT_NEAR(mae(t, p), (0.0 + 1.0 + 1.0) / 3.0, 1e-12);
  EXPECT_NEAR(rmse(t, p), std::sqrt(2.0 / 3.0), 1e-12);
  EXPECT_NEAR(mape(t, p), 100.0 * (0.0 + 0.5 + 0.25) / 3.0, 1e-9);
  EXPECT_NEAR(r2(t, t), 1.0, 1e-12);
  EXPECT_LT(r2(t, p), 1.0);
  EXPECT_THROW(mape({}, {}), Error);
  EXPECT_THROW(mae({1.0}, {1.0, 2.0}), Error);
}

// All model kinds must at least learn the step function decently —
// a parameterized smoke property over the whole model zoo.
/// y = 4·x0 plus mild noise; x1 and x2 carry no signal.
Dataset linearish_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0, 1), b = rng.uniform(0, 1),
                 c = rng.uniform(0, 1);
    const double row[3] = {a, b, c};
    d.add(row, 4.0 * a + 0.02 * rng.normal());
  }
  return d;
}

TEST(FeatureImportance, ConcentratesOnInformativeFeature) {
  const Dataset d = linearish_data(500, 5);
  DecisionTreeRegressor tree;
  tree.fit(d);
  const auto& imp = tree.feature_importance();
  ASSERT_EQ(imp.size(), 3u);
  double sum = 0.0;
  for (double g : imp) {
    EXPECT_GE(g, 0.0);
    sum += g;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(imp[0], 0.9);  // the only signal-bearing feature
}

TEST(FeatureImportance, SingleLeafIsAllZero) {
  Dataset d(2);
  const double r[2] = {1.0, 2.0};
  d.add(r, 5.0);
  d.add(r, 5.0);
  DecisionTreeRegressor tree;
  tree.fit(d);
  for (double g : tree.feature_importance()) EXPECT_DOUBLE_EQ(g, 0.0);
}

class AnyModelLearns : public ::testing::TestWithParam<int> {};

TEST_P(AnyModelLearns, StepFunctionRmseBelowMeanModel) {
  const Dataset d = step_data(500, 13);
  auto [train, test] = d.train_test_split(0.3, 14);
  std::unique_ptr<Regressor> model;
  switch (GetParam()) {
    case 0:
      model = std::make_unique<DecisionTreeRegressor>();
      break;
    case 1:
      model = std::make_unique<BaggingRegressor>();
      break;
    case 2:
      model = std::make_unique<AdaBoostR2Regressor>();
      break;
    case 3:
      model = std::make_unique<LinearSvrRegressor>();
      break;
    default:
      model = std::make_unique<KnnRegressor>();
  }
  model->fit(train);
  const double e = rmse(test.targets(), model->predict_all(test));
  EXPECT_LT(e, mean_model_rmse(test)) << model->name();
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, AnyModelLearns,
                         ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace scalfrag::ml
