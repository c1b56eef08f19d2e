#include "scalfrag/plan.hpp"

#include "common/timer.hpp"

namespace scalfrag {

MttkrpPlan::MttkrpPlan(const CooTensor& x, index_t rank,
                       gpusim::SimDevice& dev, const LaunchSelector* selector,
                       ExecConfig config)
    : MttkrpPlan(ModeViews(x, config.metrics_sink), rank, dev, selector,
                 config) {}

MttkrpPlan::MttkrpPlan(ModeViews&& views, index_t rank,
                       gpusim::SimDevice& dev, const LaunchSelector* selector,
                       ExecConfig config)
    : dev_(&dev), rank_(rank), options_(std::move(config)),
      views_(std::move(views)) {
  SF_CHECK(views_.nnz() > 0, "cannot plan for an empty tensor");
  WallTimer timer;
  modes_.reserve(views_.order());
  for (order_t m = 0; m < views_.order(); ++m) {
    // Validates the config (single device included) on the first mode.
    modes_.push_back(make_pipeline_plan(*dev_, views_.view(m), m, rank_,
                                        options_, selector));
  }
  prepare_seconds_ = timer.seconds();
}

PipelineResult MttkrpPlan::run(const FactorList& factors,
                               order_t mode) const {
  return run_on(*dev_, factors, mode, options_.metrics_sink);
}

PipelineResult MttkrpPlan::run_on(gpusim::SimDevice& dev,
                                  const FactorList& factors, order_t mode,
                                  obs::MetricsRegistry* sink) const {
  SF_CHECK(mode < order(), "mode out of range");
  SF_CHECK(dev.spec().name == dev_->spec().name,
           "MttkrpPlan replay requires a device of the spec the plan "
           "was built for (\"" + dev_->spec().name + "\")");
  ExecConfig opt = options_;
  opt.metrics_sink = sink;
  PipelineExecutor exec(dev);
  return exec.run(modes_[mode], views_.view(mode), factors, opt);
}

}  // namespace scalfrag
