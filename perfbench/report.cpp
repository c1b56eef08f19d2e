#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench.hpp"
#include "common/error.hpp"
#include "obs/json.hpp"

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},         {"solve_s", "s"},
      {"solve_sim_ms", "ms"},   {"jobs_per_s_sim", "1/s"},
      {"job_p50_ms_sim", "ms"}, {"job_p90_ms_sim", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"tensor.io_tns.read_s", "s"},
      {"scalfrag.autotune.train_s", "s"},
      {"tensor.mode_views.build_s", "s"},
      {"tensor.mode_views.resident_mb", "MB"},
      {"scalfrag.plan.build_s", "s"},
      {"scalfrag.pipeline.replay_s", "s"},
      {"tensor.mttkrp_par.kernel_s", "s"},
      {"scalfrag.pipeline.wrapper_s", "s"},
      {"scalfrag.segmenter.make_segments_s", "s"},
      {"tensor.mttkrp_par.gflops", "GFLOP/s"},
      {"tensor.mttkrp_par.bytes_computed", "MB"},
      {"tensor.linalg.gram_s", "s"},
      {"tensor.linalg.hadamard_s", "s"},
      {"tensor.linalg.pinv_spd_s", "s"},
      {"tensor.linalg.matmul_s", "s"},
      {"tensor.linalg.normalize_s", "s"},
      {"cpd.fit_s", "s"},
      {"gpusim.h2d_ms_sim", "ms"},
      {"gpusim.kernel_ms_sim", "ms"},
      {"gpusim.d2h_ms_sim", "ms"},
      {"gpusim.overlap_saved_ms_sim", "ms"},
      {"scalfrag.pipeline.segments", "count"},
      {"scalfrag.shard.plan_s", "s"},
      {"scalfrag.multi_pipeline.wall_s", "s"},
      {"scalfrag.multi_pipeline.compute_us_sim", "us"},
      {"scalfrag.multi_pipeline.reduce_us_sim", "us"},
      {"scalfrag.multi_pipeline.overlap_saved_us_sim", "us"},
      {"scalfrag.multi_pipeline.steals", "count"},
      {"scalfrag.multi_pipeline.pred_imbalance", "ratio"},
      {"scalfrag.multi_pipeline.device_busy_max_min_ratio", "ratio"},
      {"service.plan_cache.hit_ratio", "ratio"},
      {"service.prepare_s", "s"},
      {"service.exec_s", "s"},
      {"service.queue_wait_s", "s"},
      {"service.device_busy_frac_sim", "ratio"},
      {"service.rejected", "count"},
      {"service.failed", "count"},
      {"trace.unattributed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

void Report::set(const std::string& name, double value, std::size_t n) {
  const auto& table = opt_->trace ? per_layer_metrics() : end_to_end_metrics();
  const auto it = std::find_if(table.begin(), table.end(), [&](const auto& d) {
    return name == d.name;
  });
  SF_CHECK(it != table.end(), "metric " + name + " is not declared for " +
                                  (opt_->trace ? "the traced run"
                                               : "the untraced run"));
  metrics_.push_back({name, value, it->unit, n});
}

std::vector<Metric> Report::reported() const {
  std::vector<Metric> out;
  for (const MetricDef& d :
       opt_->trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == d.name; });
    if (it != metrics_.end()) {
      out.push_back(*it);
    } else {
      SF_CHECK(opt_->trace, std::string("end-to-end metric ") + d.name +
                                " was not measured");
      out.push_back({d.name, 0.0, d.unit, 0});
    }
  }
  return out;
}

void Report::census(const std::string& key, const std::string& value) {
  census_.emplace_back(key, value);
}

void Report::census(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  census_.emplace_back(key, buf);
}

bool Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
  return ok;
}

scalfrag::DenseMatrix Report::checked(const scalfrag::DenseMatrix& m) const {
  scalfrag::DenseMatrix out = m;
  if (opt_->corrupt && out.size() > 0) out.data()[0] += 1.0f;
  return out;
}

std::string Report::summary_line() const {
  scalfrag::obs::JsonWriter w;
  w.begin_object()
      .kv("correct", failed_ == 0)
      .kv("attempted", attempted_)
      .kv("failed", failed_)
      .key("metrics")
      .begin_object();
  for (const Metric& m : reported()) {
    w.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit)
        .end_object();
  }
  w.end_object().end_object();
  return w.str();
}

void Report::write_file(const std::string& path) const {
  scalfrag::obs::JsonWriter w;
  w.begin_object()
      .kv("workload", opt_->workload)
      .kv("seed", opt_->seed)
      .kv("seconds", opt_->seconds)
      .kv("trace", opt_->trace)
      .kv("tiny", opt_->tiny)
      .kv("corrupt", opt_->corrupt)
      .kv("attempted", attempted_)
      .kv("failed", failed_)
      .kv("failed_frac", attempted_ > 0 ? static_cast<double>(failed_) /
                                              static_cast<double>(attempted_)
                                        : 0.0)
      .key("metrics")
      .begin_object();
  for (const Metric& m : reported()) {
    w.key(m.name)
        .begin_object()
        .kv("value", m.value)
        .kv("unit", m.unit)
        .kv("n", static_cast<std::uint64_t>(m.n))
        .end_object();
  }
  w.end_object().key("census").begin_object();
  for (const auto& [k, v] : census_) w.kv(k, v);
  w.end_object().key("failures").begin_array();
  for (const std::string& f : failures_) w.value(f);
  w.end_array().end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  SF_CHECK(out.good(), "cannot write report " + path);
}

void set_sim_jobs(Report& rep, const std::vector<double>& finish_ms,
                  double makespan_ms) {
  rep.set("solve_sim_ms", makespan_ms);
  rep.set("jobs_per_s_sim",
          static_cast<double>(finish_ms.size()) / (makespan_ms * 1e-3),
          finish_ms.size());
  rep.set("job_p50_ms_sim", percentile(finish_ms, 0.5), finish_ms.size());
  rep.set("job_p90_ms_sim", percentile(finish_ms, 0.9), finish_ms.size());
}

std::string artifact(const Options& opt, const std::string& suffix) {
  return opt.out_dir + "/" + opt.workload + "-seed" +
         std::to_string(opt.seed) + suffix;
}

double median(std::vector<double> v) {
  SF_CHECK(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double percentile(std::vector<double> v, double q) {
  SF_CHECK(!v.empty(), "percentile of no samples");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool same_bits(const scalfrag::DenseMatrix& a, const scalfrag::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(scalfrag::value_t)) == 0;
}

}  // namespace perfbench
