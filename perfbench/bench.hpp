#pragma once
// Shared pieces of the repository benchmark (perfbench/README.md):
// command-line options, the per-run report, the span tracer, and the
// small statistics every workload uses.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/dense_matrix.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for generated inputs, the detailed report and the trace.
  std::string out_dir;
  /// Shrink every input and loop to its minimum (the self-test).
  bool tiny = false;
  /// Perturb one value of every checked output before its check, so the
  /// self-test can show that the checks feed `failed`.
  bool corrupt = false;
};

/// One reported number; `n` is the number of samples behind it (1 for
/// a deterministic or single-shot value).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 1;
};

struct MetricDef {
  const char* name;
  const char* unit;
};
/// The metric tables BENCHMARK.json declares, in report order.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// What one run reports: metrics, the operation ledger behind
/// `attempted` / `failed`, the input census, and failure messages.
class Report {
 public:
  explicit Report(const Options& opt) : opt_(&opt) {}

  /// Record a metric named in end_to_end_metrics() or
  /// per_layer_metrics(); its unit comes from that table.
  void set(const std::string& name, double value, std::size_t n = 1);
  void census(const std::string& key, const std::string& value);
  void census(const std::string& key, double value);

  /// Count one operation; a failed one keeps `what`. Returns `ok`.
  bool op(bool ok, const std::string& what);

  /// The copy of `m` a check compares: `m` itself, or under --corrupt
  /// `m` with its first value perturbed.
  scalfrag::DenseMatrix checked(const scalfrag::DenseMatrix& m) const;
  double checked(double v) const { return opt_->corrupt ? v + 1.0 : v; }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}
  /// with every end-to-end metric (untraced run) or every per-layer
  /// metric (traced run; a layer off this workload's path reads 0, n 0).
  std::string summary_line() const;
  /// Full report: metrics with sample counts, census, failures.
  void write_file(const std::string& path) const;

 private:
  const Options* opt_;
  std::vector<Metric> reported() const;

  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> census_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder for the traced run. Spans nest by scope: a
/// span's parent is the innermost span open when it started. Written out
/// once, at the end, as a Chrome/Perfetto trace plus a self-time table.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  // since the tracer was created
    double end_s = 0.0;
    int parent = -1;       // index of the parent span, -1 for a root
  };

  /// RAII span; closes on destruction. A null tracer records nothing,
  /// so one code path serves the traced and the untraced run.
  class Scope {
   public:
    Scope(Tracer* t, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Sum of durations of the spans named `name` under span `root`.
  double total(const std::string& name, int root) const;
  /// Indices of spans named `name`, in start order.
  std::vector<int> find(const std::string& name) const;

  /// Per span named `root`: its duration, and the share of it no child
  /// span covers (its unattributed time).
  struct Roots {
    std::vector<double> seconds;
    std::vector<double> unattributed;
  };
  Roots roots(const std::string& root) const;

  /// Chrome trace-event JSON (open in Perfetto or chrome://tracing).
  void write_chrome(const std::string& path) const;
  /// Per-name count, total and self time over the spans under roots
  /// named `root` (the roots included), largest self time first.
  std::string self_time_table(const std::string& root) const;

 private:
  using Clock = std::chrono::steady_clock;
  double now() const;
  /// Duration of span `i` minus the time its direct children cover.
  double self_time(int i) const;
  /// True when span `i` lies under span `ancestor`.
  bool under(int i, int ancestor) const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);
/// Peak resident set size of this process so far, in MiB. Workloads read
/// it right after their first operation: later operations repeat the
/// same work, and reading it at the end would make it grow with how many
/// operations fit in the run.
double peak_rss_mb();
bool same_bits(const scalfrag::DenseMatrix& a, const scalfrag::DenseMatrix& b);

/// The simulated-clock end-to-end metrics of one operation: solve_sim_ms
/// (its makespan), jobs_per_s_sim, and job_p50/p90_ms_sim over the
/// finish stamps of its jobs (service jobs, or MTTKRP calls).
void set_sim_jobs(Report& rep, const std::vector<double>& finish_ms,
                  double makespan_ms);

/// Path of a run artifact: out_dir/<workload>-seed<N><suffix>.
std::string artifact(const Options& opt, const std::string& suffix);

/// Seconds on the steady clock since `t0`.
inline double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Workload entry points (one translation unit each).
void run_cpd(const Options& opt, Report& rep);
void run_hetero(const Options& opt, Report& rep);
void run_service(const Options& opt, Report& rep);

}  // namespace perfbench
