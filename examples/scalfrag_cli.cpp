// scalfrag_cli — run MTTKRP / CPD on any tensor from the command line.
//
// Usage:
//   scalfrag_cli mttkrp [--input name|file.tns] [--mode N] [--rank F]
//                [--segments K|auto] [--streams S] [--backend scalfrag|parti]
//                [--hybrid THRESH] [--no-shared-mem] [--no-adaptive]
//                [--trace out.json]
//   scalfrag_cli cpd    [--input ...] [--rank F] [--iters N] [--nonneg]
//                [--backend reference|parti|scalfrag]
//   scalfrag_cli info   [--input ...] [--mode N]
//
// `--input` takes a Table III profile name (default "nell-2") or a
// FROSTT .tns path. Everything runs on the simulated RTX 3090.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "parti/parti_executor.hpp"
#include "scalfrag/scalfrag.hpp"
#include "tensor/stats.hpp"

namespace {

using namespace scalfrag;

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;
  std::map<std::string, bool> flags;

  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  }
  long get_long(const std::string& key, long dflt) const {
    const auto it = kv.find(key);
    return it == kv.end() ? dflt : std::stol(it->second);
  }
  bool has(const std::string& flag) const { return flags.count(flag) > 0; }
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc > 1) a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) != 0) throw Error("unexpected argument: " + s);
    s = s.substr(2);
    const bool value_opt = s == "input" || s == "mode" || s == "rank" ||
                           s == "segments" || s == "streams" ||
                           s == "backend" || s == "hybrid" || s == "iters" ||
                           s == "trace";
    if (value_opt) {
      SF_CHECK(i + 1 < argc, "--" + s + " needs a value");
      a.kv[s] = argv[++i];
    } else {
      a.flags[s] = true;
    }
  }
  return a;
}

CooTensor load_input(const Args& a) {
  const std::string input = a.get("input", "nell-2");
  if (input.size() > 4 && input.ends_with(".tns")) {
    std::printf("loading %s ...\n", input.c_str());
    return read_tns_file(input);
  }
  return make_frostt_tensor(input);
}

FactorList random_factors(const CooTensor& t, index_t rank) {
  Rng rng(1);
  FactorList f;
  for (order_t m = 0; m < t.order(); ++m) {
    DenseMatrix a(t.dim(m), rank);
    a.randomize(rng);
    f.push_back(std::move(a));
  }
  return f;
}

int cmd_info(const Args& a) {
  CooTensor t = load_input(a);
  const auto mode = static_cast<order_t>(a.get_long("mode", 0));
  SF_CHECK(mode < t.order(), "mode out of range");
  const auto feat = TensorFeatures::extract(t, mode);
  std::printf("order %d  nnz %s  density %s  bytes %s\n", t.order(),
              human_count(t.nnz()).c_str(), fmt_density(t.density()).c_str(),
              human_bytes(t.bytes()).c_str());
  const auto v = feat.to_vector();
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("  %-22s %10.4f\n", TensorFeatures::names()[i], v[i]);
  }
  std::printf("\n%s", stats_report(t).c_str());
  return 0;
}

int cmd_mttkrp(const Args& a) {
  CooTensor t = load_input(a);
  const auto mode = static_cast<order_t>(a.get_long("mode", 0));
  const auto rank = static_cast<index_t>(a.get_long("rank", 16));
  SF_CHECK(mode < t.order(), "mode out of range");
  t.sort_by_mode(mode);
  const FactorList factors = random_factors(t, rank);

  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
  const std::string backend = a.get("backend", "scalfrag");

  if (backend == "parti") {
    const auto r = parti::run_mttkrp(dev, t, factors, mode);
    std::printf("ParTI MTTKRP: %.1f us simulated (H2D %.1f, kernel %.1f, "
                "D2H %.1f), launch %s\n",
                r.total_ns / 1e3, r.breakdown.h2d / 1e3,
                r.breakdown.kernel / 1e3, r.breakdown.d2h / 1e3,
                r.launch.str().c_str());
  } else if (backend == "scalfrag") {
    AutoTuner tuner(dev.spec(), {.rank = rank});
    tuner.train();
    const LaunchSelector sel = tuner.selector();
    ExecConfig opt;
    const std::string segs = a.get("segments", "auto");
    opt.num_segments = segs == "auto" ? 0 : std::stoi(segs);
    opt.num_streams = static_cast<int>(a.get_long("streams", 4));
    opt.use_shared_mem = !a.has("no-shared-mem");
    opt.adaptive_launch = !a.has("no-adaptive");
    opt.hybrid_cpu_threshold =
        static_cast<nnz_t>(a.get_long("hybrid", 0));
    const auto r = run_pipeline(dev, t, factors, mode, opt, &sel);
    std::printf("ScalFrag MTTKRP: %.1f us simulated (%zu segments, overlap "
                "saved %.1f us, selection %.0f us host)\n",
                r.total_ns / 1e3, r.plan.size(),
                r.breakdown.overlap_saved() / 1e3,
                r.selection_seconds * 1e6);
    if (!r.launches.empty()) {
      std::printf("  first segment launch: %s\n",
                  r.launches[0].str().c_str());
    }
  } else {
    throw Error("unknown backend: " + backend);
  }

  const std::string trace = a.get("trace", "");
  if (!trace.empty()) {
    gpusim::write_chrome_trace_file(trace, dev);
    std::printf("trace written to %s\n", trace.c_str());
  }
  return 0;
}

int cmd_cpd(const Args& a) {
  CooTensor t = load_input(a);
  auto cfg = ExecConfig{}
                 .rank(static_cast<index_t>(a.get_long("rank", 16)))
                 .max_iters(static_cast<int>(a.get_long("iters", 10)))
                 .nonneg(a.has("nonneg"));
  const std::string backend = a.get("backend", "scalfrag");
  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());

  if (backend == "reference") {
    const auto r = cpd_als(t, cfg.backend("coo_host"));
    std::printf("CPD fit %.4f in %d iterations (host reference)\n",
                r.final_fit, r.iterations);
    return 0;
  }
  if (backend == "parti") {
    const auto r = cpd_als(t, cfg.backend("parti"), &dev);
    std::printf("CPD fit %.4f in %d iterations, %.2f ms simulated MTTKRP "
                "(%d calls)\n",
                r.final_fit, r.iterations, r.mttkrp_sim_ns / 1e6,
                r.mttkrp_calls);
    return 0;
  }
  SF_CHECK(backend == "scalfrag", "unknown backend: " + backend);
  AutoTuner tuner(dev.spec(), {.rank = cfg.decomp_rank});
  tuner.train();
  const LaunchSelector sel = tuner.selector();
  const auto r = cpd_als(t, cfg.backend("coo"), &dev, &sel);
  std::printf("CPD fit %.4f in %d iterations, %.2f ms simulated MTTKRP "
              "(%d calls, backend %s)\n",
              r.final_fit, r.iterations, r.mttkrp_sim_ns / 1e6,
              r.mttkrp_calls, r.info.backend.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.command == "info") return cmd_info(a);
    if (a.command == "mttkrp") return cmd_mttkrp(a);
    if (a.command == "cpd") return cmd_cpd(a);
    std::fprintf(stderr,
                 "usage: scalfrag_cli <info|mttkrp|cpd> [options]\n"
                 "see the header of examples/scalfrag_cli.cpp\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
