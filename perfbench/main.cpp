// Repository benchmark driver: one workload per process, selected and
// seeded from the command line (perfbench/README.md).
//
//   perfbench --workload <cpd-nell2|cpd-deli4d|mttkrp-hetero|service-mix>
//             --seed N --seconds S --trace 0|1 --out DIR [--tiny] [--corrupt]
//
// The last stdout line is the summary JSON; DIR receives the detailed
// report (metrics with sample counts, input census, failures) and, with
// --trace 1, the Chrome trace of the benchmark's spans.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out DIR [--tiny] [--corrupt]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = std::stoull(next());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (a == "--trace") {
      opt.trace = next() == "1";
    } else if (a == "--out") {
      opt.out_dir = next();
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt") {
      opt.corrupt = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty() || opt.out_dir.empty()) {
    usage("--workload and --out are required");
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Report rep(opt);
  try {
    if (opt.workload == "cpd-nell2" || opt.workload == "cpd-deli4d") {
      perfbench::run_cpd(opt, rep);
    } else if (opt.workload == "mttkrp-hetero") {
      perfbench::run_hetero(opt, rep);
    } else if (opt.workload == "service-mix") {
      perfbench::run_service(opt, rep);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    rep.write_file(perfbench::artifact(
        opt, opt.trace ? "-report-traced.json" : "-report.json"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fflush(stdout);
  std::printf("%s\n", rep.summary_line().c_str());
  return 0;
}
