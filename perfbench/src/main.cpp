// The benchmark binary: one process, at most 4 threads, that links the
// rbb library and times calls into its layers from outside.
//
//   perfbench --workload <mega_load|mc_claims|token_ckpt>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt-ckpt] [--work-dir <dir>]
//
// Prints one JSON object (the report) as its last stdout line; run.py
// turns it into the benchmark result.  --trace 0 measures the
// end-to-end metrics with telemetry off; --trace 1 runs the workload
// untraced and then traced, and reports the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "support/draw_plane.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<mega_load|mc_claims|token_ckpt> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--corrupt-ckpt] [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt-ckpt") {
      o.corrupt_ckpt = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options o = parse(argc, argv);
  rbb::obs::set_enabled(false);
  std::filesystem::create_directories(o.work_dir);
  perfbench::Report rep;
  rep.info("workload", o.workload);
  rep.info("plane_isa", rbb::active_plane_isa() == rbb::PlaneIsa::kAvx2
                            ? "avx2"
                            : "portable");
  rep.info("telemetry_compiled", RBB_TELEMETRY ? "yes" : "no");
  try {
    if (o.workload == "mega_load") {
      perfbench::run_mega_load(o, rep);
    } else if (o.workload == "mc_claims") {
      perfbench::run_mc_claims(o, rep);
    } else if (o.workload == "token_ckpt") {
      perfbench::run_token_ckpt(o, rep);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", rep.json().c_str());
  return 0;
}
