// Workload runner behind perfbench/run.py.  Renders the workload's inputs
// from --seed, runs it for --seconds, and writes raw samples, counters and
// correctness checks to --out as JSON; run.py derives the printed metrics.
//
//   eslam_perfbench --workload desk_seq|served_mix --seed N --seconds S
//                   --trace 0|1 --out result.json [--trace-out spans.json]
//   eslam_perfbench --digest --workload W --seed N   # input fingerprint
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: eslam_perfbench --workload desk_seq|served_mix "
               "--seed N --seconds S --trace 0|1 --out FILE "
               "[--trace-out FILE]\n"
               "       eslam_perfbench --digest --workload W --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool digest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digest") {
      digest = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage();
    }
  }
  if (args.workload != "desk_seq" && args.workload != "served_mix")
    return usage();

  if (digest) {
    std::printf("%016" PRIx64 "\n",
                args.workload == "desk_seq"
                    ? perfbench::desk_seq_input_digest(args.seed)
                    : perfbench::served_mix_input_digest(args.seed));
    return 0;
  }
  if (args.out.empty() || args.seconds <= 0 ||
      (args.trace && args.trace_out.empty()))
    return usage();

  perfbench::Report report;
  if (args.workload == "desk_seq")
    perfbench::run_desk_seq(args, report);
  else
    perfbench::run_served_mix(args, report);
  if (!report.write(args.out)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
