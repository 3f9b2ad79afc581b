// perfbench: run one workload of the QRM stack benchmark and print its
// metrics. Normally started through perfbench/run.py, which builds it:
//
//   perfbench --workload fig7-shot-stream --seed 1 --seconds 10 --trace 0
//             --campaign perfbench/campaign_mix.txt [--trace-out trace.json]
//
// Exit codes: 0 all outputs correct, 1 some operation failed its check
// (the result line is still printed), 2 bad arguments, 3 the run aborted.

#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fig7-shot-stream|scale-256-plan|"
               "campaign-mix> --seed <n> --seconds <s> --trace <0|1> --campaign <file> "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options options;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else if (flag == "--campaign") {
        options.campaign_file = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    pb::RunOutput output;
    if (options.workload == "fig7-shot-stream") {
      output = pb::run_fig7_shot_stream(options);
    } else if (options.workload == "scale-256-plan") {
      output = pb::run_scale_256_plan(options);
    } else if (options.workload == "campaign-mix") {
      if (options.campaign_file.empty()) return usage("campaign-mix needs --campaign");
      output = pb::run_campaign_mix(options);
    } else {
      return usage("unknown workload");
    }
    pb::print_result(options, output);
    return output.failed == 0 && output.errors.empty() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", error.what());
    return 3;
  }
}
