// perfbench: runs one benchmark workload and prints its result as one
// JSON object on the last line of standard output.
//
//   perfbench --workload <kernels|compile-stream|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> --ctdf <path of ctdf>
//             [--trace-dir <dir>]
//
// Exit status 0 when the run finished (its "correct" field says whether
// the outputs checked out), 2 on bad usage, 1 when the run could not be
// carried out.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --ctdf PATH [--trace-dir DIR]\n",
               why);
  return 2;
}

bool parse_number(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;  // stamps the process start first
  double seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    bool ok = true;
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") ok = parse_number(value, seed);
    else if (key == "--seconds") ok = parse_number(value, seconds);
    else if (key == "--trace") ok = parse_number(value, trace);
    else if (key == "--ctdf") args.ctdf = value;
    else if (key == "--trace-dir") args.trace_dir = value;
    else return usage(("unknown option " + key).c_str());
    if (!ok) return usage(("bad value for " + key).c_str());
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (args.workload.empty() || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1) || args.ctdf.empty())
    return usage("missing or invalid option");
  args.seed = static_cast<std::uint64_t>(seed);
  args.seconds = seconds;
  args.trace = trace == 1;

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out.metrics[i].name.c_str(),
                out.metrics[i].value, out.metrics[i].unit.c_str());
  std::printf("}}\n");
  return 0;
}
