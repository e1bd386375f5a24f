// The three workloads and the metrics they report.
//
//   kernels         the kernel corpus, compiled once in set-up, then
//                   executed round-robin on the default machine
//   compile-stream  generated programs, each item a cold compile
//                   (optimizer on) plus one brief run
//   serve-mix       `ctdf serve` on a pipe, one closed-loop client
//
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// record spans around every library call and report the per-layer
// metrics instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string ctdf;       ///< path of the ctdf binary (serve)
  std::string trace_dir;  ///< where traced runs write their spans
  Clock::time_point process_start = Clock::now();
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload; throws std::runtime_error when the run cannot be
/// carried out at all (unknown workload, server fails to start).
[[nodiscard]] Outcome run_workload(const Args& args);

}  // namespace perfbench
