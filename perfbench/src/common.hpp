// Shared pieces of the benchmark harness: clocks, order statistics,
// option parsing through the CLI's own flag parsers, and the one
// library compile path every workload uses.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "machine/blob.hpp"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process, MB (getrusage).
[[nodiscard]] double peak_rss_mb_self();

/// SplitMix64 step: the benchmark's own generator, so no workload input
/// depends on a library RNG that a later change could alter.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix64(state_++); }
  /// Uniform in [lo, hi].
  std::int64_t in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  bool chance(int pct) { return in(0, 99) < pct; }

 private:
  std::uint64_t state_;
};

/// Moves the thread that constructs it to the next CPU it may run on
/// every 10 ms, from a thread of its own, until it is destroyed. On a
/// host whose cores change speed independently for seconds at a time, a
/// run that stays on one core measures that core's phase; rotating makes
/// every run, set-up included, sample all cores alike, also inside one
/// long compile or execution.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void loop();

  static constexpr std::chrono::milliseconds kPeriod{10};
  std::vector<int> cpus_;
  int tid_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Lets the calling thread run on every CPU again (for a child process
/// started while the harness thread was on one CPU).
void unpin_self();

/// Schema options from CLI flag strings (translate::apply_schema_flag),
/// starting from the defaults the CLI and serve start from; throws
/// std::invalid_argument on a flag it does not accept.
[[nodiscard]] ctdf::translate::TranslateOptions schema_options(
    const std::vector<std::string>& flags);

/// Per-program figures of one compile + run, summed over a pass of a
/// workload's distinct programs for the count metrics.
struct ProgramFacts {
  double source_kb = 0;
  std::int64_t cfg_nodes = 0;
  std::int64_t nodes_split = 0;
  std::int64_t graph_nodes = 0;  ///< after translate
  std::int64_t graph_arcs = 0;
  std::int64_t switches = 0;
  std::int64_t opt_removed = 0;
  std::int64_t opt_iterations = 0;
  std::int64_t exec_ops = 0;
  std::int64_t frame_slots = 0;
  std::int64_t blob_bytes = 0;
  // Run statistics of one execution on the default machine.
  std::int64_t sim_cycles = 0;
  std::int64_t ops_fired = 0;
  std::int64_t tokens_sent = 0;
  std::int64_t matches = 0;
  std::int64_t contexts = 0;
  std::int64_t peak_live_contexts = 0;
  std::int64_t mem_reads = 0;
  std::int64_t mem_writes = 0;

  void add_run(const ctdf::machine::RunStats& s);
  ProgramFacts& operator+=(const ProgramFacts& o);
};

/// One program compiled through the library the way a user would:
/// core::parse → core::Pipeline::run → machine::lower →
/// core::make_program_image → machine::serialize.
struct Compiled {
  ctdf::lang::Program prog;
  ctdf::machine::ProgramImage image;
  ProgramFacts facts;  ///< compile-side fields filled
  std::int64_t stage_nanos_sum = 0;  ///< sum of the pipeline's stage records
  double compile_ms = 0;             ///< Pipeline::run timed from outside
};

/// Compiles `source`; every call into the library becomes a span when
/// `tracer` is non-null. Throws support::CompileError on a bad program.
[[nodiscard]] Compiled compile_program(
    const std::string& source, const ctdf::translate::TranslateOptions& opts,
    Tracer* tracer, int item);

/// Cross-check of two clocks: the pipeline's own stage records must sum
/// to no more than `Pipeline::run` timed from outside. False (with a
/// reason) when they do not.
[[nodiscard]] bool stages_within_compile(const Compiled& c, std::string* why);

/// Executes a compiled image on `mopts`, as a span when traced.
[[nodiscard]] ctdf::machine::RunResult execute_image(
    const ctdf::machine::ProgramImage& image,
    const ctdf::machine::MachineOptions& mopts, Tracer* tracer, int item);

/// Store comparison against the reference interpreter: false (with a
/// reason) when the interpreter ran out of fuel or any cell differs.
[[nodiscard]] bool store_matches_interp(const ctdf::lang::InterpResult& ref,
                                        const ctdf::lang::Store& got,
                                        std::string* why);

/// Interpreter fuel: enough for every benchmark program many times
/// over, so running out means a wrong (non-terminating) program.
inline constexpr std::uint64_t kInterpFuel = 200'000'000;

}  // namespace perfbench
