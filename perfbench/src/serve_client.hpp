// Client side of `ctdf serve` on a pipe: starts the server, drives it
// in a closed loop with a fixed window of outstanding requests, and
// decodes and checks its responses.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernels.hpp"

namespace perfbench {

/// A `ctdf serve` child process talking NDJSON over two pipes.
class ServeProcess {
 public:
  ServeProcess() = default;
  ~ServeProcess();
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  /// Starts `ctdf_path serve <args...>`; false (with *why) on failure.
  bool start(const std::string& ctdf_path, const std::vector<std::string>& args,
             std::string* why);
  /// Writes one request line ('\n' appended).
  bool write_line(const std::string& line);
  /// Reads one response line (without '\n'); false at EOF or error.
  bool read_line(std::string& line);
  /// Closes the request pipe, waits for the server to drain and exit,
  /// and returns its exit status (-1 if it did not exit normally).
  /// *peak_rss_mb receives the server's peak resident set.
  int finish(double* peak_rss_mb);

 private:
  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  std::string buf_;
};

/// A "run" request line (without the id, which the loop prepends).
[[nodiscard]] std::string run_request_body(const std::string& source,
                                           const std::vector<std::string>& options,
                                           const std::vector<std::string>& print);

/// What the harness reads back from one response.
struct Response {
  std::int64_t id = -1;
  bool ok = false;
  std::string disposition;   ///< cache disposition: hit-memory | miss | ...
  double total_ms = 0;       ///< server wall time (total_nanos)
  double exec_ms = 0;        ///< exec_nanos
  double compile_ms = 0;     ///< stage_nanos.total (0 on a cache hit)
  std::int64_t cycles = 0;   ///< stats.cycles
  std::int64_t ops_fired = 0;
  std::string error;         ///< error message when !ok
  /// The "store" object: name → values (one for a scalar). Parsed
  /// from the text as int64, not through doubles.
  std::map<std::string, std::vector<std::int64_t>> store;
};

/// Decodes one response line; false (with *why) if it is not a
/// well-formed run response.
[[nodiscard]] bool parse_response(const std::string& line, Response& r,
                                  std::string* why);

/// A response is correct when it answers request `id`, is ok, and its
/// store carries exactly the expected values.
[[nodiscard]] bool check_response(const Response& r, std::int64_t id,
                                  const std::vector<Expect>& expect,
                                  std::string* why);

/// Cross-check of two clocks: the server's `total_nanos` must not
/// exceed the latency the client observed for the same request.
[[nodiscard]] bool server_within_client(double server_ms, double client_ms,
                                        std::string* why);

/// Cross-check of two runs of one program: the server's cycles and
/// firings must equal those of the library's own compile and run.
[[nodiscard]] bool runs_agree(const Response& r, const ProgramFacts& f,
                              std::string* why);

/// Result of a closed-loop drive.
struct LoopResult {
  std::vector<std::string> lines;  ///< responses, in arrival order
  std::vector<Clock::time_point> sent_at;      ///< per request
  std::vector<Clock::time_point> received_at;  ///< per response
  double elapsed_s = 0;
  bool io_ok = true;

  [[nodiscard]] double latency_ms(std::size_t i) const {
    return ms_between(sent_at[i], received_at[i]);
  }
};

/// Sends requests 0, 1, 2, ... (line = make_line(seq)) keeping
/// `window` outstanding, and reads every response. Sending stops at
/// the first multiple of `round` reached after `seconds` have elapsed
/// (seconds <= 0: after one round), so a drive is whole rounds.
[[nodiscard]] LoopResult closed_loop(
    ServeProcess& server, int window, std::int64_t round, double seconds,
    const std::function<std::string(std::int64_t)>& make_line);

}  // namespace perfbench
