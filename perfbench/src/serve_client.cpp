#include "serve_client.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common.hpp"
#include "machine/report.hpp"
#include "serve/json.hpp"

namespace perfbench {

ServeProcess::~ServeProcess() {
  if (to_ >= 0) close(to_);
  if (from_ >= 0) close(from_);
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

bool ServeProcess::start(const std::string& ctdf_path,
                         const std::vector<std::string>& args,
                         std::string* why) {
  int in[2], out[2];
  if (pipe2(in, O_CLOEXEC) != 0) {
    if (why) *why = std::strerror(errno);
    return false;
  }
  if (pipe2(out, O_CLOEXEC) != 0) {
    if (why) *why = std::strerror(errno);
    close(in[0]);
    close(in[1]);
    return false;
  }
  std::vector<std::string> argv_s{ctdf_path, "serve"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = fork();
  if (pid_ < 0) {
    if (why) *why = std::strerror(errno);
    for (int fd : {in[0], in[1], out[0], out[1]}) close(fd);
    return false;
  }
  if (pid_ == 0) {
    unpin_self();
    dup2(in[0], 0);
    dup2(out[1], 1);
    execv(argv[0], argv.data());
    std::fprintf(stderr, "perfbench: cannot exec %s: %s\n", argv[0],
                 std::strerror(errno));
    _exit(127);
  }
  close(in[0]);
  close(out[1]);
  to_ = in[1];
  from_ = out[0];
  return true;
}

bool ServeProcess::write_line(const std::string& line) {
  std::string s = line;
  s.push_back('\n');
  std::size_t done = 0;
  while (done < s.size()) {
    const ssize_t n = write(to_, s.data() + done, s.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool ServeProcess::read_line(std::string& line) {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t n = read(from_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

int ServeProcess::finish(double* peak_rss_mb) {
  if (to_ >= 0) close(to_);
  to_ = -1;
  std::string rest;
  while (read_line(rest)) {
  }
  close(from_);
  from_ = -1;
  int status = 0;
  rusage ru{};
  const pid_t r = wait4(pid_, &status, 0, &ru);
  pid_ = -1;
  if (peak_rss_mb) *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (r < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

namespace {

std::string json_quote(const std::string& s) {
  return "\"" + ctdf::machine::json_escape(s) + "\"";
}

std::string json_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", " : "") + json_quote(v[i]);
  return out + "]";
}

/// Parses the response's "store" object straight from the text, so
/// values keep all 64 bits.
bool parse_store(const std::string& line,
                 std::map<std::string, std::vector<std::int64_t>>& store) {
  const std::size_t key = line.rfind("\"store\": ");
  if (key == std::string::npos) return false;
  const char* p = line.c_str() + key + 9;
  if (std::strncmp(p, "null", 4) == 0) return true;
  if (*p != '{') return false;
  ++p;
  const auto ws = [&] {
    while (*p == ' ' || *p == ',') ++p;
  };
  const auto number = [&](std::int64_t& v) {
    char* end = nullptr;
    errno = 0;
    v = std::strtoll(p, &end, 10);
    if (end == p || errno != 0) return false;
    p = end;
    return true;
  };
  for (ws(); *p != '}'; ws()) {
    if (*p != '"') return false;
    const char* name_end = std::strchr(p + 1, '"');
    if (!name_end) return false;
    std::vector<std::int64_t>& values =
        store[std::string(p + 1, name_end)];
    p = name_end + 1;
    if (std::strncmp(p, ": ", 2) != 0) return false;
    p += 2;
    std::int64_t v = 0;
    if (*p == '[') {
      for (++p, ws(); *p != ']'; ws()) {
        if (!number(v)) return false;
        values.push_back(v);
      }
      ++p;
    } else if (std::strncmp(p, "null", 4) == 0) {
      p += 4;
    } else {
      if (!number(v)) return false;
      values.push_back(v);
    }
  }
  return true;
}

double number_at(const ctdf::serve::JsonValue& obj, const char* key) {
  const ctdf::serve::JsonValue* v = obj.find(key);
  return v && v->kind == ctdf::serve::JsonValue::Kind::kNumber ? v->number : 0;
}

}  // namespace

std::string run_request_body(const std::string& source,
                             const std::vector<std::string>& options,
                             const std::vector<std::string>& print) {
  return "\"op\": \"run\", \"source\": " + json_quote(source) +
         ", \"options\": " + json_list(options) +
         ", \"print\": " + json_list(print) + "}";
}

bool parse_response(const std::string& line, Response& r, std::string* why) {
  std::string err;
  const auto doc = ctdf::serve::json_parse(line, &err);
  if (!doc || !doc->is_object()) {
    if (why) *why = "unparseable response: " + err;
    return false;
  }
  r.id = static_cast<std::int64_t>(number_at(*doc, "id"));
  const ctdf::serve::JsonValue* ok = doc->find("ok");
  r.ok = ok && ok->kind == ctdf::serve::JsonValue::Kind::kBool && ok->boolean;
  if (const auto* e = doc->find("error"); e && e->is_object())
    if (const auto* m = e->find("message"); m && m->is_string())
      r.error = m->string;
  if (const auto* c = doc->find("cache"); c && c->is_object())
    if (const auto* d = c->find("disposition"); d && d->is_string())
      r.disposition = d->string;
  r.total_ms = number_at(*doc, "total_nanos") / 1e6;
  r.exec_ms = number_at(*doc, "exec_nanos") / 1e6;
  if (const auto* s = doc->find("stage_nanos"); s && s->is_object())
    r.compile_ms = number_at(*s, "total") / 1e6;
  if (const auto* s = doc->find("stats"); s && s->is_object()) {
    r.cycles = static_cast<std::int64_t>(number_at(*s, "cycles"));
    r.ops_fired = static_cast<std::int64_t>(number_at(*s, "ops_fired"));
  }
  if (!parse_store(line, r.store)) {
    if (why) *why = "malformed store in response";
    return false;
  }
  return true;
}

bool check_response(const Response& r, std::int64_t id,
                    const std::vector<Expect>& expect, std::string* why) {
  if (r.id != id) {
    if (why)
      *why = "response for id " + std::to_string(r.id) + " where " +
             std::to_string(id) + " was due";
    return false;
  }
  if (!r.ok) {
    if (why) *why = "request " + std::to_string(id) + " failed: " + r.error;
    return false;
  }
  for (const Expect& e : expect) {
    const auto it = r.store.find(e.var);
    if (it == r.store.end() || it->second != e.values) {
      if (why) *why = "request " + std::to_string(id) + ": wrong " + e.var;
      return false;
    }
  }
  return true;
}

bool server_within_client(double server_ms, double client_ms,
                          std::string* why) {
  if (server_ms <= client_ms) return true;
  if (why)
    *why = "server time " + std::to_string(server_ms) +
           " ms exceeds client latency " + std::to_string(client_ms) + " ms";
  return false;
}

bool runs_agree(const Response& r, const ProgramFacts& f, std::string* why) {
  if (r.cycles == f.sim_cycles && r.ops_fired == f.ops_fired) return true;
  if (why)
    *why = "cycles " + std::to_string(r.cycles) + " vs " +
           std::to_string(f.sim_cycles) + ", firings " +
           std::to_string(r.ops_fired) + " vs " + std::to_string(f.ops_fired);
  return false;
}

LoopResult closed_loop(ServeProcess& server, int window, std::int64_t round,
                       double seconds,
                       const std::function<std::string(std::int64_t)>& make_line) {
  LoopResult out;
  const auto t0 = Clock::now();
  std::int64_t next = 0, received = 0;
  bool sending = true;
  std::string line;
  while (sending || received < next) {
    while (sending && next - received < window) {
      if (next % round == 0 && next > 0 &&
          (seconds <= 0 || ms_between(t0, Clock::now()) >= seconds * 1e3)) {
        sending = false;
        break;
      }
      out.sent_at.push_back(Clock::now());
      if (!server.write_line(make_line(next))) {
        out.io_ok = false;
        sending = false;
        break;
      }
      ++next;
    }
    if (received == next) break;
    if (!server.read_line(line)) {
      out.io_ok = false;
      break;
    }
    out.received_at.push_back(Clock::now());
    out.lines.push_back(std::move(line));
    ++received;
  }
  out.elapsed_s = ms_between(t0, Clock::now()) / 1e3;
  return out;
}

}  // namespace perfbench
