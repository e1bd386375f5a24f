// Spans for the traced run (--trace 1).
//
// A span is (name, start, end, parent, item). Spans are recorded by the
// harness around each call into a module's public functions, kept in
// memory, and written out once at the end. Names are "<layer>.<what>"
// (lang.parse, cfg.build, machine.execute, serve.request, ...); the
// layer is the part before the first dot. A span's self time is its
// duration minus the time its children cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< from the tracer's origin
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root
  int item = -1;    ///< workload item the span belongs to, -1 for none
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  [[nodiscard]] std::int64_t now_ns() const { return to_ns(Clock::now()); }
  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Opens a span now, nested under the innermost open span.
  int open(std::string name, int item);
  void close(int id);
  /// Records a finished span with explicit times (intervals measured
  /// elsewhere: pipeline stage records, server-side timings).
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int item);
  /// The innermost open span, or -1.
  [[nodiscard]] int current() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Self time (ms) summed per layer.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// One JSON object per line: name, start_ns, end_ns, parent, item.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; does nothing when the tracer is null (untraced runs).
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name, int item)
      : t_(t), id_(t ? t->open(name, item) : -1) {}
  ~SpanScope() {
    if (t_) t_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
