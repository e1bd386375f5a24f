#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int Tracer::open(std::string name, int item) {
  const std::int64_t t = now_ns();
  const int id = add(std::move(name), t, t, current(), item);
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int Tracer::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, int item) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, item});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  // Children are recorded after their parent and, within one parent,
  // never overlap (the harness is single-threaded; synthesized children
  // are laid end to end), so "minus the part children cover" is the
  // duration minus the children's durations clipped to the parent.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += hi - lo;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t self =
        std::max<std::int64_t>(0, s.end_ns - s.start_ns - covered[i]);
    out[s.name.substr(0, s.name.find('.'))] += static_cast<double>(self) / 1e6;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const Span& s : spans_)
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"item\": %d}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.item);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
