#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "trace.hpp"
#include "translate/options.hpp"

namespace perfbench {

namespace ct = ctdf::translate;
namespace cm = ctdf::machine;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotation::CpuRotation() : tid_(static_cast<int>(syscall(SYS_gettid))) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  if (cpus_.size() > 1) thread_ = std::thread([this] { loop(); });
}

CpuRotation::~CpuRotation() {
  if (!thread_.joinable()) return;
  {
    const std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
}

void CpuRotation::loop() {
  std::unique_lock lock(mu_);
  for (std::size_t next = 0;; next = (next + 1) % cpus_.size()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next], &set);
    // Wait on the CPU the harness thread moves to next: that CPU is then
    // already running when the move happens, and the hypervisor's delay
    // in waking an idle one falls on this thread, not on the work.
    sched_setaffinity(0, sizeof set, &set);
    if (cv_.wait_for(lock, kPeriod, [this] { return stop_; })) break;
    sched_setaffinity(tid_, sizeof set, &set);
  }
}

void unpin_self() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = 0; c < CPU_SETSIZE; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);  // the kernel keeps the allowed ones
}

ct::TranslateOptions schema_options(const std::vector<std::string>& flags) {
  ct::TranslateOptions o = ct::TranslateOptions::schema2_optimized();
  for (const std::string& f : flags)
    if (ct::apply_schema_flag(o, f) != ct::SchemaFlagParse::kApplied)
      throw std::invalid_argument("not a schema flag: " + f);
  return o;
}

void ProgramFacts::add_run(const cm::RunStats& s) {
  sim_cycles += static_cast<std::int64_t>(s.cycles);
  ops_fired += static_cast<std::int64_t>(s.ops_fired);
  tokens_sent += static_cast<std::int64_t>(s.tokens_sent);
  matches += static_cast<std::int64_t>(s.matches);
  contexts += static_cast<std::int64_t>(s.contexts_allocated);
  peak_live_contexts += static_cast<std::int64_t>(s.peak_live_contexts);
  mem_reads += static_cast<std::int64_t>(s.mem_reads);
  mem_writes += static_cast<std::int64_t>(s.mem_writes);
}

ProgramFacts& ProgramFacts::operator+=(const ProgramFacts& o) {
  source_kb += o.source_kb;
  cfg_nodes += o.cfg_nodes;
  nodes_split += o.nodes_split;
  graph_nodes += o.graph_nodes;
  graph_arcs += o.graph_arcs;
  switches += o.switches;
  opt_removed += o.opt_removed;
  opt_iterations += o.opt_iterations;
  exec_ops += o.exec_ops;
  frame_slots += o.frame_slots;
  blob_bytes += o.blob_bytes;
  sim_cycles += o.sim_cycles;
  ops_fired += o.ops_fired;
  tokens_sent += o.tokens_sent;
  matches += o.matches;
  contexts += o.contexts;
  peak_live_contexts += o.peak_live_contexts;
  mem_reads += o.mem_reads;
  mem_writes += o.mem_writes;
  return *this;
}

namespace {

/// Span name of a pipeline stage record: "<layer>.<stage>", the layer
/// being the module that implements the stage.
const char* stage_span_name(ct::Stage s) {
  switch (s) {
    case ct::Stage::kParse: return "lang.parse";
    case ct::Stage::kCfgBuild: return "cfg.build";
    case ct::Stage::kDse: return "cfg.dse";
    case ct::Stage::kLoopTransform: return "cfg.loop_transform";
    case ct::Stage::kCover: return "translate.cover";
    case ct::Stage::kSsa: return "cfg.ssa";
    case ct::Stage::kDominance: return "cfg.dominance";
    case ct::Stage::kControlDep: return "cfg.control_dep";
    case ct::Stage::kSwitchPlace: return "translate.switch_place";
    case ct::Stage::kTranslate: return "translate.translate";
    case ct::Stage::kOptimize: return "dfg.optimize";
    case ct::Stage::kFanout: return "dfg.fanout";
    case ct::Stage::kValidate: return "dfg.validate";
    case ct::Stage::kLower: return "machine.lower";
  }
  return "core.stage";
}

std::int64_t counter_of(const ct::PipelineTrace& t, ct::Stage s,
                        const char* name) {
  const ct::StageRecord* r = t.find(s);
  return r && r->ran ? std::max<std::int64_t>(0, r->counter(name)) : 0;
}

}  // namespace

Compiled compile_program(const std::string& source,
                         const ct::TranslateOptions& opts, Tracer* tracer,
                         int item) {
  Compiled out;
  out.facts.source_kb = static_cast<double>(source.size()) / 1024.0;
  {
    SpanScope s(tracer, "lang.parse", item);
    out.prog = ctdf::core::parse(source);
  }

  ctdf::core::PipelineOptions popts(opts);
  popts.lower = false;  // lowered below, through machine::lower
  const ctdf::core::Pipeline pipeline(popts);
  const auto c0 = Clock::now();
  const int compile_span = tracer ? tracer->open("core.compile", item) : -1;
  ctdf::core::CompileResult cr = pipeline.run(out.prog);
  if (tracer) tracer->close(compile_span);
  out.compile_ms = ms_between(c0, Clock::now());

  // The pipeline's own stage records become child spans of the
  // outside-timed compile, laid end to end from its start.
  const ct::PipelineTrace& trace = cr.trace;
  std::int64_t at = tracer ? tracer->spans()[compile_span].start_ns : 0;
  for (const ct::StageRecord& r : trace.stages) {
    if (!r.ran) continue;
    out.stage_nanos_sum += r.nanos;
    if (tracer)
      tracer->add(stage_span_name(r.stage), at, at + r.nanos, compile_span,
                  item);
    at += r.nanos;
  }
  out.facts.cfg_nodes = counter_of(trace, ct::Stage::kCfgBuild, "nodes");
  out.facts.nodes_split =
      counter_of(trace, ct::Stage::kLoopTransform, "nodes-split");
  out.facts.graph_nodes = counter_of(trace, ct::Stage::kTranslate, "nodes");
  out.facts.graph_arcs = counter_of(trace, ct::Stage::kTranslate, "arcs");
  out.facts.switches = counter_of(trace, ct::Stage::kSwitchPlace, "switches");
  out.facts.opt_removed = counter_of(trace, ct::Stage::kOptimize, "removed");
  out.facts.opt_iterations =
      counter_of(trace, ct::Stage::kOptimize, "iterations");

  {
    SpanScope s(tracer, "machine.lower", item);
    cr.exec = cm::lower(cr.translation.graph);
  }
  out.facts.exec_ops = static_cast<std::int64_t>(cr.exec.num_ops());
  out.facts.frame_slots = static_cast<std::int64_t>(cr.exec.frame_slots());
  out.image = ctdf::core::make_program_image(std::move(cr));
  {
    SpanScope s(tracer, "machine.serialize", item);
    out.facts.blob_bytes =
        static_cast<std::int64_t>(cm::serialize(out.image).size());
  }
  return out;
}

bool stages_within_compile(const Compiled& c, std::string* why) {
  const auto outside = static_cast<std::int64_t>(c.compile_ms * 1e6);
  if (c.stage_nanos_sum <= outside) return true;
  if (why)
    *why = "pipeline stage times sum to " + std::to_string(c.stage_nanos_sum) +
           " ns, more than the " + std::to_string(outside) +
           " ns of the outside-timed compile";
  return false;
}

cm::RunResult execute_image(const cm::ProgramImage& image,
                            const cm::MachineOptions& mopts, Tracer* tracer,
                            int item) {
  SpanScope s(tracer, "machine.execute", item);
  return ctdf::core::execute(image, mopts);
}

bool store_matches_interp(const ctdf::lang::InterpResult& ref,
                          const ctdf::lang::Store& got, std::string* why) {
  if (!ref.completed) {
    if (why) *why = "reference interpreter ran out of fuel";
    return false;
  }
  if (ref.store.cells.size() != got.cells.size()) {
    if (why)
      *why = "store has " + std::to_string(got.cells.size()) +
             " cells, interpreter " + std::to_string(ref.store.cells.size());
    return false;
  }
  for (std::size_t i = 0; i < got.cells.size(); ++i)
    if (got.cells[i] != ref.store.cells[i]) {
      if (why)
        *why = "cell " + std::to_string(i) + " = " +
               std::to_string(got.cells[i]) + ", interpreter " +
               std::to_string(ref.store.cells[i]);
      return false;
    }
  return true;
}

}  // namespace perfbench
