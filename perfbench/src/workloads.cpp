#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>

#include "generator.hpp"
#include "kernels.hpp"
#include "machine/flags.hpp"
#include "serve_client.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace cm = ctdf::machine;

/// Options of every generated program: memory elimination and the full
/// optimizer, as CLI flag strings.
const std::vector<std::string> kGenFlags = {"--mem-elim", "--opt=all"};

/// `ctdf serve` flags: one worker. Requests still pass the reader, the
/// bounded queue and the ordered writer; with two workers the server's
/// peak memory depended on which requests happened to overlap.
const std::vector<std::string> kServeFlags = {"--workers=1"};

/// Server-side figures of the responses of a drive.
struct ServeSamples {
  std::vector<double> client_ms, server_ms, wait_ms, compile_ms, exec_ms,
      handler_ms;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

/// State of one run.
struct Ctx {
  explicit Ctx(const Args& a)
      : args(a), tracer(a.trace ? std::make_unique<Tracer>() : nullptr) {}

  Tracer* tr() { return tracer.get(); }

  void fail(std::int64_t items, const std::string& why) {
    out.failed += items;
    if (reported++ < 5)
      std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  /// A failed consistency check that no item owns.
  void broken(const std::string& why) {
    out.correct = false;
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }
  void end_setup() {
    setup_s = ms_between(args.process_start, Clock::now()) / 1e3 - check_ms / 1e3;
  }

  /// compile_program, cross-checking the pipeline's stage times.
  Compiled compile(const std::string& source,
                   const ctdf::translate::TranslateOptions& opts, int item) {
    Compiled cp = compile_program(source, opts, tr(), item);
    std::string why;
    if (!stages_within_compile(cp, &why)) broken(why);
    return cp;
  }

  cm::RunResult execute(const cm::ProgramImage& image, int item) {
    const auto t0 = Clock::now();
    cm::RunResult r = execute_image(image, mopts, tr(), item);
    if (tracer) {
      exec_ns += ms_between(t0, Clock::now()) * 1e6;
      exec_ops += static_cast<double>(r.stats.ops_fired);
    }
    return r;
  }

  const Args& args;
  std::unique_ptr<Tracer> tracer;
  cm::MachineOptions mopts = cm::default_cli_machine_options();
  double check_ms = 0;  ///< checking done inside set-up; not set-up time
  double setup_s = 0;
  std::vector<double> item_ms;
  std::vector<double> round_s;  ///< wall time of each whole round
  std::size_t round_len = 0;    ///< items per round
  double timed_s = 0;
  double peak_rss_mb = 0;
  ProgramFacts pass;  ///< one pass over the distinct programs
  ServeSamples serve;
  double exec_ns = 0;
  double exec_ops = 0;
  Outcome out;
  int reported = 0;
};

/// Runs `f` and books its wall time as checking.
template <typename F>
void checking(Ctx& c, F&& f) {
  const auto t0 = Clock::now();
  f();
  c.check_ms += ms_between(t0, Clock::now());
}

// --- serve -----------------------------------------------------------------

/// Checks every response of a drive against `expect_for(seq)` and folds
/// its timings into the serve samples (and spans, when traced).
void absorb(Ctx& c, const LoopResult& lr,
            const std::function<std::vector<Expect>(std::int64_t)>& expect_for,
            bool items) {
  for (std::size_t i = 0; i < lr.lines.size(); ++i) {
    const auto seq = static_cast<std::int64_t>(i);
    const double client = lr.latency_ms(i);
    Response r;
    std::string why;
    if (!parse_response(lr.lines[i], r, &why) ||
        !check_response(r, seq, expect_for(seq), &why)) {
      if (items)
        c.fail(1, why);
      else
        c.broken("warm-up: " + why);
      continue;
    }
    if (!server_within_client(r.total_ms, client, &why))
      c.broken("request " + std::to_string(seq) + ": " + why);
    ServeSamples& s = c.serve;
    const double handler = std::max(0.0, r.total_ms - r.compile_ms - r.exec_ms);
    s.client_ms.push_back(client);
    s.server_ms.push_back(r.total_ms);
    s.wait_ms.push_back(client - r.total_ms);
    s.exec_ms.push_back(r.exec_ms);
    s.handler_ms.push_back(handler);
    if (r.disposition == "miss") {
      ++s.misses;
      s.compile_ms.push_back(r.compile_ms);
    } else {
      ++s.hits;
    }
    if (Tracer* t = c.tr()) {
      const std::int64_t end = t->to_ns(lr.received_at[i]);
      const std::int64_t start = t->to_ns(lr.sent_at[i]);
      const int root = t->add("serve.request", start, end, -1, static_cast<int>(i));
      std::int64_t at = start;
      const auto child = [&](const char* name, double ms) {
        const auto ns = static_cast<std::int64_t>(ms * 1e6);
        t->add(name, at, at + ns, root, static_cast<int>(i));
        at += ns;
      };
      child("serve.wait", client - r.total_ms);
      child("serve.compile", r.compile_ms);
      child("serve.exec", r.exec_ms);
      child("serve.handler", handler);
    }
  }
  if (!lr.io_ok) c.broken("the server closed its pipe early");
}

struct ServeRequest {
  std::string body;  ///< run_request_body(...)
  std::vector<Expect> expect;
};

/// One request per program through a fresh server: gives the serve
/// layer's figures for workloads that do not serve (traced runs only).
void serve_probe(Ctx& c, const std::vector<ServeRequest>& reqs) {
  ServeProcess server;
  std::string why;
  if (!server.start(c.args.ctdf, kServeFlags, &why))
    throw std::runtime_error("cannot start ctdf serve: " + why);
  const LoopResult lr = closed_loop(
      server, 1, static_cast<std::int64_t>(reqs.size()), 0, [&](std::int64_t s) {
        return "{\"id\": " + std::to_string(s) + ", " +
               reqs[static_cast<std::size_t>(s)].body;
      });
  absorb(c, lr, [&](std::int64_t s) { return reqs[static_cast<std::size_t>(s)].expect; },
         false);
  if (server.finish(nullptr) != 0) c.broken("ctdf serve exited uncleanly");
}

std::vector<std::string> names_of(const std::vector<Expect>& e) {
  std::vector<std::string> out;
  for (const Expect& x : e) out.push_back(x.var);
  return out;
}

// --- metrics ----------------------------------------------------------------

void end_to_end(Ctx& c) {
  auto& m = c.out.metrics;
  m.push_back({"setup_s", c.setup_s, "s"});
  // Throughput of the median round: a phase in which the host is slow
  // for less than half the run does not move it.
  m.push_back({"items_per_s",
               static_cast<double>(c.round_len) / median(c.round_s), "items/s"});
  m.push_back({"item_p50_ms", median(c.item_ms), "ms"});
  m.push_back({"sim_cycles", static_cast<double>(c.pass.sim_cycles), "cycles"});
  m.push_back({"ops_fired", static_cast<double>(c.pass.ops_fired), "firings"});
  m.push_back({"graph_ops", static_cast<double>(c.pass.exec_ops), "ops"});
  m.push_back({"peak_rss_mb", c.peak_rss_mb, "MB"});
}

void per_layer(Ctx& c) {
  const Tracer& t = *c.tracer;
  const ProgramFacts& f = c.pass;
  const ServeSamples& s = c.serve;
  auto& m = c.out.metrics;
  const auto med = [&](const char* span) { return median(t.durations_ms(span)); };
  const auto count = [](std::int64_t v) { return static_cast<double>(v); };
  m.push_back({"lang.parse.ms", med("lang.parse"), "ms"});
  m.push_back({"lang.source_kb", f.source_kb, "KB"});
  m.push_back({"cfg.build.ms", med("cfg.build"), "ms"});
  m.push_back({"cfg.loop_transform.ms", med("cfg.loop_transform"), "ms"});
  m.push_back({"cfg.dominance.ms", med("cfg.dominance"), "ms"});
  m.push_back({"cfg.control_dep.ms", med("cfg.control_dep"), "ms"});
  m.push_back({"cfg.nodes", count(f.cfg_nodes), "nodes"});
  m.push_back({"cfg.nodes_split", count(f.nodes_split), "nodes"});
  m.push_back({"translate.cover.ms", med("translate.cover"), "ms"});
  m.push_back({"translate.switch_place.ms", med("translate.switch_place"), "ms"});
  m.push_back({"translate.translate.ms", med("translate.translate"), "ms"});
  m.push_back({"translate.graph_nodes", count(f.graph_nodes), "nodes"});
  m.push_back({"translate.graph_arcs", count(f.graph_arcs), "arcs"});
  m.push_back({"translate.switches", count(f.switches), "count"});
  m.push_back({"dfg.optimize.ms", med("dfg.optimize"), "ms"});
  m.push_back({"dfg.optimize.nodes_removed", count(f.opt_removed), "nodes"});
  m.push_back({"dfg.optimize.iterations", count(f.opt_iterations), "count"});
  m.push_back({"dfg.validate.ms", med("dfg.validate"), "ms"});
  m.push_back({"core.compile.ms", med("core.compile"), "ms"});
  m.push_back({"core.cache.hits", count(s.hits), "count"});
  m.push_back({"core.cache.misses", count(s.misses), "count"});
  const std::int64_t lookups = s.hits + s.misses;
  m.push_back({"core.cache.hit_ratio",
               lookups ? static_cast<double>(s.hits) / static_cast<double>(lookups) : 0,
               "ratio"});
  m.push_back({"machine.lower.ms", med("machine.lower"), "ms"});
  m.push_back({"machine.exec_ops", count(f.exec_ops), "ops"});
  m.push_back({"machine.frame_slots", count(f.frame_slots), "slots"});
  m.push_back({"machine.blob.serialize_us", med("machine.serialize") * 1e3, "us"});
  m.push_back({"machine.blob.bytes", count(f.blob_bytes), "bytes"});
  m.push_back({"machine.execute.ms", med("machine.execute"), "ms"});
  m.push_back({"machine.execute.ns_per_firing",
               c.exec_ops > 0 ? c.exec_ns / c.exec_ops : 0, "ns"});
  m.push_back({"machine.ops_fired", count(f.ops_fired), "firings"});
  m.push_back({"machine.tokens_sent", count(f.tokens_sent), "tokens"});
  m.push_back({"machine.matches", count(f.matches), "count"});
  m.push_back({"machine.contexts_allocated", count(f.contexts), "count"});
  m.push_back({"machine.peak_live_contexts", count(f.peak_live_contexts), "count"});
  m.push_back({"machine.mem_reads", count(f.mem_reads), "count"});
  m.push_back({"machine.mem_writes", count(f.mem_writes), "count"});
  m.push_back({"machine.sim_cycles", count(f.sim_cycles), "cycles"});
  m.push_back({"machine.ops_per_cycle",
               f.sim_cycles ? static_cast<double>(f.ops_fired) /
                                  static_cast<double>(f.sim_cycles)
                            : 0,
               "ops/cycle"});
  m.push_back({"serve.client_ms", median(s.client_ms), "ms"});
  m.push_back({"serve.server_ms", median(s.server_ms), "ms"});
  m.push_back({"serve.wait_ms", median(s.wait_ms), "ms"});
  m.push_back({"serve.compile_ms", median(s.compile_ms), "ms"});
  m.push_back({"serve.exec_ms", median(s.exec_ms), "ms"});
  m.push_back({"serve.handler_ms", median(s.handler_ms), "ms"});
}

/// Reference figures on stderr: tail percentiles (not gated) and, for
/// traced runs, the layer shares of the traced time.
void report(Ctx& c) {
  const std::size_t n = c.item_ms.size();
  std::fprintf(stderr,
               "perfbench %s seed=%llu: %zu items in %.2f s, %.3f items/s in "
               "the median round; item ms p50 %.3f p90 %.3f p99 %.3f max %.3f\n",
               c.args.workload.c_str(),
               static_cast<unsigned long long>(c.args.seed), n, c.timed_s,
               static_cast<double>(c.round_len) / median(c.round_s),
               quantile(c.item_ms, 0.5), quantile(c.item_ms, 0.9),
               quantile(c.item_ms, 0.99), quantile(c.item_ms, 1.0));
  if (!c.tracer) return;
  const auto self = c.tracer->self_ms_by_layer();
  double total = 0;
  for (const auto& [layer, ms] : self) total += ms;
  std::fprintf(stderr, "layer shares %s (%% of traced self time):",
               c.args.workload.c_str());
  for (const auto& [layer, ms] : self)
    std::fprintf(stderr, " %s %.1f%%", layer.c_str(), 100.0 * ms / total);
  std::fprintf(stderr, "\n");
  if (!c.args.trace_dir.empty()) {
    const std::string path = c.args.trace_dir + "/spans-" + c.args.workload +
                             "-" + std::to_string(c.args.seed) + ".jsonl";
    if (!c.tracer->write_jsonl(path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

/// Timed phase driver: calls item(i) for i = 0, 1, ... in whole rounds
/// of `round` items until `seconds` have passed.
template <typename F>
void timed_rounds(Ctx& c, std::size_t round, F&& item) {
  const auto t0 = Clock::now();
  c.round_len = round;
  std::size_t i = 0;
  do {
    const auto r0 = Clock::now();
    for (std::size_t end = i + round; i < end; ++i) {
      const auto a = Clock::now();
      item(i);
      c.item_ms.push_back(ms_between(a, Clock::now()));
    }
    c.round_s.push_back(ms_between(r0, Clock::now()) / 1e3);
  } while (ms_between(t0, Clock::now()) < c.args.seconds * 1e3);
  c.timed_s = ms_between(t0, Clock::now()) / 1e3;
}

// --- kernels ----------------------------------------------------------------

constexpr std::size_t kKernelWarmupRounds = 2;

void run_kernels(Ctx& c) {
  const std::vector<Kernel> kernels = make_kernels(c.args.seed);
  const std::size_t n = kernels.size();
  std::vector<Compiled> progs;
  for (const Kernel& k : kernels)
    progs.push_back(c.compile(k.source, schema_options(k.flags), -1));
  // Warm-up: two rounds. The first execution of each kernel is the one
  // the checks below compare every later execution with.
  std::vector<cm::RunResult> first;
  for (std::size_t i = 0; i < kKernelWarmupRounds * n; ++i) {
    cm::RunResult r = c.execute(progs[i % n].image, -1);
    if (i >= n) continue;
    progs[i].facts.add_run(r.stats);
    c.pass += progs[i].facts;
    first.push_back(std::move(r));
  }
  c.end_setup();

  std::vector<std::int64_t> runs(n, 0);
  timed_rounds(c, n, [&](std::size_t item) {
    const std::size_t k = item % n;
    const cm::RunResult r = c.execute(progs[k].image, static_cast<int>(item));
    ++runs[k];
    if (!r.stats.completed || r.store != first[k].store)
      c.fail(1, kernels[k].name + ": execution differs from the first");
  });
  c.peak_rss_mb = peak_rss_mb_self();
  c.out.attempted = static_cast<std::int64_t>(c.item_ms.size());

  std::fprintf(stderr, "kernel p50 ms:");
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> ms;
    for (std::size_t i = k; i < c.item_ms.size(); i += n) ms.push_back(c.item_ms[i]);
    std::fprintf(stderr, " %s %.3f", kernels[k].name.c_str(), median(ms));
  }
  std::fprintf(stderr, "\n");

  for (std::size_t k = 0; k < n; ++k) {
    std::string why;
    const auto ref = ctdf::lang::interpret(progs[k].prog, kInterpFuel);
    if (!first[k].stats.completed) {
      c.fail(runs[k], kernels[k].name + ": " + first[k].stats.error);
    } else if (!check_expect(kernels[k].expect, progs[k].prog, first[k].store, &why) ||
               !store_matches_interp(ref, first[k].store, &why)) {
      c.fail(runs[k], kernels[k].name + ": " + why);
    }
  }
  if (c.tracer) {
    std::vector<ServeRequest> reqs;
    for (const Kernel& k : kernels)
      reqs.push_back({run_request_body(k.source, k.flags, names_of(k.expect)),
                      k.expect});
    serve_probe(c, reqs);
  }
}

// --- compile-stream ---------------------------------------------------------

/// Distinct programs of compile-stream: sizes spread log-uniformly from
/// about 100 to a few thousand graph nodes, in a fixed scrambled order.
constexpr std::size_t kStreamPrograms = 40;
constexpr int kStreamWarmup = 8;

std::vector<GenProgram> stream_programs(std::uint64_t seed) {
  std::vector<GenProgram> out;
  for (std::size_t p = 0; p < kStreamPrograms; ++p) {
    const std::size_t rank = (p * 17) % kStreamPrograms;
    const double f = static_cast<double>(rank) / (kStreamPrograms - 1);
    const int units = static_cast<int>(std::lround(3.0 * std::pow(45.0, f)));
    out.push_back(generate_program(100 + p, seed, units));
  }
  return out;
}

void run_compile_stream(Ctx& c) {
  const std::vector<GenProgram> programs = stream_programs(c.args.seed);
  const std::size_t n = programs.size();
  const auto topts = schema_options(kGenFlags);
  std::vector<std::optional<ctdf::lang::Store>> first(n);
  std::vector<std::int64_t> runs(n, 0);
  std::vector<ProgramFacts> facts(n);

  const auto item = [&](std::size_t i, int span_item) {
    const std::size_t p = i % n;
    const Compiled cp = c.compile(programs[p].source, topts, span_item);
    const cm::RunResult r = c.execute(cp.image, span_item);
    ++runs[p];
    if (!r.stats.completed) {
      c.fail(1, programs[p].name + ": " + r.stats.error);
    } else if (!first[p]) {
      first[p] = r.store;
      facts[p] = cp.facts;
      facts[p].add_run(r.stats);
    } else if (r.store != *first[p]) {
      c.fail(1, programs[p].name + ": store differs between runs");
    }
  };
  for (int i = 0; i < kStreamWarmup; ++i) item(static_cast<std::size_t>(i), -1);
  std::fill(runs.begin(), runs.end(), 0);
  if (c.out.failed > 0) {
    c.out.failed = 0;
    c.broken("warm-up items failed their checks");
  }
  c.end_setup();

  timed_rounds(c, n, [&](std::size_t i) { item(i, static_cast<int>(i)); });
  c.peak_rss_mb = peak_rss_mb_self();
  c.out.attempted = static_cast<std::int64_t>(c.item_ms.size());

  for (std::size_t p = 0; p < n; ++p) {
    c.pass += facts[p];
    if (!first[p]) continue;  // its failures are counted already
    std::string why;
    const auto ref = ctdf::lang::interpret(ctdf::core::parse(programs[p].source),
                                           kInterpFuel);
    if (!store_matches_interp(ref, *first[p], &why))
      c.fail(runs[p], programs[p].name + ": " + why);
  }
  if (c.tracer) {
    std::fprintf(stderr, "optimize scaling (graph nodes: median optimize ms):");
    std::vector<std::pair<std::int64_t, double>> rows;
    const auto& spans = c.tracer->spans();
    for (std::size_t p = 0; p < n; ++p) {
      std::vector<double> ms;
      for (const Span& s : spans)
        if (s.name == "dfg.optimize" && s.item >= 0 &&
            static_cast<std::size_t>(s.item) % n == p)
          ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      rows.emplace_back(facts[p].graph_nodes, median(ms));
    }
    std::sort(rows.begin(), rows.end());
    for (const auto& [nodes, ms] : rows)
      std::fprintf(stderr, " %lld:%.2f", static_cast<long long>(nodes), ms);
    std::fprintf(stderr, "\n");

    std::vector<ServeRequest> reqs;
    for (const GenProgram& g : programs) {
      std::string why;
      reqs.push_back({run_request_body(g.source, kGenFlags, g.names),
                      expected_values(g, &why)});
    }
    serve_probe(c, reqs);
  }
}

// --- serve-mix --------------------------------------------------------------

/// One round of serve-mix: each hot program once, a fresh program after
/// every kHotPerFresh hot ones, and two long kernels.
constexpr std::size_t kHot = 48;
constexpr std::size_t kFresh = 6;
constexpr std::size_t kHotPerFresh = kHot / kFresh;
constexpr int kWindow = 4;
const char* const kLongKernels[] = {"histogram", "reduction"};

struct Slot {
  enum Kind { kHotRun, kFreshRun, kKernelRun } kind;
  std::size_t index;
};

std::vector<Slot> mix_round() {
  std::vector<Slot> round;
  for (std::size_t h = 0; h < kHot; ++h) {
    round.push_back({Slot::kHotRun, h});
    if ((h + 1) % kHotPerFresh == 0)
      round.push_back({Slot::kFreshRun, h / kHotPerFresh});
    if (h == kHot / 4 || h == 3 * kHot / 4)
      round.push_back({Slot::kKernelRun, h == kHot / 4 ? 0u : 1u});
  }
  return round;
}

void run_serve_mix(Ctx& c) {
  std::vector<GenProgram> hot, fresh;
  for (std::size_t h = 0; h < kHot; ++h)
    hot.push_back(generate_program(1000 + h, c.args.seed, 2 + static_cast<int>(h % 5)));
  for (std::size_t f = 0; f < kFresh; ++f)
    fresh.push_back(generate_program(2000 + f, c.args.seed, 12 + 3 * static_cast<int>(f)));
  std::vector<Kernel> kernels;
  for (const Kernel& k : make_kernels(c.args.seed))
    for (const char* name : kLongKernels)
      if (k.name == name) kernels.push_back(k);

  std::vector<std::vector<Expect>> hot_expect(kHot), fresh_expect(kFresh);
  checking(c, [&] {
    std::string why;
    for (std::size_t h = 0; h < kHot; ++h)
      if ((hot_expect[h] = expected_values(hot[h], &why)).empty()) c.broken(why);
    for (std::size_t f = 0; f < kFresh; ++f)
      if ((fresh_expect[f] = expected_values(fresh[f], &why)).empty()) c.broken(why);
  });
  std::vector<std::string> hot_body, kernel_body;
  for (const GenProgram& g : hot)
    hot_body.push_back(run_request_body(g.source, kGenFlags, g.names));
  for (const Kernel& k : kernels)
    kernel_body.push_back(run_request_body(k.source, k.flags, names_of(k.expect)));

  const std::vector<Slot> round = mix_round();
  const auto len = static_cast<std::int64_t>(round.size());
  // Fresh programs carry a tag unique to the request (a new cache key);
  // `base` keeps warm-up and timed tags apart.
  std::int64_t base = 0;
  const auto make_line = [&](std::int64_t seq) {
    const Slot& s = round[static_cast<std::size_t>(seq % len)];
    std::string line = "{\"id\": " + std::to_string(seq) + ", ";
    switch (s.kind) {
      case Slot::kHotRun: return line + hot_body[s.index];
      case Slot::kKernelRun: return line + kernel_body[s.index];
      case Slot::kFreshRun: break;
    }
    const GenProgram g = with_tag(fresh[s.index], 1000 + base + seq);
    return line + run_request_body(g.source, kGenFlags, g.names);
  };
  const auto expect_for = [&](std::int64_t seq) {
    const Slot& s = round[static_cast<std::size_t>(seq % len)];
    switch (s.kind) {
      case Slot::kHotRun: return hot_expect[s.index];
      case Slot::kKernelRun: return kernels[s.index].expect;
      case Slot::kFreshRun: break;
    }
    std::vector<Expect> e = fresh_expect[s.index];
    for (Expect& x : e)
      if (x.var == "tag") x.values = {1000 + base + seq};
    return e;
  };

  ServeProcess server;
  std::string why;
  if (!server.start(c.args.ctdf, kServeFlags, &why))
    throw std::runtime_error("cannot start ctdf serve: " + why);
  // Warm-up: one round, which compiles every hot program and kernel.
  const LoopResult warm = closed_loop(server, kWindow, len, 0, make_line);
  checking(c, [&] {
    Ctx scratch(c.args);
    absorb(scratch, warm, expect_for, false);
    if (!scratch.out.correct) c.broken("warm-up round failed its checks");
  });
  base = len;
  c.end_setup();

  const LoopResult lr = closed_loop(server, kWindow, len, c.args.seconds, make_line);
  const int status = server.finish(&c.peak_rss_mb);
  c.timed_s = lr.elapsed_s;
  for (std::size_t i = 0; i < lr.lines.size(); ++i) c.item_ms.push_back(lr.latency_ms(i));
  // A round ends when its last response arrives.
  c.round_len = round.size();
  for (std::size_t end = c.round_len; end <= lr.lines.size(); end += c.round_len)
    c.round_s.push_back(ms_between(end == c.round_len ? lr.sent_at.front()
                                                      : lr.received_at[end - c.round_len - 1],
                                   lr.received_at[end - 1]) / 1e3);
  c.out.attempted = static_cast<std::int64_t>(lr.sent_at.size());
  if (lr.lines.size() < lr.sent_at.size())
    c.fail(c.out.attempted - static_cast<std::int64_t>(lr.lines.size()),
           "requests without a response");
  if (status != 0) c.broken("ctdf serve exited with status " + std::to_string(status));
  absorb(c, lr, expect_for, true);

  // Head-of-line reference: hot requests sent while a kernel was ahead
  // of them in the window, against the other hot requests.
  std::vector<double> behind, clear;
  for (std::size_t i = 0; i < lr.lines.size(); ++i) {
    if (round[i % round.size()].kind != Slot::kHotRun) continue;
    bool blocked = false;
    for (std::size_t b = 1; b < kWindow && b <= i; ++b)
      blocked |= round[(i - b) % round.size()].kind == Slot::kKernelRun;
    (blocked ? behind : clear).push_back(lr.latency_ms(i));
  }
  std::fprintf(stderr,
               "head-of-line: hot requests behind a kernel p50 %.3f ms (%zu), "
               "others p50 %.3f ms (%zu); cache hit share %.4f\n",
               median(behind), behind.size(), median(clear), clear.size(),
               static_cast<double>(c.serve.hits) /
                   static_cast<double>(std::max<std::int64_t>(1, c.serve.hits + c.serve.misses)));

  // The counts of one pass over the distinct programs, compiled and run
  // through the library; each must agree with what the server reported.
  const auto facts_of = [&](const std::string& source, const std::vector<std::string>& flags,
                            std::int64_t seq) {
    const Compiled cp = c.compile(source, schema_options(flags), -1);
    const cm::RunResult r = c.execute(cp.image, -1);
    ProgramFacts f = cp.facts;
    f.add_run(r.stats);
    Response resp;
    std::string why;
    if (parse_response(lr.lines.at(static_cast<std::size_t>(seq)), resp, nullptr) &&
        !runs_agree(resp, f, &why))
      c.broken("server and library disagree on the run of request " +
               std::to_string(seq) + ": " + why);
    c.pass += f;
  };
  if (lr.lines.size() < round.size()) {
    c.broken("the timed phase did not finish one round");
    return;
  }
  for (std::size_t i = 0; i < round.size(); ++i) {
    const Slot& s = round[i];
    const auto seq = static_cast<std::int64_t>(i);
    if (s.kind == Slot::kHotRun) facts_of(hot[s.index].source, kGenFlags, seq);
    if (s.kind == Slot::kFreshRun) facts_of(fresh[s.index].source, kGenFlags, seq);
    if (s.kind == Slot::kKernelRun)
      facts_of(kernels[s.index].source, kernels[s.index].flags, seq);
  }
}

}  // namespace

Outcome run_workload(const Args& args) {
  const CpuRotation cpus;  // the whole run, set-up included
  Ctx c(args);
  if (args.workload == "kernels")
    run_kernels(c);
  else if (args.workload == "compile-stream")
    run_compile_stream(c);
  else if (args.workload == "serve-mix")
    run_serve_mix(c);
  else
    throw std::runtime_error("unknown workload: " + args.workload);
  if (c.out.failed > 0) c.out.correct = false;
  if (c.tracer)
    per_layer(c);
  else
    end_to_end(c);
  report(c);
  return c.out;
}

}  // namespace perfbench
