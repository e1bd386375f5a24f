// The benchmark's own tests: every output check and cross-check accepts
// the right value and rejects a wrong one, and the generator keeps its
// promise that the value seed never changes a program's graph or run
// counts.
//
//   perfbench_selftest <path of ctdf>     (python3 perfbench/run.py --selftest)
#include <cstdio>
#include <string>

#include "common.hpp"
#include "generator.hpp"
#include "kernels.hpp"
#include "machine/flags.hpp"
#include "serve_client.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

ctdf::machine::RunResult compile_and_run(const std::string& source,
                                         const std::vector<std::string>& flags,
                                         Compiled* out = nullptr) {
  Compiled c = compile_program(source, schema_options(flags), nullptr, -1);
  ctdf::machine::RunResult r = execute_image(
      c.image, ctdf::machine::default_cli_machine_options(), nullptr, -1);
  if (out) *out = std::move(c);
  return r;
}

void kernel_checks() {
  for (const Kernel& k : make_kernels(3)) {
    Compiled c;
    const auto r = compile_and_run(k.source, k.flags, &c);
    CHECK(r.stats.completed);
    const auto ref = ctdf::lang::interpret(c.prog, kInterpFuel);
    std::string why;
    CHECK(check_expect(k.expect, c.prog, r.store, &why));
    CHECK(store_matches_interp(ref, r.store, &why));

    // A wrong independent value is caught.
    std::vector<Expect> wrong = k.expect;
    wrong.back().values.back() += 1;
    CHECK(!check_expect(wrong, c.prog, r.store, &why));

    // A wrong cell of the machine's store is caught by both checks.
    ctdf::lang::Store bad = r.store;
    const auto v = c.prog.symbols.lookup(k.expect.back().var);
    const auto layout = ctdf::lang::StorageLayout(c.prog.symbols);
    bad.cells[layout.base(*v) + k.expect.back().values.size() - 1] += 7;
    CHECK(!check_expect(k.expect, c.prog, bad, &why));
    CHECK(!store_matches_interp(ref, bad, &why));
  }
}

void interpreter_checks() {
  const std::string loop = "var i;\n  while i >= 0 { i := i + 1; }\n";
  const auto prog = ctdf::core::parse(loop);
  const auto ref = ctdf::lang::interpret(prog, 1000);
  std::string why;
  CHECK(!ref.completed);
  CHECK(!store_matches_interp(ref, ref.store, &why));  // out of fuel fails

  ctdf::lang::Store shorter = ctdf::lang::interpret(
      ctdf::core::parse("var i;\n  i := 1;\n")).store;
  const auto ok = ctdf::lang::interpret(ctdf::core::parse("var i, j;\n  i := 1;\n"));
  CHECK(!store_matches_interp(ok, shorter, &why));  // size mismatch fails
}

void generator_checks() {
  for (std::uint64_t shape = 1; shape <= 12; ++shape) {
    const GenProgram a = generate_program(shape, 1, 20);
    const GenProgram b = generate_program(shape, 2, 20);
    CHECK(a.source != b.source);  // the value seed changes the inputs
    Compiled ca, cb;
    const auto ra = compile_and_run(a.source, {"--mem-elim", "--opt=all"}, &ca);
    const auto rb = compile_and_run(b.source, {"--mem-elim", "--opt=all"}, &cb);
    CHECK(ra.stats.completed && rb.stats.completed);
    // ... but not the graph or the simulated counts.
    CHECK(ca.facts.exec_ops == cb.facts.exec_ops);
    CHECK(ra.stats.cycles == rb.stats.cycles);
    CHECK(ra.stats.ops_fired == rb.stats.ops_fired);

    std::string why;
    const auto ref = ctdf::lang::interpret(ca.prog, kInterpFuel);
    CHECK(store_matches_interp(ref, ra.store, &why));
    ctdf::lang::Store bad = ra.store;
    bad.cells[0] ^= 1;
    CHECK(!store_matches_interp(ref, bad, &why));

    // Tags: a fresh cache key, the same expected values but the tag.
    const GenProgram t = with_tag(a, 77);
    CHECK(t.source != a.source);
    const auto ea = expected_values(a, &why);
    const auto et = expected_values(t, &why);
    CHECK(ea.size() == et.size() && !ea.empty());
    for (std::size_t i = 0; i < ea.size() && i < et.size(); ++i)
      CHECK((ea[i].var == "tag") == (ea[i].values != et[i].values));
  }
}

void response_checks(const std::string& ctdf) {
  const std::string line =
      R"({"id": 3, "op": "run", "ok": true, "cache": {"disposition": "miss"}, )"
      R"("stage_nanos": {"parse": 5, "total": 2000000}, "exec_nanos": 1000000, )"
      R"("total_nanos": 4000000, "stats": {"cycles": 12, "ops_fired": 40}, )"
      R"("store": {"x": -9223372036854775807, "a": [1, 2]}, "error": null})";
  const std::vector<Expect> expect = {{"x", false, {-9223372036854775807LL}},
                                      {"a", true, {1, 2}}};
  Response r;
  std::string why;
  CHECK(parse_response(line, r, &why));
  CHECK(r.compile_ms == 2.0 && r.exec_ms == 1.0 && r.total_ms == 4.0);
  CHECK(r.cycles == 12 && r.ops_fired == 40 && r.disposition == "miss");
  CHECK(check_response(r, 3, expect, &why));
  CHECK(!check_response(r, 4, expect, &why));  // out of order

  std::vector<Expect> wrong = expect;
  wrong[0].values[0] -= 1;  // differs only beyond double precision
  CHECK(!check_response(r, 3, wrong, &why));
  wrong = expect;
  wrong[1].values.push_back(3);
  CHECK(!check_response(r, 3, wrong, &why));
  CHECK(!check_response(r, 3, {{"missing", false, {0}}}, &why));

  Response failed;
  CHECK(parse_response(R"({"id": 3, "ok": false, "store": null, )"
                       R"("error": {"kind": "machine", "message": "x"}})",
                       failed, &why));
  CHECK(!check_response(failed, 3, {}, &why));
  CHECK(!parse_response(R"({"id": 3, "ok": true, "store": {"x": 1)", r, &why));

  // Through a live server: the right values pass, a wrong one fails.
  const GenProgram g = generate_program(5, 9, 10);
  const auto e = expected_values(g, &why);
  ServeProcess server;
  CHECK(server.start(ctdf, {"--workers=2"}, &why));
  const LoopResult lr = closed_loop(server, 2, 2, 0, [&](std::int64_t s) {
    return "{\"id\": " + std::to_string(s) + ", " +
           run_request_body(g.source, {"--mem-elim", "--opt=all"}, g.names);
  });
  CHECK(server.finish(nullptr) == 0);
  CHECK(lr.io_ok && lr.lines.size() == 2);
  for (std::size_t i = 0; i < lr.lines.size(); ++i) {
    Response got;
    CHECK(parse_response(lr.lines[i], got, &why));
    CHECK(check_response(got, static_cast<std::int64_t>(i), e, &why));
    CHECK(got.total_ms <= lr.latency_ms(i));
    std::vector<Expect> off = e;
    off.front().values.front() += 1;
    CHECK(!check_response(got, static_cast<std::int64_t>(i), off, &why));
  }
}

void cross_checks() {
  std::string why;
  // Stage records against the outside-timed compile.
  Compiled c = compile_program(generate_program(4, 1, 30).source,
                               schema_options({"--mem-elim", "--opt=all"}),
                               nullptr, -1);
  CHECK(c.stage_nanos_sum > 0);
  CHECK(stages_within_compile(c, &why));
  c.stage_nanos_sum = static_cast<std::int64_t>(c.compile_ms * 1e6) + 1000;
  CHECK(!stages_within_compile(c, &why));

  // Server time against client latency.
  CHECK(server_within_client(3.9, 4.0, &why));
  CHECK(!server_within_client(4.1, 4.0, &why));

  // Server run against the library's run of the same program.
  Response r;
  r.cycles = 12;
  r.ops_fired = 40;
  ProgramFacts f;
  f.sim_cycles = 12;
  f.ops_fired = 40;
  CHECK(runs_agree(r, f, &why));
  f.sim_cycles = 13;
  CHECK(!runs_agree(r, f, &why));
  f.sim_cycles = 12;
  f.ops_fired = 39;
  CHECK(!runs_agree(r, f, &why));
}

void trace_checks() {
  Tracer t;
  const int parent = t.add("core.compile", 0, 100'000'000, -1, 0);
  t.add("dfg.optimize", 10'000'000, 40'000'000, parent, 0);
  t.add("cfg.build", 40'000'000, 50'000'000, parent, 0);
  const auto self = t.self_ms_by_layer();
  CHECK(self.at("core") == 60.0);
  CHECK(self.at("dfg") == 30.0);
  CHECK(self.at("cfg") == 10.0);
  CHECK(t.durations_ms("dfg.optimize").size() == 1);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <path of ctdf>\n");
    return 2;
  }
  kernel_checks();
  interpreter_checks();
  generator_checks();
  response_checks(argv[1]);
  cross_checks();
  trace_checks();
  if (failures) {
    std::fprintf(stderr, "perfbench selftest: %d failures\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
