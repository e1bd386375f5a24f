#include "generator.hpp"

#include "common.hpp"
#include "lang/interp.hpp"

namespace perfbench {

namespace {

class Gen {
 public:
  Gen(std::uint64_t shape_seed, std::uint64_t value_seed, int units,
      std::int64_t tag)
      : shape_(mix64(shape_seed ^ 0x5ba9e0f3c2d1ULL)),
        value_(mix64(value_seed * 0x9e3779b97f4a7c15ULL + shape_seed)),
        units_(units),
        tag_(tag) {}

  GenProgram run() {
    scalars_ = static_cast<int>(shape_.in(4, 9));
    const int arrays = static_cast<int>(shape_.in(1, 3));
    for (int i = 0; i < arrays; ++i) array_sizes_.push_back(shape_.in(4, 24));

    for (int u = 0; u < units_; ++u) top_unit();

    GenProgram p;
    std::string head = "var ";
    for (int i = 0; i < scalars_; ++i) {
      head += "s" + std::to_string(i) + ", ";
      p.names.push_back("s" + std::to_string(i));
    }
    head += "t, tag";
    p.names.insert(p.names.end(), {"t", "tag"});
    for (int i = 0; i < counters_; ++i) {
      head += ", k" + std::to_string(i);
      p.names.push_back("k" + std::to_string(i));
    }
    head += ";\narray inp[" + std::to_string(scalars_) + "], ctl[4]";
    p.names.insert(p.names.end(), {"inp", "ctl"});
    for (std::size_t i = 0; i < array_sizes_.size(); ++i) {
      head += ", a" + std::to_string(i) + "[" +
              std::to_string(array_sizes_[i]) + "]";
      p.names.push_back("a" + std::to_string(i));
    }
    head += ";\n";
    if (shape_.chance(40)) {
      // May-alias pairs among the data scalars, some sharing storage.
      const int pairs = static_cast<int>(shape_.in(1, 2));
      for (int i = 0; i < pairs; ++i) {
        const auto a = shape_.in(0, scalars_ - 1);
        const auto b = (a + shape_.in(1, scalars_ - 1)) % scalars_;
        head += "alias s" + std::to_string(a) + " s" + std::to_string(b) + ";\n";
        if (shape_.chance(50))
          head += "bind s" + std::to_string(a) + " s" + std::to_string(b) + ";\n";
      }
    }
    head += "  tag := " + std::to_string(tag_) + ";\n";
    for (int i = 0; i < 4; ++i)
      head += "  ctl[" + std::to_string(i) + "] := " +
              std::to_string(shape_.in(2, 50)) + ";\n";
    for (int i = 0; i < scalars_; ++i)
      head += "  inp[" + std::to_string(i) + "] := " + constant() + ";\n";
    head += "  t := ctl[0];\n";
    for (int i = 0; i < scalars_; ++i)
      head += "  s" + std::to_string(i) + " := inp[" + std::to_string(i) +
              "];\n";
    p.source = head + body_;
    return p;
  }

 private:
  /// A data constant: value seed only, never 0 or 1 (so no identity or
  /// absorbing fold can depend on it).
  std::string constant() { return std::to_string(value_.in(2, 999)); }

  std::string scalar() {
    return "s" + std::to_string(shape_.in(0, scalars_ - 1));
  }

  /// A data expression that reads at least one variable, so no part of
  /// it folds to a constant.
  std::string data_expr(int depth) {
    if (depth <= 0 || shape_.chance(30)) {
      const auto r = shape_.in(0, 99);
      if (r < 60 || (r >= 85 && live_.empty())) return scalar();
      if (r < 85) {
        const auto a = shape_.in(0, static_cast<std::int64_t>(array_sizes_.size()) - 1);
        return "a" + std::to_string(a) + "[" + scalar() + "]";
      }
      return live_[static_cast<std::size_t>(
          shape_.in(0, static_cast<std::int64_t>(live_.size()) - 1))];
    }
    static const char* kOps[] = {"+", "-", "*", "<", "==", "+", "-", "*"};
    const auto r = shape_.in(0, 9);
    if (r == 8) return "(" + data_expr(depth - 1) + " % " + constant() + ")";
    if (r == 9) return "(" + data_expr(depth - 1) + " / " + constant() + ")";
    const std::string op = kOps[r];
    const std::string lhs = data_expr(depth - 1);
    const std::string rhs = shape_.chance(40) ? constant() : data_expr(depth - 1);
    return shape_.chance(50) ? "(" + lhs + " " + op + " " + rhs + ")"
                             : "(" + rhs + " " + op + " " + lhs + ")";
  }

  /// A branch condition on control state only: the innermost loop
  /// counter, or t (loaded from the shape-seeded control array).
  std::string condition() {
    const auto m = shape_.in(2, 5);
    const auto r = shape_.in(1, m - 1);
    const std::string v = !live_.empty() && shape_.chance(70) ? live_.back() : "t";
    return "(" + v + " + " + std::to_string(shape_.in(0, 7)) + ") % " +
           std::to_string(m) + " < " + std::to_string(r);
  }

  void line(const std::string& s) {
    body_ += std::string(static_cast<std::size_t>(2 * indent_), ' ') + s + "\n";
  }

  void assignment() {
    if (shape_.chance(25)) {
      const auto a = shape_.in(0, static_cast<std::int64_t>(array_sizes_.size()) - 1);
      line("a" + std::to_string(a) + "[" + data_expr(1) + "] := " +
           data_expr(2) + ";");
    } else {
      line(scalar() + " := " + data_expr(3) + ";");
    }
  }

  std::string counter() { return "k" + std::to_string(counters_++); }

  void block(int depth, int n) {
    ++indent_;
    for (int i = 0; i < n; ++i) structured(depth);
    --indent_;
  }

  void structured(int depth) {
    const auto r = shape_.in(0, 99);
    if (depth > 0 && r < 20) {
      line("if " + condition() + " {");
      block(depth - 1, static_cast<int>(shape_.in(1, 3)));
      if (shape_.chance(50)) {
        line("} else {");
        block(depth - 1, static_cast<int>(shape_.in(1, 2)));
      }
      line("}");
    } else if (depth > 0 && r < 35) {
      while_loop(depth, 3);
    } else {
      assignment();
    }
  }

  void while_loop(int depth, std::int64_t max_trip) {
    const std::string k = counter();
    line(k + " := 0;");
    line("while " + k + " < " + std::to_string(shape_.in(2, max_trip)) + " {");
    live_.push_back(k);
    block(depth - 1, static_cast<int>(shape_.in(1, 4)));
    ++indent_;
    line(k + " := " + k + " + 1;");
    --indent_;
    live_.pop_back();
    line("}");
  }

  std::string label() { return "L" + std::to_string(labels_++); }

  void top_unit() {
    const auto r = shape_.in(0, 99);
    indent_ = 1;
    if (r < 35) {
      for (auto n = shape_.in(1, 3); n > 0; --n) assignment();
    } else if (r < 50) {
      structured(2);
    } else if (r < 70) {
      while_loop(2, 5);
    } else if (r < 80) {
      // Goto loop: `Lh: body; k := k + 1; if k < T then goto Lh ...`.
      const std::string k = counter(), head = label(), exit = label();
      line(k + " := 0;");
      live_.push_back(k);
      body_ += head + ":\n";
      for (auto n = shape_.in(1, 3); n > 0; --n) structured(1);
      line(k + " := " + k + " + 1;");
      line("if " + k + " < " + std::to_string(shape_.in(2, 5)) + " then goto " +
           head + " else goto " + exit + ";");
      live_.pop_back();
      body_ += exit + ": skip;\n";
    } else if (r < 88) {
      // Two-entry (irreducible) loop: branch into its middle.
      const std::string k = counter(), l1 = label(), l2 = label(),
                        exit = label();
      line(k + " := 0;");
      line("if " + condition() + " then goto " + l2 + " else goto " + l1 + ";");
      live_.push_back(k);
      body_ += l1 + ":\n";
      assignment();
      body_ += l2 + ":\n";
      assignment();
      line(k + " := " + k + " + 1;");
      line("if " + k + " < " + std::to_string(shape_.in(2, 5)) + " then goto " +
           l1 + " else goto " + exit + ";");
      live_.pop_back();
      body_ += exit + ": skip;\n";
    } else if (r < 95) {
      // Forward skip over a few statements.
      const std::string skip = label(), cont = label();
      line("if " + condition() + " then goto " + skip + " else goto " + cont +
           ";");
      body_ += cont + ":\n";
      for (auto n = shape_.in(1, 3); n > 0; --n) structured(1);
      body_ += skip + ": skip;\n";
    } else {
      line("t := t + " + std::to_string(shape_.in(1, 9)) + ";");
    }
  }

  Rng shape_;
  Rng value_;
  int units_;
  std::int64_t tag_;
  int scalars_ = 0;
  std::vector<std::int64_t> array_sizes_;
  int counters_ = 0;
  int labels_ = 0;
  int indent_ = 1;
  std::vector<std::string> live_;  ///< counters of the enclosing loops
  std::string body_;
};

}  // namespace

GenProgram generate_program(std::uint64_t shape_seed, std::uint64_t value_seed,
                            int units, std::int64_t tag) {
  GenProgram p = Gen(shape_seed, value_seed, units, tag).run();
  p.name = "gen-" + std::to_string(shape_seed);
  return p;
}

GenProgram with_tag(const GenProgram& p, std::int64_t tag) {
  GenProgram out = p;
  const std::size_t at = out.source.find("  tag := ");
  const std::size_t semi = out.source.find(';', at);
  out.source.replace(at, semi - at, "  tag := " + std::to_string(tag));
  return out;
}

std::vector<Expect> expected_values(const GenProgram& p, std::string* why) {
  const ctdf::lang::Program prog = ctdf::core::parse(p.source);
  const ctdf::lang::InterpResult ref = ctdf::lang::interpret(prog, kInterpFuel);
  if (!ref.completed) {
    if (why) *why = p.name + ": reference interpreter ran out of fuel";
    return {};
  }
  std::vector<Expect> out;
  for (const std::string& name : p.names) {
    const auto v = prog.symbols.lookup(name);
    Expect e{name, prog.symbols.is_array(*v), {}};
    const std::int64_t n = e.array ? prog.symbols.info(*v).array_size : 1;
    for (std::int64_t i = 0; i < n; ++i)
      e.values.push_back(ctdf::lang::load_var(prog, ref.store, *v, i));
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace perfbench
