#include "kernels.hpp"

#include <utility>

#include "common.hpp"

namespace perfbench {

namespace {

// Problem sizes, chosen so one execution on the default machine takes
// between a few and a few tens of milliseconds, spread so the median
// item falls inside one kernel's cluster (see README.md).
constexpr std::int64_t kMatmulN = 14;
constexpr std::int64_t kStencilN = 38;
constexpr std::int64_t kScanN = 4700;
constexpr std::int64_t kWavefrontN = 40;
constexpr std::int64_t kIstructN = 3300;
constexpr std::int64_t kHistN = 4000;
constexpr std::int64_t kReduceN = 4000;

/// The in-program pseudo-random sequence, mirrored here.
std::int64_t lcg(std::int64_t v) { return (v * 1103 + 12345) % 65536; }
constexpr const char* kLcg = "v := (v * 1103 + 12345) % 65536;";

std::string subst(std::string text,
                  const std::vector<std::pair<std::string, std::int64_t>>& vars) {
  for (const auto& [key, value] : vars) {
    const std::string v = std::to_string(value);
    for (std::size_t at = text.find(key); at != std::string::npos;
         at = text.find(key, at + v.size()))
      text.replace(at, key.size(), v);
  }
  return text;
}

std::string with_lcg(std::string text) {
  for (std::size_t at = text.find("$LCG"); at != std::string::npos;
       at = text.find("$LCG"))
    text.replace(at, 4, kLcg);
  return text;
}

/// Start value of a kernel's sequence: seed-dependent, never 0 or 1.
std::int64_t start_value(std::uint64_t seed, std::uint64_t salt) {
  return 2 + static_cast<std::int64_t>(mix64(seed * 0x100000001b3ULL ^ salt) %
                                       65000);
}

Kernel matmul(std::uint64_t seed) {
  const std::int64_t n = kMatmulN, v0 = start_value(seed, 1);
  Kernel k{"matmul", {"--mem-elim", "--opt=all"}, "", {}};
  k.source = with_lcg(subst(R"(// matmul: c := a * b, N x N, row-major flat arrays.
var i, j, k, s, v;
array a[$NN], b[$NN], c[$NN];
  v := $V0;
  i := 0;
  while i < $NN {
    $LCG
    a[i] := v % 201 - 100;
    $LCG
    b[i] := v % 201 - 100;
    i := i + 1;
  }
  i := 0;
  while i < $N {
    j := 0;
    while j < $N {
      s := 0;
      k := 0;
      while k < $N {
        s := s + a[i * $N + k] * b[k * $N + j];
        k := k + 1;
      }
      c[i * $N + j] := s;
      j := j + 1;
    }
    i := i + 1;
  }
)", {{"$NN", n * n}, {"$N", n}, {"$V0", v0}}));
  std::vector<std::int64_t> a(n * n), b(n * n), c(n * n);
  std::int64_t v = v0;
  for (std::int64_t i = 0; i < n * n; ++i) {
    v = lcg(v);
    a[i] = v % 201 - 100;
    v = lcg(v);
    b[i] = v % 201 - 100;
  }
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t s = 0;
      for (std::int64_t kk = 0; kk < n; ++kk) s += a[i * n + kk] * b[kk * n + j];
      c[i * n + j] = s;
    }
  k.expect = {{"c", true, c}};
  return k;
}

Kernel stencil2d(std::uint64_t seed) {
  const std::int64_t n = kStencilN, v0 = start_value(seed, 2);
  Kernel k{"stencil2d", {"--mem-elim", "--opt=all", "--fig14=b"}, "", {}};
  k.source = with_lcg(subst(R"(// 2D five-point stencil over an N x N grid (interior only);
// b's stores are parallelized (Fig. 14).
var i, j, v;
array a[$NN], b[$NN];
  v := $V0;
  i := 0;
  while i < $NN {
    $LCG
    a[i] := v % 1000;
    i := i + 1;
  }
  i := 1;
  while i < $N1 {
    j := 1;
    while j < $N1 {
      b[i * $N + j] := 4 * a[i * $N + j] - a[i * $N + j - $N]
                     - a[i * $N + j + $N] - a[i * $N + j - 1]
                     - a[i * $N + j + 1];
      j := j + 1;
    }
    i := i + 1;
  }
)", {{"$NN", n * n}, {"$N1", n - 1}, {"$N", n}, {"$V0", v0}}));
  std::vector<std::int64_t> a(n * n), b(n * n, 0);
  std::int64_t v = v0;
  for (auto& x : a) x = (v = lcg(v)) % 1000;
  for (std::int64_t i = 1; i < n - 1; ++i)
    for (std::int64_t j = 1; j < n - 1; ++j) {
      const std::int64_t c = i * n + j;
      b[c] = 4 * a[c] - a[c - n] - a[c + n] - a[c - 1] - a[c + 1];
    }
  k.expect = {{"b", true, b}};
  return k;
}

Kernel scan(std::uint64_t seed) {
  const std::int64_t n = kScanN, v0 = start_value(seed, 3);
  Kernel k{"scan", {"--mem-elim", "--opt=all"}, "", {}};
  k.source = with_lcg(subst(R"(// Inclusive prefix sum: p[i] = p[i-1] + a[i], through memory.
var i, v;
array a[$N], p[$N];
  v := $V0;
  i := 0;
  while i < $N {
    $LCG
    a[i] := v % 1000;
    i := i + 1;
  }
  p[0] := a[0];
  i := 1;
  while i < $N {
    p[i] := p[i - 1] + a[i];
    i := i + 1;
  }
)", {{"$N", n}, {"$V0", v0}}));
  std::vector<std::int64_t> a(n), p(n);
  std::int64_t v = v0;
  for (auto& x : a) x = (v = lcg(v)) % 1000;
  p[0] = a[0];
  for (std::int64_t i = 1; i < n; ++i) p[i] = p[i - 1] + a[i];
  k.expect = {{"p", true, p}};
  return k;
}

Kernel wavefront(std::uint64_t seed) {
  const std::int64_t n = kWavefrontN, v0 = start_value(seed, 4);
  Kernel k{"wavefront", {"--mem-elim", "--opt=all"}, "", {}};
  k.source = with_lcg(subst(R"(// Wavefront recurrence: each cell from its north, west and
// north-west neighbours; first row and column seeded.
var i, j, v;
array w[$NN];
  v := $V0;
  i := 0;
  while i < $N {
    $LCG
    w[i] := v % 1000;
    $LCG
    w[i * $N] := v % 1000;
    i := i + 1;
  }
  i := 1;
  while i < $N {
    j := 1;
    while j < $N {
      w[i * $N + j] := (w[i * $N + j - $N] + w[i * $N + j - 1]
                        + w[i * $N + j - $N1]) % 100003;
      j := j + 1;
    }
    i := i + 1;
  }
)", {{"$NN", n * n}, {"$N1", n + 1}, {"$N", n}, {"$V0", v0}}));
  std::vector<std::int64_t> w(n * n, 0);
  std::int64_t v = v0;
  for (std::int64_t i = 0; i < n; ++i) {
    w[i] = (v = lcg(v)) % 1000;
    w[i * n] = (v = lcg(v)) % 1000;
  }
  for (std::int64_t i = 1; i < n; ++i)
    for (std::int64_t j = 1; j < n; ++j) {
      const std::int64_t c = i * n + j;
      w[c] = (w[c - n] + w[c - 1] + w[c - n - 1]) % 100003;
    }
  k.expect = {{"w", true, w}};
  return k;
}

Kernel istructure(std::uint64_t seed) {
  const std::int64_t n = kIstructN, v0 = start_value(seed, 5);
  Kernel k{"istructure", {"--mem-elim", "--opt=all", "--istructure=f"}, "", {}};
  k.source = with_lcg(subst(R"(// Section 6.3 producer/consumer: f is write-once, so the
// consumer's reads (also of cells not yet written) run concurrently
// with the producer and wait in memory.
var i, j, v;
array f[$N], g[$N];
  v := $V0;
  i := 0;
  while i < $N {
    $LCG
    f[i] := v % 977 + i;
    i := i + 1;
  }
  j := 0;
  while j < $N {
    g[j] := f[j] * f[$N1 - j] + j;
    j := j + 1;
  }
)", {{"$N1", n - 1}, {"$N", n}, {"$V0", v0}}));
  std::vector<std::int64_t> f(n), g(n);
  std::int64_t v = v0;
  for (std::int64_t i = 0; i < n; ++i) f[i] = (v = lcg(v)) % 977 + i;
  for (std::int64_t j = 0; j < n; ++j) g[j] = f[j] * f[n - 1 - j] + j;
  k.expect = {{"f", true, f}, {"g", true, g}};
  return k;
}

Kernel histogram(std::uint64_t seed) {
  const std::int64_t n = kHistN, v0 = start_value(seed, 6);
  Kernel k{"histogram", {"--mem-elim", "--opt=all"}, "", {}};
  k.source = with_lcg(subst(R"(// Histogram of a pseudo-random sequence into 64 buckets: the
// subscript depends on the data, so each bucket update is a
// read-modify-write ordered by the access token.
var i, v;
array h[64];
  v := $V0;
  i := 0;
  while i < $N {
    $LCG
    h[v / 16 % 64] := h[v / 16 % 64] + 1;
    i := i + 1;
  }
)", {{"$N", n}, {"$V0", v0}}));
  std::vector<std::int64_t> h(64, 0);
  std::int64_t v = v0;
  for (std::int64_t i = 0; i < n; ++i) {
    v = lcg(v);
    ++h[v / 16 % 64];
  }
  k.expect = {{"h", true, h}, {"i", false, {n}}};
  return k;
}

Kernel reduction(std::uint64_t seed) {
  const std::int64_t n = kReduceN, v0 = start_value(seed, 7);
  Kernel k{"reduction", {"--mem-elim", "--opt=all"}, "", {}};
  k.source = with_lcg(subst(R"(// Dot product and sum of squares over two arrays.
var i, v, s, q;
array a[$N], b[$N];
  v := $V0;
  i := 0;
  while i < $N {
    $LCG
    a[i] := v % 2001 - 1000;
    $LCG
    b[i] := v % 2001 - 1000;
    i := i + 1;
  }
  s := 0;
  q := 0;
  i := 0;
  while i < $N {
    s := s + a[i] * b[i];
    q := q + a[i] * a[i];
    i := i + 1;
  }
)", {{"$N", n}, {"$V0", v0}}));
  std::int64_t v = v0, s = 0, q = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t a = (v = lcg(v)) % 2001 - 1000;
    const std::int64_t b = (v = lcg(v)) % 2001 - 1000;
    s += a * b;
    q += a * a;
  }
  k.expect = {{"s", false, {s}}, {"q", false, {q}}};
  return k;
}

}  // namespace

std::vector<Kernel> make_kernels(std::uint64_t seed) {
  return {matmul(seed),     stencil2d(seed), scan(seed),     wavefront(seed),
          istructure(seed), histogram(seed), reduction(seed)};
}

bool check_expect(const std::vector<Expect>& expect,
                  const ctdf::lang::Program& prog,
                  const ctdf::lang::Store& store, std::string* why) {
  for (const Expect& e : expect) {
    for (std::size_t i = 0; i < e.values.size(); ++i) {
      std::int64_t got = 0;
      try {
        got = e.array ? ctdf::core::read_element(prog, store, e.var,
                                                 static_cast<std::int64_t>(i))
                      : ctdf::core::read_scalar(prog, store, e.var);
      } catch (const std::exception& ex) {
        if (why) *why = ex.what();
        return false;
      }
      if (got != e.values[i]) {
        if (why)
          *why = e.var + (e.array ? "[" + std::to_string(i) + "]" : "") +
                 " = " + std::to_string(got) + ", expected " +
                 std::to_string(e.values[i]);
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
