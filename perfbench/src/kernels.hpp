// The kernel corpus: seven small numeric kernels written in the ctdf
// source language, each with its option set and a result the benchmark
// computes itself (plain C++ over the same inputs), independently of
// the compiler under test.
//
// The seed sets each kernel's input data (the start value of its
// in-program pseudo-random sequence). It never changes control flow,
// so the simulated counts of the corpus are the same for every seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/compiler.hpp"

namespace perfbench {

/// Expected final contents of one variable: a scalar (one value) or a
/// whole array.
struct Expect {
  std::string var;
  bool array = false;
  std::vector<std::int64_t> values;
};

struct Kernel {
  std::string name;
  std::vector<std::string> flags;  ///< schema flags, as on the CLI
  std::string source;
  std::vector<Expect> expect;      ///< computed by the benchmark itself
};

/// The corpus in its fixed round-robin order.
[[nodiscard]] std::vector<Kernel> make_kernels(std::uint64_t seed);

/// Compares a final store with a kernel's independent values.
[[nodiscard]] bool check_expect(const std::vector<Expect>& expect,
                                const ctdf::lang::Program& prog,
                                const ctdf::lang::Store& store,
                                std::string* why);

}  // namespace perfbench
