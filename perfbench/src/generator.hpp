// The benchmark's own program generator (compile-stream, serve-mix).
//
// A program is drawn from two seeds. The shape seed fixes everything
// that decides the program's structure and control flow: declarations,
// aliasing, statement kinds, nesting, loop trip counts, branch
// conditions. The value seed fixes only the data: every numeric
// constant in a data expression and every input cell. Branches and
// loops test only loop counters and a control array filled from the
// shape seed, and data reaches the graph only through memory loads,
// so no data value can be folded into the graph's structure. Hence a
// program's graph, its simulated cycle count and its firing count are
// the same for every value seed, while its final store is not.
//
// Programs mix structured loops and ifs, goto loops, two-entry
// (irreducible) loops, forward skips, arrays with data-dependent
// subscripts and, in some shapes, alias/bind declarations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels.hpp"

namespace perfbench {

struct GenProgram {
  std::string name;
  std::string source;
  /// Every scalar and array of the program, for serve's "print".
  std::vector<std::string> names;
};

/// Generates one program. `units` sets its size (top-level statement
/// groups; about 4 to 250). `tag` is stored in the scalar `tag` and
/// nowhere read: programs differing only in tag compile to the same
/// graph yet have distinct source text.
[[nodiscard]] GenProgram generate_program(std::uint64_t shape_seed,
                                          std::uint64_t value_seed, int units,
                                          std::int64_t tag = 2);

/// The program with a different tag (a fresh cache key, same graph).
[[nodiscard]] GenProgram with_tag(const GenProgram& p, std::int64_t tag);

/// Expected final values of every name of `p`, from the reference
/// interpreter; empty (and *why set) if the interpreter runs out of
/// fuel.
[[nodiscard]] std::vector<Expect> expected_values(const GenProgram& p,
                                                  std::string* why);

}  // namespace perfbench
