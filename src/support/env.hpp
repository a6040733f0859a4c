// The one strictly-parsed TREEMEM_* environment layer.
//
// Every runtime knob of the library reads its override through this file:
// TREEMEM_THREADS (support/parallel_for.hpp), TREEMEM_ADMISSION
// (parallel/schedule_core.hpp), the solver facade's TREEMEM_ORDERING /
// TREEMEM_TRAVERSAL / TREEMEM_WORKERS / TREEMEM_BUDGET
// (solver/solver.hpp), and the bench harness's TREEMEM_SCALE / TREEMEM_OUT
// (bench/bench_common.hpp). Parsing is strict with *errors*: a malformed
// value throws treemem::Error naming the variable and the offending text,
// so a typo surfaces at startup instead of silently running the experiment
// with a different configuration — the failure mode the old per-module
// ignore-on-malformed copies merely softened. An unset or empty variable
// is simply "no override" (std::nullopt).
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace treemem {

/// Raw value of the variable; nullopt when unset or set to "".
std::optional<std::string> env_string(const char* name);

/// Parses `text` as a decimal integer in [min_value, max_value]. The whole
/// string must be consumed (no sign prefixes beyond '-', no trailing
/// characters, no leading whitespace). Throws Error mentioning `what` on
/// malformed or out-of-range input.
long long parse_int_strict(const std::string& text, long long min_value,
                           long long max_value, const std::string& what);

/// Integer environment variable in [min_value, max_value]; nullopt when
/// unset/empty, Error (naming the variable) when malformed or out of range.
std::optional<long long> env_int(const char* name, long long min_value,
                                 long long max_value);

/// Floating-point environment variable in [min_value, max_value]; same
/// unset/malformed contract as env_int.
std::optional<double> env_double(const char* name, double min_value,
                                 double max_value);

/// Enumerated environment variable: returns the index of the matching
/// choice (exact, case-sensitive — the library's spellings are all
/// lower-case). Nullopt when unset/empty; Error listing the valid
/// spellings when the value matches none of them.
std::optional<std::size_t> env_choice(const char* name,
                                      const std::vector<std::string>& choices);

}  // namespace treemem
