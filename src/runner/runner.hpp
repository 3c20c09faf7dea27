// The `rbb` CLI: one binary over the experiment registry.
//
//   rbb list                          catalog of registered experiments
//   rbb describe <experiment>         description + typed parameters
//   rbb run <experiment> [options]    one run, table/json/csv output
//   rbb sweep <experiment> [options]  cartesian parameter grids
//   rbb docs [--out=PATH] [--check]   (re)generate docs/experiments.md
//
// Shared options for run/sweep:
//   --scale=smoke|default|paper|mega   (default: default)
//   --format=table|json|csv       (default: table)
//   --out=PATH                    write the rendering to PATH, not stdout
//   --<param>=value               any parameter the experiment declares;
//                                 under `sweep`, comma-separated values
//                                 become a grid axis.
//
// The testable entry point takes the argument vector and streams
// explicitly; the binary's main() (tools/rbb.cpp) forwards argv.  Exit
// codes: 0 success, 1 runtime failure (unwritable --out, docs drift),
// 2 usage error.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace rbb::runner {

/// Runs one CLI invocation; `args` excludes argv[0].
int runner_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);

/// argv adapter for tools/rbb.cpp.
int runner_main(int argc, const char* const* argv);

}  // namespace rbb::runner
