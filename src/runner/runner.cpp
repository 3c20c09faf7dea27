#include "runner/runner.hpp"

#include <exception>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>

#include "ckpt/checkpoint.hpp"
#include "ckpt/io.hpp"
#include "runner/docgen.hpp"
#include "runner/interrupt.hpp"
#include "runner/registry.hpp"
#include "runner/result.hpp"
#include "support/scale.hpp"
#include "support/table.hpp"

namespace rbb::runner {

namespace {

constexpr const char* kUsage = R"(rbb -- registry-driven experiment runner (repeated balls-into-bins)

usage:
  rbb list                          list registered experiments
  rbb describe <experiment>         show description and parameters
  rbb run <experiment> [options]    run one experiment
  rbb resume <ckpt> [options]       continue a checkpointed run to
                                    completion (experiment and
                                    parameters come from the
                                    checkpoint's own metadata; explicit
                                    options override)
  rbb sweep <experiment> [options]  run a cartesian parameter grid
  rbb docs [--out=PATH] [--check]   generate docs/experiments.md
  rbb help                          this text

options for run / sweep:
  --scale=smoke|default|paper|mega
                                sweep sizes (default: default; mega =
                                n >= 1e8 for the sharded
                                single-instance experiments)
  --format=table|json|csv       output rendering (default: table)
  --out=PATH                    write to PATH instead of stdout
  --<param>=value               any parameter of the experiment
                                (see `rbb describe <experiment>`);
                                under `sweep`, comma-separated values
                                become a grid axis

common parameters -- an experiment takes only the ones it reads, and
`rbb describe <experiment>` lists them; any other is an unknown option:
  --seed=N, --trials=N          root seed; trials per sweep point
  --backend=seq|sharded         round kernel (default: seq)
  --threads=N                   total thread budget (0 = all); split
                                by --trial-parallelism on Monte-Carlo
                                experiments
  --trial-parallelism=auto|K    concurrent trials; the thread budget
                                splits across trials, each instance's
                                sharded rounds use the rest
  --repeat=K                    execute the run K times, keep the
                                fastest execution (best-of-K timing
                                for perf rows; default: 1)
  --metrics                     scrape src/obs/ telemetry after the run
                                and emit the additive `metrics` block
                                (counters, per-phase ns, barrier-wait
                                fraction, effective parallelism); every
                                experiment
  --trace=FILE                  write the run's phase spans as
                                Chrome-trace JSON (open in Perfetto);
                                every experiment
  --checkpoint-dir=DIR          write rbb.ckpt.v1 snapshots here
  --checkpoint-every=K          checkpoint period in rounds (0 = only
                                the SIGINT/exit checkpoint; requires
                                --checkpoint-dir)
  --checkpoint-keep=K           retain the newest K periodic
                                checkpoints (default: 3; requires
                                --checkpoint-dir)

`rbb docs --check` exits 1 if the committed file differs from the
registry (the CI docs-drift gate).

exit codes: 0 success; 1 run/write failure (including a corrupt or
mismatched checkpoint, always with a named "checkpoint <kind>:" error);
2 usage error; 130 interrupted by SIGINT -- the run finishes its
current round chunk, writes a final checkpoint when --checkpoint-dir is
set, and delivers the partial results before exiting.
)";

enum class Format { kTable, kJson, kCsv };

struct CommonOptions {
  BenchScale scale = BenchScale::kDefault;
  Format format = Format::kTable;
  std::string out_path;
};

bool parse_scale(const std::string& text, BenchScale* scale) {
  if (text == "smoke") { *scale = BenchScale::kSmoke; return true; }
  if (text == "default") { *scale = BenchScale::kDefault; return true; }
  if (text == "paper") { *scale = BenchScale::kPaper; return true; }
  if (text == "mega") { *scale = BenchScale::kMega; return true; }
  return false;
}

bool parse_format(const std::string& text, Format* format) {
  if (text == "table") { *format = Format::kTable; return true; }
  if (text == "json") { *format = Format::kJson; return true; }
  if (text == "csv") { *format = Format::kCsv; return true; }
  return false;
}

/// Emits `payload` to --out (or `out` when no path was given).  Returns
/// the process exit code.
int deliver(const std::string& payload, const CommonOptions& options,
            std::ostream& out, std::ostream& err) {
  if (options.out_path.empty()) {
    out << payload;
    return 0;
  }
  // tmp+fsync+rename: a crash or full disk mid-write never leaves a
  // torn result file behind (same discipline as checkpoints).
  std::string error;
  if (!ckpt::atomic_write_file(options.out_path, payload, &error)) {
    err << "rbb: cannot write " << options.out_path << ": " << error << "\n";
    return 1;
  }
  return 0;
}

/// Runs the experiment (registry.cpp owns timing + metadata) and
/// renders one format.  Propagates run-function exceptions; cmd_run /
/// cmd_sweep hold the error boundary.
std::string execute_and_render(const Experiment& experiment,
                               const ParamValues& values, BenchScale scale,
                               Format format) {
  const CompletedRun run = run_experiment(experiment, values, scale);
  switch (format) {
    case Format::kJson: return to_json(run.meta, run.results);
    case Format::kCsv: return to_csv(run.meta, run.results);
    case Format::kTable: break;
  }
  return to_text(run.meta, run.results);
}

int cmd_list(std::ostream& out) {
  Table table({"experiment", "claim", "title"});
  for (const Experiment* e : default_registry().catalog()) {
    table.row()
        .cell(e->name)
        .cell(e->claim.empty() ? std::string("-") : e->claim)
        .cell(e->title);
  }
  out << table.markdown();
  return 0;
}

int cmd_describe(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  if (args.size() != 1) {
    err << "usage: rbb describe <experiment>\n";
    return 2;
  }
  const Experiment* e = default_registry().find(args[0]);
  if (e == nullptr) {
    err << "rbb: unknown experiment \"" << args[0]
        << "\" (see `rbb list`)\n";
    return 2;
  }
  out << e->name << (e->claim.empty() ? "" : " [" + e->claim + "]") << " -- "
      << e->title << "\n\n";
  out << e->description << "\n\n";
  out << "run: rbb run " << e->name
      << " [--scale=smoke|default|paper|mega] [--format=table|json|csv]\n\n";
  out << render_param_table(e->params);
  return 0;
}

/// Parsed surface of a run/sweep invocation: common options plus raw
/// parameter assignments in command-line order.
struct Invocation {
  const Experiment* experiment = nullptr;
  CommonOptions common;
  std::vector<std::pair<std::string, std::string>> assignments;
};

int parse_invocation(const char* verb, const std::vector<std::string>& args,
                     std::ostream& err, Invocation* inv) {
  if (args.empty() || args[0].rfind("--", 0) == 0) {
    err << "usage: rbb " << verb << " <experiment> [options]\n";
    return 2;
  }
  inv->experiment = default_registry().find(args[0]);
  if (inv->experiment == nullptr) {
    err << "rbb: unknown experiment \"" << args[0]
        << "\" (see `rbb list`)\n";
    return 2;
  }
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string name;
    std::string value;
    bool has_value = false;
    if (!split_option(args, &i, &name, &value, &has_value)) {
      err << "rbb: unexpected argument \"" << args[i] << "\"\n";
      return 2;
    }
    if (name == "scale") {
      if (!has_value || !parse_scale(value, &inv->common.scale)) {
        err << "rbb: --scale expects smoke|default|paper|mega\n";
        return 2;
      }
    } else if (name == "format") {
      if (!has_value || !parse_format(value, &inv->common.format)) {
        err << "rbb: --format expects table|json|csv\n";
        return 2;
      }
    } else if (name == "out") {
      if (!has_value || value.empty()) {
        err << "rbb: --out expects a path\n";
        return 2;
      }
      inv->common.out_path = value;
    } else {
      inv->assignments.emplace_back(name, value);
    }
  }
  return 0;
}

int cmd_run(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  Invocation inv;
  if (const int rc = parse_invocation("run", args, err, &inv); rc != 0) {
    return rc;
  }
  ParamValues values(inv.experiment->params);
  for (const auto& [name, value] : inv.assignments) {
    std::string error;
    if (!values.set(name, value, &error)) {
      err << "rbb: " << error << " (see `rbb describe "
          << inv.experiment->name << "`)\n";
      return 2;
    }
  }
  // First ^C: checkpoint-capable experiments finish the current chunk,
  // write a final checkpoint, and we exit 130 below.  Second ^C kills
  // outright (SA_RESETHAND).
  interrupt::install();
  std::string payload;
  try {
    payload = execute_and_render(*inv.experiment, values, inv.common.scale,
                                 inv.common.format);
  } catch (const std::exception& e) {
    err << "rbb: " << inv.experiment->name << " failed: " << e.what()
        << "\n";
    return 1;
  }
  const int rc = deliver(payload, inv.common, out, err);
  if (interrupt::interrupted()) {
    err << "rbb: interrupted by SIGINT; partial results delivered (wall "
           "time in the run metadata covers the completed rounds)\n";
    return rc != 0 ? rc : interrupt::kExitCode;
  }
  return rc;
}

/// `rbb resume <ckpt>`: reconstructs the run invocation from the
/// checkpoint's own meta block (experiment name + `name=value`
/// parameter lines), lets explicit CLI options override, appends
/// --resume-from, and re-enters cmd_run.  A trajectory-changing
/// override is caught downstream by the header digest check.
int cmd_resume(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  if (args.empty() || args[0].rfind("--", 0) == 0) {
    err << "usage: rbb resume <checkpoint.ckpt> [options]\n";
    return 2;
  }
  const std::string& path = args[0];
  ckpt::Checkpoint checkpoint;
  try {
    checkpoint = ckpt::read_checkpoint(path);
  } catch (const std::exception& e) {
    err << "rbb: " << e.what() << "\n";
    return 1;
  }
  std::string experiment_name;
  std::vector<std::string> synthesized;
  synthesized.emplace_back();  // experiment name slot, filled below
  std::istringstream meta(checkpoint.meta);
  std::string line;
  while (std::getline(meta, line)) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      err << "rbb: malformed meta line \"" << line << "\" in " << path
          << "\n";
      return 1;
    }
    if (line.compare(0, eq, "experiment") == 0) {
      experiment_name = line.substr(eq + 1);
    } else {
      synthesized.push_back("--" + line);
    }
  }
  if (experiment_name.empty()) {
    err << "rbb: checkpoint " << path << " names no experiment in its "
        << "meta block\n";
    return 1;
  }
  synthesized[0] = experiment_name;
  // CLI options after the meta lines: under `run` the last assignment
  // wins, so explicit flags (--rounds, --checkpoint-dir, ...) override
  // the checkpointed values.
  synthesized.insert(synthesized.end(), args.begin() + 1, args.end());
  synthesized.push_back("--resume-from=" + path);
  return cmd_run(synthesized, out, err);
}

/// Splits a sweep assignment on commas; a single value is a fixed
/// override, several values form a grid axis.
std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
}

int cmd_sweep(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  Invocation inv;
  if (const int rc = parse_invocation("sweep", args, err, &inv); rc != 0) {
    return rc;
  }
  const Experiment& experiment = *inv.experiment;

  // Validate every value up front and split fixed overrides from axes.
  struct Axis {
    std::string name;
    std::vector<std::string> values;
  };
  std::vector<std::pair<std::string, std::string>> fixed;
  std::vector<Axis> axes;
  ParamValues probe(experiment.params);  // for name/type validation only
  for (std::size_t a = 0; a < inv.assignments.size(); ++a) {
    const auto& [name, value] = inv.assignments[a];
    // Under run, the last duplicate wins; under sweep a duplicate would
    // silently shadow an axis, so reject it outright.
    for (std::size_t b = a + 1; b < inv.assignments.size(); ++b) {
      if (inv.assignments[b].first == name) {
        err << "rbb: --" << name
            << " given more than once; a sweep axis takes its values "
               "comma-separated in one option\n";
        return 2;
      }
    }
    const std::vector<std::string> parts = split_commas(value);
    for (const std::string& part : parts) {
      std::string error;
      if (!probe.set(name, part, &error)) {
        err << "rbb: " << error << " (see `rbb describe " << experiment.name
            << "`)\n";
        return 2;
      }
    }
    if (parts.size() == 1) {
      fixed.emplace_back(name, parts[0]);
    } else {
      axes.push_back(Axis{name, parts});
    }
  }

  // Cartesian product, first axis outermost; points run sequentially so
  // output order is deterministic (parallelism stays inside each run's
  // for_each_trial fan-out, design choice D5).
  std::size_t points = 1;
  for (const Axis& axis : axes) points *= axis.values.size();

  std::ostringstream payload;
  if (inv.common.format == Format::kJson) {
    payload << "{\n  \"schema\": \"rbb.sweep.v1\",\n  \"experiment\": \""
            << json_escape(experiment.name) << "\",\n  \"grid\": {";
    for (std::size_t a = 0; a < axes.size(); ++a) {
      payload << (a == 0 ? "\n" : ",\n") << "    \""
              << json_escape(axes[a].name) << "\": [";
      for (std::size_t v = 0; v < axes[a].values.size(); ++v) {
        if (v != 0) payload << ", ";
        payload << json_scalar(axes[a].values[v]);
      }
      payload << "]";
    }
    payload << (axes.empty() ? "},\n" : "\n  },\n");
    payload << "  \"results\": [\n";
  }
  for (std::size_t point = 0; point < points; ++point) {
    ParamValues values(experiment.params);
    for (const auto& [name, value] : fixed) values.set(name, value, nullptr);
    std::size_t remainder = point;
    std::ostringstream label;
    for (std::size_t a = axes.size(); a-- > 0;) {
      const Axis& axis = axes[a];
      const std::string& value = axis.values[remainder % axis.values.size()];
      remainder /= axis.values.size();
      values.set(axis.name, value, nullptr);
    }
    for (const Axis& axis : axes) {
      label << (label.tellp() > 0 ? " " : "") << axis.name << "="
            << values.text(axis.name);
    }
    std::string rendered;
    try {
      rendered = execute_and_render(experiment, values, inv.common.scale,
                                    inv.common.format);
    } catch (const std::exception& e) {
      err << "rbb: " << experiment.name << " failed at sweep point "
          << (point + 1) << "/" << points;
      if (label.tellp() > 0) err << " (" << label.str() << ")";
      err << ": " << e.what() << "\n";
      return 1;
    }
    switch (inv.common.format) {
      case Format::kJson: {
        // Indent the per-run document two levels into the results array.
        std::istringstream lines(rendered);
        std::string line;
        bool first = true;
        while (std::getline(lines, line)) {
          payload << (first ? "    " : "\n    ") << line;
          first = false;
        }
        payload << (point + 1 < points ? ",\n" : "\n");
        break;
      }
      case Format::kCsv:
        if (point != 0) payload << "\n";
        payload << "# sweep point " << (point + 1) << "/" << points;
        if (label.tellp() > 0) payload << " " << label.str();
        payload << "\n" << rendered;
        break;
      case Format::kTable:
        payload << "\n#### sweep point " << (point + 1) << "/" << points;
        if (label.tellp() > 0) payload << ": " << label.str();
        payload << "\n" << rendered;
        break;
    }
  }
  if (inv.common.format == Format::kJson) payload << "  ]\n}\n";
  return deliver(payload.str(), inv.common, out, err);
}

int cmd_docs(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  std::string out_path;
  bool check = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string name;
    std::string value;
    bool has_value = false;
    if (!split_option(args, &i, &name, &value, &has_value)) {
      err << "rbb: unexpected argument \"" << args[i] << "\"\n";
      return 2;
    }
    if (name == "out") {
      if (!has_value || value.empty()) {
        err << "rbb: --out expects a path\n";
        return 2;
      }
      out_path = value;
    } else if (name == "check") {
      if (has_value) {
        err << "rbb: --check takes no value\n";
        return 2;
      }
      check = true;
    } else {
      err << "rbb: unknown option --" << name << " for docs\n";
      return 2;
    }
  }
  const std::string rendered = render_experiment_docs(default_registry());
  if (check) {
    const std::string path =
        out_path.empty() ? std::string("docs/experiments.md") : out_path;
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      err << "rbb: docs --check: cannot read " << path << "\n";
      return 1;
    }
    std::ostringstream existing;
    existing << file.rdbuf();
    if (existing.str() != rendered) {
      err << "rbb: docs drift: " << path
          << " does not match the registry; regenerate with\n"
          << "  rbb docs --out=" << path << "\n";
      return 1;
    }
    out << "rbb: docs up to date (" << path << ")\n";
    return 0;
  }
  CommonOptions options;
  options.out_path = out_path;
  return deliver(rendered, options, out, err);
}

}  // namespace

int runner_main(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return 2;
  }
  const std::string& verb = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (verb == "help" || verb == "--help" || verb == "-h") {
    out << kUsage;
    return 0;
  }
  if (verb == "list") {
    if (!rest.empty()) {
      err << "usage: rbb list\n";
      return 2;
    }
    return cmd_list(out);
  }
  if (verb == "describe") return cmd_describe(rest, out, err);
  if (verb == "run") return cmd_run(rest, out, err);
  if (verb == "resume") return cmd_resume(rest, out, err);
  if (verb == "sweep") return cmd_sweep(rest, out, err);
  if (verb == "docs") return cmd_docs(rest, out, err);
  err << "rbb: unknown command \"" << verb << "\"\n\n" << kUsage;
  return 2;
}

int runner_main(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return runner_main(args, std::cout, std::cerr);
}

}  // namespace rbb::runner
