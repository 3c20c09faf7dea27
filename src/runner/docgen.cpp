#include "runner/docgen.hpp"

#include <sstream>

namespace rbb::runner {

namespace {

/// Pipe-escapes a cell for embedding in a markdown table.
std::string md_cell(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    if (ch == '|') out += "\\|";
    else out += ch;
  }
  return out;
}

}  // namespace

std::string render_experiment_docs(const Registry& registry) {
  const std::vector<const Experiment*> catalog = registry.catalog();
  std::ostringstream out;
  out << "# Experiment catalog\n";
  out << "\n";
  out << "<!-- Generated by `rbb docs`.  Do not edit by hand: CI "
         "regenerates this file\n";
  out << "     and fails on any diff (the docs-drift gate in "
         ".github/workflows/ci.yml). -->\n";
  out << "\n";
  out << "Auto-generated from the experiment registry (`src/runner/`): "
      << catalog.size()
      << " experiments, each runnable as `rbb run <name>`.  The claim "
         "column is the\n";
  out << "DESIGN.md Sect. 4 experiment map; extras ride outside the "
         "numbered list.  Every experiment\n";
  out << "accepts `--scale=smoke|default|paper|mega`, `--format=table|json|csv` "
         "and the\n";
  out << "parameters listed in its section; `rbb sweep <name> "
         "--param=v1,v2,...`\n";
  out << "runs cartesian grids.\n";
  out << "\n";
  out << "| experiment | claim | title |\n";
  out << "|---|---|---|\n";
  for (const Experiment* e : catalog) {
    out << "| [`" << e->name << "`](#" << e->name << ") | "
        << (e->claim.empty() ? std::string("—") : e->claim) << " | "
        << md_cell(e->title) << " |\n";
  }
  for (const Experiment* e : catalog) {
    out << "\n";
    out << "## " << e->name << "\n";
    out << "\n";
    if (!e->claim.empty()) {
      out << "**Claim:** " << e->claim << " — " << md_cell(e->title)
          << "\n";
    } else {
      out << "**Claim:** (extra, outside the numbered map) — "
          << md_cell(e->title) << "\n";
    }
    out << "\n";
    out << e->description << "\n";
    out << "\n";
    out << "**Run:** `rbb run " << e->name << "`\n";
    out << "\n";
    out << "| parameter | type | default | description |\n";
    out << "|---|---|---|---|\n";
    for (const ParamSpec& spec : e->params) {
      out << "| `--" << spec.name << "` | " << to_string(spec.type)
          << " | `" << (spec.default_value.empty() ? std::string("\"\"")
                                                   : spec.default_value)
          << "` | " << md_cell(spec.help) << " |\n";
    }
  }
  return out.str();
}

}  // namespace rbb::runner
