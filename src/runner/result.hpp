// Structured experiment results and their machine-readable renderings.
//
// Every registry experiment returns a ResultSet: one or more titled
// Tables plus free-form notes (fit lines, caveats).  The runner wraps it
// in RunMeta -- which experiment, which parameters, seed, scale, git
// revision, wall time -- and serializes the pair to one of three formats:
//
//   table  the human markdown tables the bench binaries always printed,
//   json   a schema-stable document ("rbb.result.v1", fixed key order)
//          for sweep tooling and trajectory tracking (BENCH_*.json),
//   csv    per-table RFC-4180-ish CSV with `#`-prefixed metadata lines.
//
// Serialization is a pure function of (meta, results), so the golden
// tests in tests/runner/ pin the byte-exact output.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "runner/params.hpp"
#include "support/table.hpp"

namespace rbb::runner {

/// Result payload of one experiment run: titled tables plus notes.
class ResultSet {
 public:
  struct Entry {
    std::string id;     // stable table id, e.g. "E1_stability"
    std::string title;  // one-line claim the table demonstrates
    Table data;
    /// Column names that are context, not measurements: consumers such
    /// as tools/bench_diff.py must never gate on them.  Serialized as
    /// the table's "informational" array when non-empty.
    std::vector<std::string> informational;
  };

  /// Starts a new table; the returned reference stays valid across later
  /// add_table calls (entries live in a deque).
  Table& add_table(std::string id, std::string title,
                   std::vector<std::string> headers);

  /// add_table declaring a subset of `headers` informational (carried
  /// into the JSON so downstream tooling need not hardcode names).
  Table& add_table(std::string id, std::string title,
                   std::vector<std::string> headers,
                   std::vector<std::string> informational);

  /// Appends a free-form note (fit summaries, analytic context).
  void note(std::string text);

  [[nodiscard]] const std::deque<Entry>& tables() const { return tables_; }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }

 private:
  std::deque<Entry> tables_;
  std::vector<std::string> notes_;
};

/// Provenance attached to every serialized run.
struct RunMeta {
  struct Param {
    std::string name;
    ParamSpec::Type type = ParamSpec::Type::kString;
    std::string value;  // canonical text
  };

  /// The run's honest thread accounting (ROADMAP item 5), emitted in
  /// every serialization so perf rows carry the hardware they came
  /// from: tools/bench_diff.py refuses to gate rows whose effective
  /// parallelism differs between baselines.
  struct Parallelism {
    std::uint32_t hardware_concurrency = 0;  // std::thread value, 0 unknown
    std::uint32_t threads_requested = 0;     // the --threads parameter
    std::uint32_t runnable_threads = 0;      // threads that can run tasks
    /// The --repeat request: the run function executed this many times
    /// and the serialized results/wall time are the fastest execution
    /// (best-of-K timing discipline for perf rows).
    std::uint64_t repeat = 1;
  };

  /// One scraped telemetry value (name as serialized).
  struct Metric {
    std::string name;
    std::uint64_t value = 0;
  };

  /// The optional --metrics block: counter totals and per-phase ns from
  /// the obs registry.  Additive -- absent (present == false) the JSON
  /// document is byte-identical to the pre-telemetry schema.
  struct MetricsBlock {
    bool present = false;
    std::vector<Metric> counters;   // catalogue order
    std::vector<Metric> phase_ns;   // catalogue order
    double barrier_wait_fraction = 0;
    /// Share of epoch-synchronized time the pipelined round loop spent
    /// doing overlapped work instead of spinning (obs/metrics.hpp);
    /// exactly 0 when no team ran.
    double pipeline_fill_fraction = 0;
    std::uint32_t effective_parallelism = 0;  // min(runnable, hardware)
  };

  std::string experiment;  // registry name, e.g. "stability"
  std::string claim;       // DESIGN.md E-number ("E1"), empty for extras
  std::string title;       // one-line experiment title
  std::string scale;       // smoke | default | paper
  std::uint64_t seed = 0;
  std::vector<Param> params;  // declaration order
  std::string git_rev;
  double wall_seconds = 0;
  Parallelism parallelism;
  MetricsBlock metrics;
};

/// Fills meta.params (and meta.seed) from parsed values, in spec order.
void fill_meta_params(RunMeta& meta, const ParamValues& values);

/// The "rbb.result.v1" JSON document (two-space indent, fixed key order,
/// numeric-looking cells emitted as JSON numbers).
[[nodiscard]] std::string to_json(const RunMeta& meta, const ResultSet& rs);

/// CSV rendering: `#`-prefixed metadata lines, then each table (blank
/// line separated), then `# note:` lines.
[[nodiscard]] std::string to_csv(const RunMeta& meta, const ResultSet& rs);

/// The human rendering the bench binaries print: a `===` banner and a
/// markdown table per entry, then the notes.
[[nodiscard]] std::string to_text(const RunMeta& meta, const ResultSet& rs);

/// True if `text` is a valid JSON number literal (the rule deciding
/// whether a table cell serializes as a number or a string).
[[nodiscard]] bool is_json_number(const std::string& text);

/// JSON string escaping (quotes not included).
[[nodiscard]] std::string json_escape(const std::string& text);

}  // namespace rbb::runner
