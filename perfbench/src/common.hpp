// Shared plumbing of the benchmark binary: options, the result report,
// clocks, getrusage sampling and the traced-pass scope.
//
// Every workload is closed-loop batch work: a fixed unit of simulation
// is repeated until the run's time budget is spent, and each metric is
// the median over the units (or over the timed blocks inside them).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          // smoke-test sizes (seconds of work, not minutes)
  bool corrupt_ckpt = false;  // flip one checkpoint byte before reading it back
  std::string work_dir = ".bench_run";
};

/// Steady-clock seconds.
[[nodiscard]] double now_s();

/// Median of `v` (0 for an empty vector).
[[nodiscard]] double median(std::vector<double> v);

/// Max over mean of `v` (0 for an empty vector).
[[nodiscard]] double max_over_mean(const std::vector<double>& v);

/// Process-wide CPU seconds and minor page faults (getrusage) at one
/// instant, next to the wall clock.
struct Usage {
  double wall_s = 0;
  double cpu_s = 0;
  double minor_faults = 0;
};
[[nodiscard]] Usage usage_now();

/// Busy cores (CPU seconds per wall second) between two samples.
[[nodiscard]] double busy_cores(const Usage& a, const Usage& b);

struct Metric {
  double value = 0;
  std::string unit;
};

/// The result of one run: correctness checks counted as operations,
/// plus every metric the run measured.
class Report {
 public:
  /// Counts one correctness check; a false `ok` is a failed operation.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);
  /// Sets a per-layer metric; its unit comes from the layer table.
  void layer(const std::string& name, double value);
  /// Reports every per-layer metric this workload does not exercise as
  /// 0: the layer is off the workload's path.
  void fill_bypassed_layers();
  /// Free-form facts printed beside the result (sizes, ISA, ...).
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);

  /// One JSON object: correct, attempted, failed, metrics, info.
  [[nodiscard]] std::string json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;
};

/// Calls body() until `seconds` have elapsed since the first call, and
/// at least `min_reps` times.  Returns the number of calls.
int repeat_for(double seconds, int min_reps, const std::function<void()>& body);

/// A benchmark-level span around one call into a layer: lands in the
/// Chrome trace of a traced run (no-op otherwise).  `name` must be a
/// string literal.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t t0_;
};

/// Runs fn() under a benchmark span; returns its seconds.
template <typename Fn>
double timed(const char* span_name, Fn&& fn) {
  const Span span(span_name);
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Turns telemetry and span capture on for its lifetime.  finish()
/// scrapes the counters and phase totals and writes the Chrome trace.
class TracedPass {
 public:
  TracedPass();
  ~TracedPass();
  TracedPass(const TracedPass&) = delete;
  TracedPass& operator=(const TracedPass&) = delete;

  rbb::obs::MetricsSnapshot finish(const std::string& trace_path);

 private:
  bool active_ = true;
};

/// The samples every workload collects over one pass of repeated units.
/// A workload's own pass type extends it with its layer timings.
struct PassBase {
  std::vector<double> setup_s;
  std::vector<double> wall_s;        // per unit, set-up excluded
  std::vector<double> ns4;           // ns per ball-round at 4 threads
  std::vector<double> ns1;           // the same at width 1
  std::vector<double> unattributed;  // share of a unit's wall outside
                                     // the top-level layer calls
  double balls = 0;                  // ball-rounds simulated in the pass
  double state_bytes = 0;            // resident state of the workload
  int units = 0;
  Usage u0, u1;
};

/// Repeats unit(pass) for `seconds` (at least once).
template <typename P, typename Unit>
P run_pass(double seconds, Unit&& unit) {
  P p;
  p.u0 = usage_now();
  repeat_for(seconds, 1, [&] {
    unit(p);
    ++p.units;
  });
  p.u1 = usage_now();
  return p;
}

template <typename P>
struct TracedRun {
  P plain;   // telemetry off
  P traced;  // telemetry and span capture on
  rbb::obs::MetricsSnapshot snap;
};

/// The --trace 1 protocol: half the budget untraced, half traced; the
/// Chrome trace lands in <work_dir>/trace_<workload>.json.
template <typename P, typename Unit>
TracedRun<P> run_traced(const Options& o, Unit&& unit) {
  TracedRun<P> run;
  run.plain = run_pass<P>(o.seconds / 2, unit);
  TracedPass scope;
  run.traced = run_pass<P>(o.seconds / 2, unit);
  run.snap = scope.finish(o.work_dir + "/trace_" + o.workload + ".json");
  return run;
}

/// The --trace 0 result: every end-to-end metric as a median over `p`.
void report_end_to_end(const PassBase& p, Report& rep);

/// The layer metrics every workload shares: support counters, process
/// rusage figures over the traced pass, and the trace overhead (traced
/// over untraced median ns per ball, minus one).
void report_common_layers(const PassBase& plain, const PassBase& traced,
                          const rbb::obs::MetricsSnapshot& s,
                          std::uint64_t seed, Report& rep);

/// The sharded kernel's inclusive phase totals from a traced pass, as
/// thread-ns per ball-round (summed over threads).
void report_kernel_phases(const rbb::obs::MetricsSnapshot& s, double balls,
                          Report& rep);

/// Peak resident set (VmHWM) in MB.
[[nodiscard]] double peak_rss_mb();

void run_mega_load(const Options& o, Report& rep);
void run_mc_claims(const Options& o, Report& rep);
void run_token_ckpt(const Options& o, Report& rep);

}  // namespace perfbench
