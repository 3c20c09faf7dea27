#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "support/counter_rng.hpp"
#include "support/draw_plane.hpp"
#include "support/meminfo.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Every per-layer metric with its unit (BENCHMARK.json lists the same).
const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units = {
      {"support.plane_fill_ns_per_draw", "ns"},
      {"support.plane_draws_per_ball", "count"},
      {"support.lemire_retry_ratio", "ratio"},
      {"support.pool_tasks", "count"},
      {"support.pool_batches", "count"},
      {"kernel.run_ns_per_ball", "ns"},
      {"kernel.step_ns_per_ball", "ns"},
      {"kernel.throw_ns_per_ball", "ns"},
      {"kernel.commit_ns_per_ball", "ns"},
      {"kernel.rescan_ns_per_ball", "ns"},
      {"kernel.plane_fill_ns_per_ball", "ns"},
      {"kernel.epoch_wait_ns_per_ball", "ns"},
      {"kernel.pipeline_fill_fraction", "fraction"},
      {"kernel.chunk_flushes_per_ball", "count"},
      {"kernel.construct_s", "s"},
      {"kernel.state_bytes_per_ball", "B"},
      {"kernel.snapshot_s", "s"},
      {"kernel.restore_s", "s"},
      {"engine.observer_overhead_frac", "fraction"},
      {"engine.trial_imbalance", "ratio"},
      {"engine.rounds_per_trial", "count"},
      {"analysis.convergence_s", "s"},
      {"analysis.stability_s", "s"},
      {"analysis.delays_s", "s"},
      {"core.delays_ns_per_release", "ns"},
      {"ckpt.encode_s", "s"},
      {"ckpt.write_s", "s"},
      {"ckpt.read_s", "s"},
      {"ckpt.mb_per_s", "MB/s"},
      {"ckpt.bytes_per_ball", "B"},
      {"proc.busy_cores", "cores"},
      {"proc.minor_faults_per_ball", "count"},
      {"obs.trace_overhead_frac", "fraction"},
  };
  return units;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double max_over_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const double mean =
      std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
  return mean > 0 ? *std::max_element(v.begin(), v.end()) / mean : 0.0;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return Usage{now_s(), tv(ru.ru_utime) + tv(ru.ru_stime),
               static_cast<double>(ru.ru_minflt)};
}

double busy_cores(const Usage& a, const Usage& b) {
  const double wall = b.wall_s - a.wall_s;
  return wall > 0 ? (b.cpu_s - a.cpu_s) / wall : 0.0;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::layer(const std::string& name, double value) {
  set(name, value, layer_units().at(name));
}

void Report::fill_bypassed_layers() {
  for (const auto& [name, unit] : layer_units()) {
    if (metrics_.count(name) == 0) set(name, 0.0, unit);
  }
}

void Report::info(const std::string& key, const std::string& value) {
  info_[key] = json_string(value);
}

void Report::info(const std::string& key, double value) {
  info_[key] = json_number(value);
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out += first ? "" : ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(failures_[i]);
  }
  out += "], \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    out += first ? "" : ", ";
    first = false;
    out += json_string(key) + ": " + value;
  }
  return out + "}}";
}

int repeat_for(double seconds, int min_reps,
               const std::function<void()>& body) {
  const double t0 = now_s();
  int reps = 0;
  while (reps < min_reps || now_s() - t0 < seconds) {
    body();
    ++reps;
  }
  return reps;
}

Span::Span(const char* name)
    : name_(name), t0_(rbb::obs::tracing() ? rbb::obs::now_ns() : 0) {}

Span::~Span() {
  if (t0_ != 0) rbb::obs::record_span(name_, t0_, rbb::obs::now_ns());
}

TracedPass::TracedPass() {
  rbb::obs::reset();
  rbb::obs::set_enabled(true);
  rbb::obs::start_trace();
}

TracedPass::~TracedPass() {
  if (active_) {
    rbb::obs::stop_trace();
    rbb::obs::set_enabled(false);
  }
}

rbb::obs::MetricsSnapshot TracedPass::finish(const std::string& trace_path) {
  rbb::obs::stop_trace();
  rbb::obs::set_enabled(false);
  active_ = false;
  const rbb::obs::MetricsSnapshot snap = rbb::obs::scrape();
  if (!rbb::obs::write_chrome_trace_file(trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                 trace_path.c_str());
  }
  return snap;
}

namespace {

/// Median ns per DrawPlane::fill_range draw over ~`seconds` of repeated
/// 64 Ki-draw fills: a direct call into support/, on one thread.
double plane_fill_ns_per_draw(std::uint64_t seed, double seconds) {
  constexpr std::size_t kDraws = std::size_t{1} << 16;
  constexpr std::uint32_t kBins = 100'000'000;
  const rbb::DrawPlane plane{rbb::CounterRng(seed)};
  std::vector<std::uint32_t> out(kDraws);
  std::vector<double> samples;
  std::uint64_t round = 0;
  std::uint64_t sink = 0;
  repeat_for(seconds, 5, [&] {
    const double t0 = now_s();
    plane.fill_range(round++, 0, kDraws, kBins, out.data());
    samples.push_back((now_s() - t0) * 1e9 / static_cast<double>(kDraws));
    sink += out[round % kDraws];
  });
  if (sink == 1) std::fputc(' ', stderr);  // keeps the fills observable
  return median(samples);
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void report_end_to_end(const PassBase& p, Report& rep) {
  rep.info("units", p.units);
  rep.info("working_set_bytes", p.state_bytes);
  rep.info("unattributed_frac", median(p.unattributed));
  rep.set("wall_s", median(p.wall_s), "s");
  rep.set("setup_s", median(p.setup_s), "s");
  rep.set("ns_per_ball", median(p.ns4), "ns");
  rep.set("ns_per_ball_1t", median(p.ns1), "ns");
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_common_layers(const PassBase& plain, const PassBase& traced,
                          const rbb::obs::MetricsSnapshot& s,
                          std::uint64_t seed, Report& rep) {
  using rbb::obs::Counter;
  const auto c = [&s](Counter k) { return static_cast<double>(s.counter(k)); };
  rep.info("units", traced.units);
  rep.info("working_set_bytes", traced.state_bytes);
  rep.info("unattributed_frac", median(traced.unattributed));
  rep.layer("support.plane_fill_ns_per_draw", plane_fill_ns_per_draw(seed, 0.2));
  rep.layer("support.plane_draws_per_ball",
            per(c(Counter::kPlaneDraws), traced.balls));
  rep.layer("support.lemire_retry_ratio",
            per(c(Counter::kLemireRetries), c(Counter::kPlaneDraws)));
  rep.layer("support.pool_tasks", per(c(Counter::kPoolTasks), traced.units));
  rep.layer("support.pool_batches",
            per(c(Counter::kPoolBatches), traced.units));
  rep.layer("proc.busy_cores", busy_cores(traced.u0, traced.u1));
  rep.layer("proc.minor_faults_per_ball",
            per(traced.u1.minor_faults - traced.u0.minor_faults, traced.balls));
  const double untraced_ns = median(plain.ns4);
  rep.layer("obs.trace_overhead_frac",
            per(median(traced.ns4) - untraced_ns, untraced_ns));
}

void report_kernel_phases(const rbb::obs::MetricsSnapshot& s, double balls,
                          Report& rep) {
  using rbb::obs::Phase;
  const auto per_ball = [&](Phase p) {
    return per(static_cast<double>(s.phase(p)), balls);
  };
  rep.layer("kernel.throw_ns_per_ball", per_ball(Phase::kThrow));
  rep.layer("kernel.commit_ns_per_ball", per_ball(Phase::kCommit));
  rep.layer("kernel.rescan_ns_per_ball", per_ball(Phase::kRescan));
  rep.layer("kernel.plane_fill_ns_per_ball", per_ball(Phase::kPlaneFill));
  rep.layer("kernel.epoch_wait_ns_per_ball", per_ball(Phase::kEpochWait));
  rep.layer("kernel.pipeline_fill_fraction", s.pipeline_fill_fraction());
  rep.layer("kernel.chunk_flushes_per_ball",
            per(static_cast<double>(
                    s.counter(rbb::obs::Counter::kChunkFlushes)),
                balls));
}

double peak_rss_mb() {
  const rbb::PeakRss rss = rbb::peak_rss();
  return rss.available ? static_cast<double>(rss.bytes) / (1024.0 * 1024.0)
                       : 0.0;
}

}  // namespace perfbench
