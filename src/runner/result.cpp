#include "runner/result.hpp"

#include <cctype>
#include <sstream>
#include <utility>

namespace rbb::runner {

Table& ResultSet::add_table(std::string id, std::string title,
                            std::vector<std::string> headers) {
  return add_table(std::move(id), std::move(title), std::move(headers), {});
}

Table& ResultSet::add_table(std::string id, std::string title,
                            std::vector<std::string> headers,
                            std::vector<std::string> informational) {
  tables_.push_back(Entry{std::move(id), std::move(title),
                          Table(std::move(headers)),
                          std::move(informational)});
  return tables_.back().data;
}

void ResultSet::note(std::string text) { notes_.push_back(std::move(text)); }

void fill_meta_params(RunMeta& meta, const ParamValues& values) {
  meta.params.clear();
  for (const ParamSpec& spec : values.specs()) {
    meta.params.push_back(
        RunMeta::Param{spec.name, spec.type, values.text(spec.name)});
    if (spec.name == "seed") meta.seed = values.u64("seed");
  }
}

bool is_json_number(const std::string& text) {
  std::size_t i = 0;
  const std::size_t n = text.size();
  if (i < n && text[i] == '-') ++i;
  if (i >= n || std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
    return false;
  }
  if (text[i] == '0' && i + 1 < n &&
      std::isdigit(static_cast<unsigned char>(text[i + 1])) != 0) {
    return false;  // leading zeros are not JSON
  }
  while (i < n && std::isdigit(static_cast<unsigned char>(text[i])) != 0) ++i;
  if (i < n && text[i] == '.') {
    ++i;
    if (i >= n || std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      return false;
    }
    while (i < n && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
  }
  if (i < n && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    if (i < n && (text[i] == '+' || text[i] == '-')) ++i;
    if (i >= n || std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      return false;
    }
    while (i < n && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
  }
  return i == n;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(ch >> 4) & 0xf];
          out += kHex[ch & 0xf];
        } else {
          out += ch;
        }
    }
  }
  return out;
}

namespace {

/// `"text"`, escaped.  Appended piece by piece: GCC 12 reports a false
/// -Wrestrict on the inlined copies of `"\"" + json_escape(text)`.
std::string json_quoted(const std::string& text) {
  std::string out(1, '"');
  out += json_escape(text);
  out += '"';
  return out;
}

std::string json_param_value(const RunMeta::Param& param) {
  switch (param.type) {
    case ParamSpec::Type::kFlag:
      return param.value == "true" ? "true" : "false";
    case ParamSpec::Type::kU64:
    case ParamSpec::Type::kF64:
      if (is_json_number(param.value)) return param.value;
      break;  // e.g. "4." parses as a double but is not JSON; quote it
    case ParamSpec::Type::kString:
      break;
  }
  return json_quoted(param.value);
}

}  // namespace

std::string json_scalar(const std::string& text) {
  if (is_json_number(text)) return text;
  return json_quoted(text);
}

std::string to_json(const RunMeta& meta, const ResultSet& rs) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"rbb.result.v1\",\n";
  out << "  \"experiment\": \"" << json_escape(meta.experiment) << "\",\n";
  out << "  \"claim\": \"" << json_escape(meta.claim) << "\",\n";
  out << "  \"title\": \"" << json_escape(meta.title) << "\",\n";
  out << "  \"scale\": \"" << json_escape(meta.scale) << "\",\n";
  out << "  \"seed\": " << meta.seed << ",\n";
  out << "  \"git_rev\": \"" << json_escape(meta.git_rev) << "\",\n";
  out << "  \"wall_time_s\": " << format_double(meta.wall_seconds, 3)
      << ",\n";
  out << "  \"parallelism\": {\n";
  out << "    \"hardware_concurrency\": "
      << meta.parallelism.hardware_concurrency << ",\n";
  out << "    \"threads_requested\": " << meta.parallelism.threads_requested
      << ",\n";
  out << "    \"repeat\": " << meta.parallelism.repeat << "\n";
  out << "  },\n";
  out << "  \"params\": {";
  for (std::size_t i = 0; i < meta.params.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "    \"" << json_escape(meta.params[i].name)
        << "\": " << json_param_value(meta.params[i]);
  }
  out << (meta.params.empty() ? "},\n" : "\n  },\n");
  if (meta.metrics.present) {
    out << "  \"metrics\": {\n";
    out << "    \"counters\": {";
    for (std::size_t i = 0; i < meta.metrics.counters.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n");
      out << "      \"" << json_escape(meta.metrics.counters[i].name)
          << "\": " << meta.metrics.counters[i].value;
    }
    out << (meta.metrics.counters.empty() ? "},\n" : "\n    },\n");
    out << "    \"phase_ns\": {";
    for (std::size_t i = 0; i < meta.metrics.phase_ns.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n");
      out << "      \"" << json_escape(meta.metrics.phase_ns[i].name)
          << "\": " << meta.metrics.phase_ns[i].value;
    }
    out << (meta.metrics.phase_ns.empty() ? "},\n" : "\n    },\n");
    out << "    \"barrier_wait_fraction\": "
        << format_double(meta.metrics.barrier_wait_fraction, 6) << ",\n";
    out << "    \"pipeline_fill_fraction\": "
        << format_double(meta.metrics.pipeline_fill_fraction, 6) << ",\n";
    out << "    \"effective_parallelism\": "
        << format_double(meta.metrics.effective_parallelism, 2) << "\n";
    out << "  },\n";
  }
  out << "  \"notes\": [";
  for (std::size_t i = 0; i < rs.notes().size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "    \"" << json_escape(rs.notes()[i]) << "\"";
  }
  out << (rs.notes().empty() ? "],\n" : "\n  ],\n");
  out << "  \"tables\": [";
  bool first_table = true;
  for (const ResultSet::Entry& entry : rs.tables()) {
    out << (first_table ? "\n" : ",\n");
    first_table = false;
    out << "    {\n";
    out << "      \"id\": \"" << json_escape(entry.id) << "\",\n";
    out << "      \"title\": \"" << json_escape(entry.title) << "\",\n";
    out << "      \"columns\": [";
    const auto& headers = entry.data.headers();
    for (std::size_t c = 0; c < headers.size(); ++c) {
      if (c != 0) out << ", ";
      out << "\"" << json_escape(headers[c]) << "\"";
    }
    out << "],\n";
    if (!entry.informational.empty()) {
      out << "      \"informational\": [";
      for (std::size_t c = 0; c < entry.informational.size(); ++c) {
        if (c != 0) out << ", ";
        out << "\"" << json_escape(entry.informational[c]) << "\"";
      }
      out << "],\n";
    }
    out << "      \"rows\": [";
    const auto& rows = entry.data.rows();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      out << (r == 0 ? "\n" : ",\n");
      out << "        [";
      for (std::size_t c = 0; c < rows[r].size(); ++c) {
        if (c != 0) out << ", ";
        out << json_scalar(rows[r][c]);
      }
      out << "]";
    }
    out << (rows.empty() ? "]\n" : "\n      ]\n");
    out << "    }";
  }
  out << (rs.tables().empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

std::string to_csv(const RunMeta& meta, const ResultSet& rs) {
  std::ostringstream out;
  out << "# rbb.result.v1\n";
  out << "# experiment=" << meta.experiment << "\n";
  out << "# claim=" << meta.claim << "\n";
  out << "# title=" << meta.title << "\n";
  out << "# scale=" << meta.scale << "\n";
  out << "# seed=" << meta.seed << "\n";
  out << "# git_rev=" << meta.git_rev << "\n";
  out << "# wall_time_s=" << format_double(meta.wall_seconds, 3) << "\n";
  out << "# parallelism hardware_concurrency="
      << meta.parallelism.hardware_concurrency
      << " threads_requested=" << meta.parallelism.threads_requested
      << " repeat=" << meta.parallelism.repeat << "\n";
  for (const RunMeta::Param& param : meta.params) {
    out << "# param " << param.name << "=" << param.value << "\n";
  }
  if (meta.metrics.present) {
    for (const RunMeta::Metric& m : meta.metrics.counters) {
      out << "# metric counter " << m.name << "=" << m.value << "\n";
    }
    for (const RunMeta::Metric& m : meta.metrics.phase_ns) {
      out << "# metric phase_ns " << m.name << "=" << m.value << "\n";
    }
    out << "# metric barrier_wait_fraction="
        << format_double(meta.metrics.barrier_wait_fraction, 6) << "\n";
    out << "# metric pipeline_fill_fraction="
        << format_double(meta.metrics.pipeline_fill_fraction, 6) << "\n";
    out << "# metric effective_parallelism="
        << format_double(meta.metrics.effective_parallelism, 2) << "\n";
  }
  for (const ResultSet::Entry& entry : rs.tables()) {
    out << "\n# table " << entry.id << ": " << entry.title << "\n";
    out << entry.data.csv();
  }
  if (!rs.notes().empty()) out << "\n";
  for (const std::string& note : rs.notes()) {
    out << "# note: " << note << "\n";
  }
  return out.str();
}

std::string to_text(const RunMeta& meta, const ResultSet& rs) {
  std::ostringstream out;
  for (const ResultSet::Entry& entry : rs.tables()) {
    out << "\n=== " << entry.id << ": " << entry.title
        << " (scale: " << meta.scale << ") ===\n";
    entry.data.print(out, entry.id);
  }
  for (const std::string& note : rs.notes()) {
    out << note << "\n";
  }
  if (meta.metrics.present) {
    out << "\n--- metrics (obs scrape) ---\n";
    for (const RunMeta::Metric& m : meta.metrics.counters) {
      if (m.value != 0) out << m.name << ": " << m.value << "\n";
    }
    for (const RunMeta::Metric& m : meta.metrics.phase_ns) {
      if (m.value != 0) out << m.name << "_ns: " << m.value << "\n";
    }
    out << "barrier_wait_fraction: "
        << format_double(meta.metrics.barrier_wait_fraction, 6) << "\n";
    out << "pipeline_fill_fraction: "
        << format_double(meta.metrics.pipeline_fill_fraction, 6) << "\n";
    out << "effective_parallelism: "
        << format_double(meta.metrics.effective_parallelism, 2) << "\n";
  }
  return out.str();
}

}  // namespace rbb::runner
