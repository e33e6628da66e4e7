#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "bench.h"
#include "types/date.h"

namespace cgqbench {

Trace MakeTrace(bool enabled) {
  Trace trace;
  if (enabled) {
    trace.session = std::make_unique<cgq::TraceSession>(
        "cgq_bench", cgq::TraceClock::kWall);
  }
  return trace;
}

std::map<std::string, double> SelfMs(const cgq::TraceSession& session) {
  // Canonical spans come in preorder: a span's parent is the last span
  // seen one level up.
  const std::vector<cgq::CanonicalSpan> spans = session.CanonicalSpans();
  std::vector<double> self_us(spans.size());
  std::vector<size_t> ancestors;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto depth = static_cast<size_t>(spans[i].depth);
    ancestors.resize(depth);
    self_us[i] = static_cast<double>(spans[i].dur);
    if (depth > 0) self_us[ancestors.back()] -= self_us[i];
    ancestors.push_back(i);
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += self_us[i] / 1000.0;
  }
  return out;
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 0.5); }

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double idx = p * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1 - frac) + xs[hi] * frac;
}

double Geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double log_sum = 0;
  for (double x : xs) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ValueJson(const cgq::Value& v, cgq::DataType type) {
  if (v.is_null()) return "null";
  if (v.is_int64() && type == cgq::DataType::kDate) {
    return JsonString(cgq::FormatDate(v.int64()));
  }
  if (v.is_int64()) return std::to_string(v.int64());
  if (v.is_double()) return JsonNumber(v.dbl());
  return JsonString(v.str());
}

std::string RowsJson(const std::vector<cgq::Row>& rows,
                     const std::vector<cgq::DataType>& types) {
  std::string out = "[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out += ",";
    out += "[";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += ",";
      out += ValueJson(rows[r][c],
                       c < types.size() ? types[c] : cgq::DataType::kInt64);
    }
    out += "]";
  }
  return out + "]";
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '\\') {
      *out += "\\\\";
    } else if (c == '\t') {
      *out += "\\t";
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      *out += c;
    }
  }
}

}  // namespace

std::string RowTsv(const cgq::Row& row,
                   const std::vector<cgq::DataType>& types) {
  std::string out;
  for (size_t c = 0; c < row.size(); ++c) {
    if (c > 0) out += '\t';
    const cgq::Value& v = row[c];
    if (v.is_null()) {
      out += "\\N";
    } else if (v.is_int64() && c < types.size() &&
               types[c] == cgq::DataType::kDate) {
      out += cgq::FormatDate(v.int64());
    } else if (v.is_int64()) {
      out += std::to_string(v.int64());
    } else if (v.is_double()) {
      out += JsonNumber(v.dbl());
    } else {
      AppendEscaped(v.str(), &out);
    }
  }
  return out;
}

bool WriteTableTsv(const std::string& path, const cgq::TableDef& table,
                   const std::vector<cgq::Row>& rows) {
  std::string out;
  for (size_t c = 0; c < table.schema.num_columns(); ++c) {
    if (c > 0) out += '\t';
    out += table.schema.column(c).name;
    out += ':';
    out += cgq::DataTypeToString(table.schema.column(c).type);
  }
  out += '\n';
  const std::vector<cgq::DataType> types = ColumnTypes(table);
  for (const cgq::Row& row : rows) {
    out += RowTsv(row, types);
    out += '\n';
  }
  return WriteFile(path, out);
}

std::vector<cgq::DataType> ColumnTypes(const cgq::TableDef& table) {
  std::vector<cgq::DataType> types;
  for (const cgq::ColumnDef& col : table.schema.columns()) {
    types.push_back(col.type);
  }
  return types;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << content;
  return static_cast<bool>(f);
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

int64_t ProcessWrittenBytes() {
  std::ifstream f("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (f >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

namespace {

void CollectScans(const cgq::PlanNode& node,
                  const cgq::LocationCatalog& locations,
                  std::set<std::pair<std::string, std::string>>* out) {
  if (node.kind() == cgq::PlanKind::kScan) {
    out->emplace(node.table, locations.GetName(node.scan_location));
  }
  for (const cgq::PlanNodePtr& child : node.children()) {
    CollectScans(*child, locations, out);
  }
}

void CollectEdges(const cgq::PlanNode& node,
                  const cgq::LocationCatalog& locations,
                  std::vector<std::string>* edges) {
  if (node.kind() == cgq::PlanKind::kShip) {
    std::set<std::pair<std::string, std::string>> scans;
    CollectScans(node, locations, &scans);
    std::string edge = "{\"from\":";
    edge += JsonString(locations.GetName(node.ship_from));
    edge += ",\"to\":";
    edge += JsonString(locations.GetName(node.ship_to));
    edge += ",\"scans\":[";
    for (const auto& [table, location] : scans) {
      if (edge.back() == ']') edge += ',';
      edge += '[';
      edge += JsonString(table);
      edge += ',';
      edge += JsonString(location);
      edge += ']';
    }
    edges->push_back(edge + "]}");
  }
  for (const cgq::PlanNodePtr& child : node.children()) {
    CollectEdges(*child, locations, edges);
  }
}

}  // namespace

std::string ShipEdgesJson(const std::string& query_id,
                          const cgq::PlanNode& root,
                          const cgq::LocationCatalog& locations) {
  std::vector<std::string> edges;
  CollectEdges(root, locations, &edges);
  std::string out = "{\"query\":" + JsonString(query_id) + ",\"edges\":[";
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) out += ",";
    out += edges[i];
  }
  return out + "]}";
}

}  // namespace cgqbench
