// Shared pieces of the cgq benchmark harness: run options, the span
// recorder used by traced runs, metric collection and the dump formats
// the Python checks read (TSV tables, JSON answers, SHIP-edge lists).
//
// The harness reaches the program only through its public headers and
// times every layer from outside, by wrapping the calls it makes.

#ifndef CGQ_BENCHMARK_HARNESS_BENCH_H_
#define CGQ_BENCHMARK_HARNESS_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/trace.h"
#include "core/optimizer.h"
#include "plan/plan_node.h"
#include "types/value.h"

namespace cgqbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetups = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;     ///< run directory for dumps and result.json
  std::string hosts_file;  ///< tpch-dist: `host:port loc,...` lines
};

/// Spans of a traced run, kept in memory in a cgq::TraceSession on the
/// wall clock and written out when the run ends. The harness calls the
/// session's explicit BeginSpan/EndSpan and installs no trace context, so
/// the program's own code records no spans. Single-threaded: the traced
/// passes drive one request at a time.
struct Trace {
  std::unique_ptr<cgq::TraceSession> session;  ///< null when tracing is off
  int64_t open = -1;                           ///< innermost open span

  bool enabled() const { return session != nullptr; }
};

/// RAII span under the innermost open one, with the request id as a span
/// argument; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, int64_t request = -1)
      : trace_(trace), parent_(trace->open) {
    if (!trace->enabled()) return;
    id_ = trace->session->BeginSpan(name, parent_, -1, 0);
    if (request >= 0) trace->session->AddSpanArg(id_, "request", request);
    trace->open = id_;
  }
  ~ScopedSpan() {
    if (id_ < 0) return;
    trace_->session->EndSpan(id_);
    trace_->open = parent_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  int64_t parent_;
  int64_t id_ = -1;
};

/// A Trace that records when `enabled`.
Trace MakeTrace(bool enabled);
/// Self time (duration minus direct children) in ms, summed per span name.
std::map<std::string, double> SelfMs(const cgq::TraceSession& session);

/// What one run hands back to run.py (written as result.json).
struct RunOutput {
  std::map<std::string, double> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// JSON fragments, each a complete JSON value.
  std::vector<std::string> answers;  ///< {"id","sql_key","batches",...}
  std::vector<std::string> edges;    ///< distinct SHIP-edge sets
  std::vector<std::string> notes;    ///< human-readable failures
  std::string durability = "null";   ///< tpch-disk reopen summary
  std::string extra = "{}";          ///< workload-specific facts
};

// --- small numeric helpers ---
double Median(std::vector<double> xs);
double Percentile(std::vector<double> xs, double p);
double Geomean(const std::vector<double>& xs);
/// Peak resident set of this process in MiB (getrusage).
double PeakRssMb();

// --- JSON / TSV rendering ---
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);
/// Dates (int64 days in a kDate column) render as ISO 'YYYY-MM-DD'.
std::string ValueJson(const cgq::Value& v, cgq::DataType type);
std::string RowsJson(const std::vector<cgq::Row>& rows,
                     const std::vector<cgq::DataType>& types);
/// One TSV line per row; NULL is `\\N`, strings escape '\\', '\t' and
/// '\n', dates are ISO.
std::string RowTsv(const cgq::Row& row,
                   const std::vector<cgq::DataType>& types);
std::vector<cgq::DataType> ColumnTypes(const cgq::TableDef& table);
/// Writes `rows` of `table` with a `name:type` header line.
bool WriteTableTsv(const std::string& path, const cgq::TableDef& table,
                   const std::vector<cgq::Row>& rows);
bool WriteFile(const std::string& path, const std::string& content);
/// Bytes of all regular files under `dir`.
int64_t DirectoryBytes(const std::string& dir);
/// Bytes this process has written so far (/proc/self/io wchar).
int64_t ProcessWrittenBytes();

/// The SHIP edges of a located plan as a JSON object: each edge's
/// destination name and the (table, location name) of every base-table
/// scan under it. Shares nothing with the program's compliance code.
std::string ShipEdgesJson(const std::string& query_id,
                          const cgq::PlanNode& root,
                          const cgq::LocationCatalog& locations);

// --- workloads ---
int RunTpch(const Options& options, RunOutput* out);
int RunService(const Options& options, RunOutput* out);

}  // namespace cgqbench

#endif  // CGQ_BENCHMARK_HARNESS_BENCH_H_
