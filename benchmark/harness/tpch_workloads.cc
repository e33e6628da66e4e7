// The three TPC-H workloads: tpch-mem, tpch-disk and tpch-dist.
//
// All three run the same 12 queries over the same sf 0.05 data under the
// curated CR+A policy set, one client, closed loop, vector backend. They
// differ only in where the data lives: in memory, in the per-location
// storage engine (with a per-query memory budget that forces the grace
// spill join), or in three cgq_sited processes over loopback TCP. Between
// query rounds the client appends orders/lineitem rows, acknowledged
// before the next round starts: AppendRows on the local store, or a
// LoadTable append frame to the hosting server.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>

#include "bench.h"
#include "common/rng.h"
#include "core/compliance_checker.h"
#include "core/engine.h"
#include "core/policy_evaluator.h"
#include "exec/batch.h"
#include "exec/executor.h"
#include "net/cluster_client.h"
#include "net/socket.h"
#include "net/wire_protocol.h"
#include "plan/query_planner.h"
#include "plan/summary.h"
#include "sql/parser.h"
#include "tpch/tpch.h"

namespace cgqbench {
namespace {

using cgq::Engine;
using cgq::ExecMode;
using cgq::ExecutorOptions;
using cgq::LocationId;
using cgq::OptimizedQuery;
using cgq::PlanKind;
using cgq::PlanNode;
using cgq::QueryResult;
using cgq::Row;
using cgq::Status;

constexpr double kScaleFactor = 0.05;
constexpr int kQueries[] = {2, 3, 5, 8, 9, 10, 1, 4, 6, 12, 14, 19};
/// Append batches between two query rounds; each batch is one orders and
/// one lineitem write. The batches are small, so the tables grow by about
/// 0.02% a round: a run's later rounds query nearly the data of its first,
/// and a faster build that completes more rounds does not query more data.
constexpr int kBatchesPerRound = 8;
constexpr int kOrdersPerBatch = 2;
/// tpch-disk budget: this share of the query's largest hash-join build
/// side (measured once on the row backend), so the big joins spill.
constexpr double kBudgetShare = 0.5;

enum class Kind { kMem, kDisk, kDist };

Kind KindOf(const std::string& workload) {
  if (workload == "tpch-disk") return Kind::kDisk;
  if (workload == "tpch-dist") return Kind::kDist;
  return Kind::kMem;
}

struct SetupTimes {
  double generate_ms = 0;
  double install_ms = 0;
  double ingest_ms = 0;
  double deploy_ms = 0;
  double Total() const {
    return generate_ms + install_ms + ingest_ms + deploy_ms;
  }
};

/// One append batch: new orders (fresh keys) cloned from generated ones,
/// with their lineitems.
struct AppendBatch {
  std::vector<Row> orders;
  std::vector<Row> lineitems;
};

/// Orders and their lineitems sampled from the generated data; append
/// batches clone them under fresh order keys.
struct AppendPool {
  std::vector<Row> orders;
  std::vector<std::vector<Row>> lines;  ///< parallel to orders
  int64_t next_orderkey = 0;

  AppendBatch Next(cgq::Rng* rng) {
    AppendBatch batch;
    for (int i = 0; i < kOrdersPerBatch; ++i) {
      const size_t pick = static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(orders.size()) - 1));
      const int64_t key = next_orderkey++;
      Row order = orders[pick];
      order[0] = cgq::Value::Int64(key);
      batch.orders.push_back(std::move(order));
      for (Row line : lines[pick]) {
        line[0] = cgq::Value::Int64(key);
        batch.lineitems.push_back(std::move(line));
      }
    }
    return batch;
  }
};

AppendPool BuildAppendPool(const cgq::TableStore& store, LocationId orders_at,
                           LocationId lineitem_at, uint64_t seed) {
  AppendPool pool;
  auto orders = store.Get(orders_at, "orders");
  auto lines = store.Get(lineitem_at, "lineitem");
  if (!orders.ok() || !lines.ok()) return pool;
  std::unordered_map<int64_t, std::vector<Row>> by_order;
  for (const Row& line : **lines) by_order[line[0].int64()].push_back(line);
  cgq::Rng rng(seed * 7919 + 3);
  const std::vector<Row>& all = **orders;
  for (int i = 0; i < 2000; ++i) {
    const Row& order = all[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(all.size()) - 1))];
    pool.orders.push_back(order);
    pool.lines.push_back(by_order[order[0].int64()]);
  }
  int64_t max_key = 0;
  for (const Row& order : all) max_key = std::max(max_key, order[0].int64());
  pool.next_orderkey = max_key + 1;
  return pool;
}

double BatchBytes(const std::vector<Row>& rows) {
  cgq::RowBatch batch;
  batch.rows = rows;
  return batch.ByteSize();
}

/// Sends rows to the server hosting `location` as one LoadTable append
/// frame and waits for its acknowledgement (the deployment's write path).
cgq::Result<int64_t> WireAppend(const cgq::net::ClusterClient& cluster,
                                LocationId location, const std::string& table,
                                std::vector<Row> rows) {
  CGQ_ASSIGN_OR_RETURN(cgq::net::Socket socket,
                       cluster.Dial(location, cluster.io_timeout_ms));
  cgq::wire::LoadTable load;
  load.location = location;
  load.table = table;
  load.replace = false;
  load.rows = std::move(rows);
  CGQ_RETURN_NOT_OK(cgq::net::SendFrame(socket, cgq::wire::FrameType::kLoadTable,
                                        load.Encode(), cluster.io_timeout_ms));
  CGQ_ASSIGN_OR_RETURN(cgq::net::Frame reply,
                       cgq::net::RecvFrame(socket, cluster.io_timeout_ms));
  if (reply.type != cgq::wire::FrameType::kLoadAck) {
    return Status::Internal(std::string("append: expected LoadAck, got ") +
                            cgq::wire::FrameTypeToString(reply.type));
  }
  CGQ_ASSIGN_OR_RETURN(cgq::wire::LoadAck ack,
                       cgq::wire::LoadAck::Decode(reply.payload));
  return ack.fragment_rows;
}

/// Maximal subtrees whose scans all sit at one location, with that
/// location: the single-database blocks policy evaluation applies to.
int CollectBlocks(const PlanNode& node,
                  std::vector<std::pair<const PlanNode*, LocationId>>* out) {
  if (node.kind() == PlanKind::kScan) {
    return static_cast<int>(node.scan_location);
  }
  std::vector<int> child_locs;
  for (const cgq::PlanNodePtr& child : node.children()) {
    child_locs.push_back(CollectBlocks(*child, out));
  }
  const bool ship = node.kind() == PlanKind::kShip;
  int common = child_locs.empty() ? -1 : child_locs[0];
  for (int loc : child_locs) {
    if (loc != common) common = -1;
  }
  if (!ship && common >= 0) return common;
  // This node mixes locations (or is a SHIP): its single-location
  // children are maximal blocks.
  for (size_t i = 0; i < child_locs.size(); ++i) {
    if (child_locs[i] >= 0) {
      out->emplace_back(node.child(i).get(),
                        static_cast<LocationId>(child_locs[i]));
    }
  }
  return -1;
}

void CollectScanNodes(const PlanNode& node,
                      std::set<std::pair<LocationId, std::string>>* out) {
  if (node.kind() == PlanKind::kScan) {
    out->emplace(node.scan_location, node.table);
  }
  for (const cgq::PlanNodePtr& child : node.children()) {
    CollectScanNodes(*child, out);
  }
}

std::vector<cgq::DataType> OutputTypes(const OptimizedQuery& q,
                                       size_t width) {
  std::vector<cgq::DataType> types;
  for (const cgq::OutputCol& col : q.plan->outputs) types.push_back(col.type);
  if (types.size() != width) types.assign(width, cgq::DataType::kInt64);
  return types;
}

/// Layer timings and counters of a traced run, summed over all queries.
struct LayerTotals {
  double explore_ms = 0, annotate_ms = 0, site_ms = 0;
  double memo_exprs = 0;
  double rows_scanned = 0, blocks_read = 0;
  double spill_ms = 0, spill_bytes = 0, spill_partitions = 0;
  double fragment_wall_ms = 0;
  double min_coverage = 1;
};

}  // namespace

int RunTpch(const Options& options, RunOutput* out) {
  const Kind kind = KindOf(options.workload);
  Trace trace = MakeTrace(options.trace);
  namespace fs = std::filesystem;

  cgq::tpch::TpchConfig config;
  config.scale_factor = kScaleFactor;
  config.seed = options.seed;

  std::map<LocationId, cgq::net::Endpoint> endpoints;
  if (kind == Kind::kDist) {
    auto parsed = cgq::net::ParseHostsFile(options.hosts_file);
    if (!parsed.ok()) {
      out->notes.push_back("hosts file: " + parsed.status().ToString());
      return 1;
    }
    endpoints = *parsed;
  }

  std::vector<std::string> sqls;
  for (int number : kQueries) {
    auto sql = cgq::tpch::Query(number);
    if (!sql.ok()) return 1;
    sqls.push_back(*sql);
  }

  // --- Set-up, repeated; the last repetition's engine is measured. ---
  std::unique_ptr<Engine> engine;
  std::vector<SetupTimes> setups;
  std::vector<int64_t> budgets(sqls.size(), 0);
  AppendPool pool;
  std::string data_dir;
  std::map<std::string, size_t> base_rows;  // table -> rows at its home
  for (int rep = 0; rep < kSetups; ++rep) {
    engine.reset();
    if (!data_dir.empty()) fs::remove_all(data_dir);
    SetupTimes t;
    auto catalog = cgq::tpch::BuildCatalog(config);
    if (!catalog.ok()) return 1;
    engine = std::make_unique<Engine>(std::move(*catalog),
                                      cgq::NetworkModel::DefaultGeo(5));
    {
      ScopedSpan span(&trace, "tpch.generate");
      const auto t0 = Clock::now();
      Status s = cgq::tpch::GenerateData(engine->catalog(), config,
                                         &engine->store());
      t.generate_ms = MsSince(t0);
      if (!s.ok()) return 1;
    }
    {
      ScopedSpan span(&trace, "core.policy_install");
      const auto t0 = Clock::now();
      Status s = cgq::tpch::InstallPolicySet("CRA", &engine->policies());
      t.install_ms = MsSince(t0);
      if (!s.ok()) return 1;
    }
    if (rep == 0) {
      // Inputs of the checks and the append stream, made once from the
      // generated data and never timed.
      fs::create_directories(options.out_dir + "/data");
      for (const auto& name : {"region", "nation", "supplier", "part",
                               "partsupp", "customer", "orders",
                               "lineitem"}) {
        auto def = engine->catalog().GetTable(name);
        if (!def.ok()) return 1;
        std::vector<Row> rows;
        for (const auto& frag : (*def)->fragments) {
          auto got = engine->store().Get(frag.location, name);
          if (got.ok()) rows.insert(rows.end(), (*got)->begin(), (*got)->end());
        }
        base_rows[name] = rows.size();
        WriteTableTsv(options.out_dir + "/data/" + name + ".tsv", **def, rows);
      }
      // The installed policy texts, at every location holding a fragment
      // of their table (how InstallPolicySet registers them).
      auto texts = cgq::tpch::PolicySet("CRA");
      if (!texts.ok()) return 1;
      std::string policies_tsv;
      for (const std::string& text : *texts) {
        const size_t from = text.find("from ") + 5;
        auto def = engine->catalog().GetTable(
            text.substr(from, text.find(' ', from) - from));
        if (!def.ok()) return 1;
        for (LocationId loc : (*def)->LocationsOf().ToVector()) {
          policies_tsv += engine->catalog().locations().GetName(loc) + "\t" +
                          text + "\n";
        }
      }
      WriteFile(options.out_dir + "/policies.tsv", policies_tsv);
      pool = BuildAppendPool(
          engine->store(), (*engine->catalog().GetTable("orders"))->home(),
          (*engine->catalog().GetTable("lineitem"))->home(), options.seed);
      if (kind == Kind::kDisk) {
        // Largest hash-join build side per query, from the row backend.
        ExecutorOptions row;
        row.mode = ExecMode::kRow;
        for (size_t i = 0; i < sqls.size(); ++i) {
          auto q = engine->Optimize(sqls[i]);
          if (!q.ok()) continue;
          cgq::Executor executor(&engine->store(), &engine->net(), row);
          auto r = executor.Execute(*q);
          if (r.ok() && r->metrics.max_build_bytes > 0) {
            budgets[i] = std::max<int64_t>(
                1, static_cast<int64_t>(kBudgetShare *
                                        r->metrics.max_build_bytes));
          }
        }
      }
    }
    if (kind == Kind::kDisk) {
      data_dir = options.out_dir + "/store-" + std::to_string(rep);
      ScopedSpan span(&trace, "storage.ingest");
      const auto t0 = Clock::now();
      Status s = engine->EnableDiskStorage(data_dir);
      t.ingest_ms = MsSince(t0);
      if (!s.ok()) {
        out->notes.push_back("ingest: " + s.ToString());
        return 1;
      }
    }
    if (kind == Kind::kDist) {
      ScopedSpan span(&trace, "net.deploy");
      const auto t0 = Clock::now();
      Status s = engine->ConnectCluster(endpoints);
      if (s.ok()) s = engine->DeployStore();
      t.deploy_ms = MsSince(t0);
      if (!s.ok()) {
        out->notes.push_back("deploy: " + s.ToString());
        return 1;
      }
    }
    setups.push_back(t);
  }

  ExecutorOptions exec = engine->default_exec_options();
  exec.mode = kind == Kind::kDist ? ExecMode::kDistributed : ExecMode::kVector;
  exec.spill_dir = options.out_dir + "/spill";  // stay inside the checkout
  // tpch-dist: the coordinator dispatches and relays fragments in turn
  // rather than on a thread per fragment. Four processes already share
  // the machine's cores; with a coordinator thread per fragment the
  // geomean moved by 0.14 (spread over five seeds) on an idle machine.
  if (kind == Kind::kDist) exec.threads = 1;
  const cgq::OptimizerOptions opt = engine->default_options();
  const cgq::LocationCatalog& locations = engine->catalog().locations();
  const LocationId orders_at =
      (*engine->catalog().GetTable("orders"))->home();
  const LocationId lineitem_at =
      (*engine->catalog().GetTable("lineitem"))->home();

  // --- Timed phase: whole rounds of 12 queries + append batches. ---
  cgq::Rng append_rng(options.seed * 104729 + 17);
  std::vector<std::vector<double>> latency(sqls.size());
  std::vector<double> write_ms;
  double written_row_bytes = 0, written_process_bytes = 0;
  double round0_bytes = 0, round0_wan_ms = 0;
  std::vector<std::string> last_answers(sqls.size());
  std::set<std::string> edge_sets;
  std::vector<AppendBatch> appended;
  LayerTotals layers;
  int rounds = 0;
  int64_t queries_run = 0;
  const auto phase_start = Clock::now();
  const double budget_ms = options.seconds * 1000.0;
  cgq::QueryOptimizer optimizer(&engine->catalog(), &engine->policies(),
                                &engine->net(), opt);
  cgq::PolicyEvaluator evaluator(&engine->catalog(), &engine->policies());
  do {
    for (size_t i = 0; i < sqls.size(); ++i) {
      ++out->attempted;
      const int64_t request = queries_run++;
      ExecutorOptions qexec = exec;
      qexec.memory_budget_bytes = budgets[i];
      cgq::Result<OptimizedQuery> q = Status::Internal("not run");
      cgq::Result<QueryResult> r = Status::Internal("not run");
      // Engine::Run without a plan cache is exactly parse, optimize and
      // execute; making the calls here times each layer and keeps the
      // executed plan visible to the SHIP-edge check.
      const auto t0 = Clock::now();
      double execute_ms = 0, parse_opt_exec_ms = 0;
      {
        ScopedSpan root(&trace, "query", request);
        const auto s0 = Clock::now();
        cgq::Result<cgq::QueryAst> ast = Status::Internal("not parsed");
        {
          ScopedSpan span(&trace, "sql.parse");
          ast = cgq::ParseQuery(sqls[i]);
        }
        if (ast.ok()) {
          ScopedSpan span(&trace, "optimizer.optimize");
          q = optimizer.OptimizeAst(*ast);
        } else {
          q = ast.status();
        }
        if (q.ok()) {
          ScopedSpan span(&trace, "exec.execute");
          const auto e0 = Clock::now();
          r = cgq::Executor(&engine->store(), &engine->net(), qexec)
                  .Execute(*q);
          execute_ms = MsSince(e0);
        }
        parse_opt_exec_ms = MsSince(s0);
      }
      const double ms = MsSince(t0);
      if (!q.ok() || !r.ok()) {
        ++out->failed;
        out->notes.push_back("Q" + std::to_string(kQueries[i]) + ": " +
                             (q.ok() ? r.status() : q.status()).ToString());
        continue;
      }
      // The budget must send the query down the spill path on every run,
      // or tpch-disk would stop measuring exec/spill_join and only look
      // faster.
      if (budgets[i] > 0 && r->metrics.spill_partitions == 0) {
        out->notes.push_back("Q" + std::to_string(kQueries[i]) +
                             ": did not spill under its budget of " +
                             std::to_string(budgets[i]) + " bytes");
      }
      latency[i].push_back(ms);
      if (rounds == 0) {
        round0_bytes += r->metrics.bytes_shipped;
        round0_wan_ms += r->metrics.network_ms;
      }
      edge_sets.insert(ShipEdgesJson("Q" + std::to_string(kQueries[i]),
                                     *q->plan, locations));
      const std::string answer =
          "{\"id\":\"Q" + std::to_string(kQueries[i]) + "/round" +
          std::to_string(rounds) + "\",\"query\":" +
          std::to_string(kQueries[i]) +
          ",\"batches\":" + std::to_string(appended.size()) +
          ",\"rows\":" + RowsJson(r->rows, OutputTypes(*q, r->rows.empty()
                                                           ? 0
                                                           : r->rows[0].size())) +
          "}";
      if (rounds == 0) out->answers.push_back(answer);
      last_answers[i] = answer;

      if (trace.enabled()) {
        const cgq::OptimizationStats& st = q->stats;
        layers.explore_ms += st.explore_ms;
        layers.annotate_ms += st.annotate_ms;
        layers.site_ms += st.site_ms;
        layers.memo_exprs += static_cast<double>(st.memo_exprs);
        layers.rows_scanned += static_cast<double>(r->metrics.rows_scanned);
        layers.blocks_read +=
            static_cast<double>(r->metrics.storage_blocks_read);
        layers.spill_bytes += static_cast<double>(r->metrics.spill_bytes);
        layers.spill_partitions +=
            static_cast<double>(r->metrics.spill_partitions);
        for (const cgq::FragmentMetrics& f : r->metrics.fragments) {
          layers.fragment_wall_ms += f.wall_ms;
        }
        layers.min_coverage =
            std::min(layers.min_coverage, parse_opt_exec_ms / ms);
        // Probes: each layer called on its own, outside the query span.
        {
          ScopedSpan span(&trace, "plan.bind", request);
          auto ast = cgq::ParseQuery(sqls[i]);
          cgq::PlannerContext ctx(&engine->catalog());
          if (ast.ok()) (void)cgq::PlanQueryAst(*ast, &ctx);
        }
        {
          std::vector<std::pair<const PlanNode*, LocationId>> blocks;
          const int whole = CollectBlocks(*q->plan, &blocks);
          if (whole >= 0) {
            blocks.emplace_back(q->plan.get(), static_cast<LocationId>(whole));
          }
          ScopedSpan span(&trace, "core.policy_eval", request);
          for (const auto& [node, loc] : blocks) {
            cgq::QuerySummary summary = cgq::SummarizePlan(*node);
            if (summary.IsSingleDatabaseBlock()) {
              (void)evaluator.Evaluate(summary, loc);
            }
          }
        }
        {
          ScopedSpan span(&trace, "core.compliance_check", request);
          cgq::ComplianceReport report =
              cgq::CheckCompliance(*q->plan, evaluator, locations);
          if (!report.compliant) {
            out->notes.push_back("Q" + std::to_string(kQueries[i]) +
                                 ": CheckCompliance rejected the plan");
          }
        }
        if (kind != Kind::kDist) {
          std::set<std::pair<LocationId, std::string>> scans;
          CollectScanNodes(*q->plan, &scans);
          ScopedSpan span(&trace, "storage.scan", request);
          for (const auto& [loc, table] : scans) {
            int64_t blocks = 0;
            auto cols = engine->store().GetColumnar(loc, table, &blocks);
            (void)cols;
          }
        }
        if (budgets[i] > 0) {
          ExecutorOptions unbounded = exec;
          const auto u0 = Clock::now();
          {
            ScopedSpan span(&trace, "exec.unbounded", request);
            (void)cgq::Executor(&engine->store(), &engine->net(), unbounded)
                .Execute(*q);
          }
          const double unbounded_ms = MsSince(u0);
          layers.spill_ms += execute_ms - unbounded_ms;
        }
      }
    }
    // Appends between rounds; each write is acknowledged before the next.
    for (int b = 0; b < kBatchesPerRound; ++b) {
      AppendBatch batch = pool.Next(&append_rng);
      const std::pair<LocationId, std::string> targets[] = {
          {orders_at, "orders"}, {lineitem_at, "lineitem"}};
      for (const auto& [loc, table] : targets) {
        std::vector<Row> rows =
            table == "orders" ? batch.orders : batch.lineitems;
        const double row_bytes = BatchBytes(rows);
        ++out->attempted;
        const int64_t wrote_before = ProcessWrittenBytes();
        const auto t0 = Clock::now();
        Status s;
        {
          ScopedSpan span(&trace, "storage.append");
          if (kind == Kind::kDist) {
            s = WireAppend(engine->cluster(), loc, table, std::move(rows))
                    .status();
          } else {
            s = engine->store().AppendRows(loc, table, std::move(rows));
          }
        }
        write_ms.push_back(MsSince(t0));
        if (!s.ok()) {
          ++out->failed;
          out->notes.push_back("append " + table + ": " + s.ToString());
          continue;
        }
        written_row_bytes += row_bytes;
        written_process_bytes +=
            static_cast<double>(ProcessWrittenBytes() - wrote_before);
      }
      appended.push_back(std::move(batch));
    }
    ++rounds;
  } while (MsSince(phase_start) < budget_ms);

  if (rounds > 1) {
    for (const std::string& a : last_answers) {
      if (!a.empty()) out->answers.push_back(a);
    }
  }
  for (const std::string& e : edge_sets) out->edges.push_back(e);

  // Append stream for the answer oracle: batches applied before each
  // round are named by count in every answer.
  {
    fs::create_directories(options.out_dir + "/appends");
    const cgq::TableDef* orders_def = *engine->catalog().GetTable("orders");
    const cgq::TableDef* lineitem_def =
        *engine->catalog().GetTable("lineitem");
    std::string orders_tsv, lineitem_tsv;
    const auto otypes = ColumnTypes(*orders_def);
    const auto ltypes = ColumnTypes(*lineitem_def);
    for (size_t b = 0; b < appended.size(); ++b) {
      for (const Row& row : appended[b].orders) {
        orders_tsv += std::to_string(b) + "\t" + RowTsv(row, otypes) + "\n";
      }
      for (const Row& row : appended[b].lineitems) {
        lineitem_tsv += std::to_string(b) + "\t" + RowTsv(row, ltypes) + "\n";
      }
    }
    WriteFile(options.out_dir + "/appends/orders.tsv", orders_tsv);
    WriteFile(options.out_dir + "/appends/lineitem.tsv", lineitem_tsv);
  }

  // --- Metrics. ---
  std::vector<double> medians, setup_ms;
  for (const auto& l : latency) {
    if (!l.empty()) medians.push_back(Median(l));
  }
  for (const SetupTimes& t : setups) setup_ms.push_back(t.Total());
  std::map<std::string, double>& m = out->metrics;
  m["setup_s"] = Median(setup_ms) / 1000.0;
  m["query_geomean_ms"] = Geomean(medians);
  // Queries per second of a round in which each query takes its median
  // latency (appends are timed apart): a busy moment of the machine moves
  // the medians less than it would move a total.
  double median_sum_ms = 0;
  for (double ms : medians) median_sum_ms += ms;
  m["throughput_qps"] =
      median_sum_ms > 0
          ? static_cast<double>(medians.size()) / (median_sum_ms / 1000.0)
          : 0;
  m["shipped_bytes"] = round0_bytes;
  m["sim_wan_ms"] = round0_wan_ms;

  const double n = std::max<double>(1, static_cast<double>(queries_run));
  if (trace.enabled()) {
    const std::map<std::string, double> self = SelfMs(*trace.session);
    auto per_query = [&](const char* span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second / n;
    };
    auto median_of = [&](double SetupTimes::*field) {
      std::vector<double> xs;
      for (const SetupTimes& t : setups) xs.push_back(t.*field);
      return Median(xs);
    };
    m["sql.parse_ms"] = per_query("sql.parse");
    m["plan.bind_ms"] = per_query("plan.bind");
    m["optimizer.optimize_ms"] = per_query("optimizer.optimize");
    m["optimizer.explore_ms"] = layers.explore_ms / n;
    m["optimizer.memo_exprs"] = layers.memo_exprs / n;
    m["core.annotate_ms"] = layers.annotate_ms / n;
    m["core.site_select_ms"] = layers.site_ms / n;
    m["core.policy_eval_ms"] = per_query("core.policy_eval");
    m["core.implication_tests"] =
        static_cast<double>(evaluator.stats().implication_tests) / n;
    m["core.compliance_check_ms"] = per_query("core.compliance_check");
    m["core.policy_install_ms"] = median_of(&SetupTimes::install_ms);
    m["exec.execute_ms"] = per_query("exec.execute");
    m["exec.rows_scanned"] = layers.rows_scanned / n;
    m["exec.spill_ms"] = layers.spill_ms / n;
    m["exec.spill_bytes"] = layers.spill_bytes / n;
    m["exec.spill_partitions"] = layers.spill_partitions / n;
    m["storage.scan_ms"] = per_query("storage.scan");
    m["storage.blocks_read"] = layers.blocks_read / n;
    m["storage.append_ms"] = Median(write_ms);
    m["storage.write_amplification"] =
        written_row_bytes > 0 ? written_process_bytes / written_row_bytes : 0;
    m["storage.ingest_ms"] = median_of(&SetupTimes::ingest_ms);
    m["net.deploy_ms"] = median_of(&SetupTimes::deploy_ms);
    m["net.fragment_wall_ms"] = layers.fragment_wall_ms / n;
    m["tpch.generate_ms"] = median_of(&SetupTimes::generate_ms);
    m["trace.coverage"] = layers.min_coverage;
    if (layers.min_coverage < 0.95) {
      out->notes.push_back("top-level spans cover only " +
                           std::to_string(layers.min_coverage) +
                           " of a query's wall time");
    }
    if (kind == Kind::kDist) {
      // Wire codec: Writer/Reader round trip of every base fragment in
      // batch-size RowBatches.
      double bytes = 0;
      const auto t0 = Clock::now();
      {
        ScopedSpan span(&trace, "net.codec");
        for (const auto& frag : engine->store().ListFragments()) {
          auto rows = engine->store().Get(frag.location, frag.table);
          if (!rows.ok()) continue;
          cgq::RowBatch batch;
          const size_t width = (*rows)->empty() ? 0 : (**rows)[0].size();
          std::vector<cgq::AttrId> attrs;
          for (size_t c = 0; c < width; ++c) {
            attrs.push_back(static_cast<cgq::AttrId>(c));
          }
          batch.layout = cgq::RowLayout(attrs);
          for (size_t at = 0; at < (*rows)->size();
               at += cgq::kDefaultBatchSize) {
            const size_t end = std::min((*rows)->size(),
                                        at + cgq::kDefaultBatchSize);
            batch.rows.assign((*rows)->begin() + static_cast<long>(at),
                              (*rows)->begin() + static_cast<long>(end));
            cgq::wire::Writer w;
            w.PutBatch(batch);
            bytes += static_cast<double>(w.buffer().size());
            cgq::wire::Reader reader(w.buffer());
            auto back = reader.ReadBatch();
            if (!back.ok() || back->rows.size() != batch.rows.size()) {
              out->notes.push_back("wire codec round trip lost rows");
            }
          }
        }
      }
      const double s = MsSince(t0) / 1000.0;
      m["net.codec_mb_s"] = s > 0 ? bytes / (1024.0 * 1024.0) / s : 0;
    }
    WriteFile(options.out_dir + "/spans.json", trace.session->ToChromeJson());
  }

  // --- Write-path check (tpch-disk): reopen the directory in a fresh
  // TableStore, which runs recovery, and hand back what it holds. ---
  std::string extra = "{\"rounds\":" + std::to_string(rounds) +
                      ",\"append_batches\":" +
                      std::to_string(appended.size()) + ",\"budgets\":[";
  for (size_t i = 0; i < budgets.size(); ++i) {
    extra += (i ? "," : "") + std::to_string(budgets[i]);
  }
  extra += "],\"latency_ms\":[";
  for (size_t i = 0; i < latency.size(); ++i) {
    extra += i ? ",[" : "[";
    for (size_t j = 0; j < latency[i].size(); ++j) {
      extra += (j ? "," : "") + JsonNumber(latency[i][j]);
    }
    extra += "]";
  }
  extra += "]}";
  out->extra = extra;
  if (kind == Kind::kDisk) {
    m["storage.disk_bytes"] = static_cast<double>(DirectoryBytes(data_dir));
    const cgq::TableDef orders_def = **engine->catalog().GetTable("orders");
    const cgq::TableDef lineitem_def =
        **engine->catalog().GetTable("lineitem");
    engine.reset();  // closes the storage engine
    cgq::TableStore reopened;
    Status s = reopened.EnableDiskStorage(data_dir);
    std::string durability = "{\"reopen\":" + JsonString(s.ToString());
    fs::create_directories(options.out_dir + "/recovered");
    for (const auto& [def, loc] :
         {std::make_pair(&orders_def, orders_at),
          std::make_pair(&lineitem_def, lineitem_at)}) {
      auto count = reopened.FragmentRows(loc, def->name);
      const int64_t rows = count.ok() ? static_cast<int64_t>(*count) : -1;
      durability += ",\"" + def->name + "_rows\":" + std::to_string(rows);
      // The tail the appends should have produced, as recovered.
      std::string tail;
      if (s.ok()) {
        auto cursor = reopened.Scan(loc, def->name);
        const size_t base = base_rows[def->name];
        size_t index = 0;
        const auto types = ColumnTypes(*def);
        std::vector<Row> chunk;
        while (cursor.ok()) {
          auto more = cursor->Next(&chunk);
          if (!more.ok() || !*more) break;
          for (const Row& row : chunk) {
            if (index++ >= base) tail += RowTsv(row, types) + "\n";
          }
        }
      }
      WriteFile(options.out_dir + "/recovered/" + def->name + ".tsv", tail);
    }
    out->durability = durability + "}";
  } else {
    m["storage.disk_bytes"] = 0;
  }
  m["peak_rss_mb"] = PeakRssMb();
  return 0;
}

}  // namespace cgqbench
