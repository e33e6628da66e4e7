// service-mix: a QueryService (one worker, 4 tenants) over sf 0.002 data
// and a generated 10k-expression F-template policy catalog on the default
// (flat) index.
//
// Most requests instantiate the four parameterized templates of
// bench_service with fresh literals (plan-cache hits that rebind and
// re-prove compliance); a small share are AdhocQueryGenerator queries of
// new shapes that miss the cache and run the full optimizer. Every
// tenant's results are delivered at the hub l4, the one site every
// generated catalog keeps feasible.
//
// A run has four phases. (1) Open loop at a fixed rate while a policy is
// added, and on the next tick removed again, through QueryService: the
// plan cache's write path beside its reads. (2) The run's ad-hoc queries,
// one at a time. (3) A closed loop that keeps kClosedLoopDepth template
// requests outstanding, so the worker never waits for the client: the
// latency and throughput of the service path. (4) The open-loop knee
// search. The end-to-end figures come from (2) and (3); the open-loop
// phases report per layer.
//
// The service runs one worker. With nproc workers the same closed loop
// gained at most 2x in throughput on 4 cores and its figures moved by up
// to 30% between runs of one build, too much to gate a change on.
//
// Unlike bench_service, the open-loop generator times each request from
// when it was due (so a stalled generator shows as latency, never hides
// queueing), records how late it submitted, runs at most nproc threads in
// total, and brackets the knee of the sustainable rate by observing a rate
// that fails.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/compliance_checker.h"
#include "core/engine.h"
#include "core/policy_evaluator.h"
#include "plan/query_planner.h"
#include "plan/summary.h"
#include "service/plan_cache.h"
#include "service/query_service.h"
#include "sql/param_normalizer.h"
#include "sql/parser.h"
#include "tpch/tpch.h"
#include "workload/policy_generator.h"
#include "workload/properties.h"
#include "workload/query_generator.h"

namespace cgqbench {
namespace {

using cgq::Engine;
using cgq::QueryService;
using cgq::Row;
using cgq::Status;

constexpr double kScaleFactor = 0.002;
constexpr size_t kPolicies = 10000;
constexpr int kTenants = 4;
/// Service workers, and the template requests the closed loop keeps
/// outstanding: one executing and two queued behind it.
constexpr int kWorkers = 1;
constexpr size_t kClosedLoopDepth = 3;
constexpr cgq::LocationId kHub = 3;  // l4
/// One open-loop arrival in this many is an ad-hoc query of a new shape.
constexpr int64_t kAdhocEvery = 200;
/// Ad-hoc queries of the ad-hoc pass.
constexpr int kAdhocPass = 16;
constexpr uint64_t kAdhocSeed = 7;
/// Offered rate of the churn phase, well below the knee.
constexpr double kFixedRateQps = 200;
/// One policy update (an add, or the remove of the last add) per interval.
constexpr double kChurnIntervalMs = 250;
/// A level of the knee search passes while the p99 latency from due time
/// and the p99 lateness of the generator both stay under this limit.
constexpr double kLatencyLimitMs = 50;
constexpr double kLevelMs = 500;
/// Shares of --seconds given to the churn phase and to the closed loop;
/// the knee search takes the time left.
constexpr double kChurnShare = 0.15;
constexpr double kClosedShare = 0.6;
/// The closed loop's throughput is the median of its completions per
/// window of this length.
constexpr double kThroughputWindowMs = 1000;
constexpr size_t kTemplates = 4;
constexpr int kAdhocClass = kTemplates;  // the class after the templates
/// Answer samples: one template request in kSampleEvery, at most
/// kMaxSamples per run.
constexpr int64_t kSampleEvery = 37;
constexpr int kMaxSamples = 40;

/// bench_service's template mix, with the literal values kept so the
/// answer oracle can instantiate its own SQLite text of each template.
struct Request {
  int cls = 0;  ///< template rank, or kAdhocClass
  std::string sql;
  std::vector<int64_t> params;
};

Request MakeTemplate(size_t rank, cgq::Rng* rng) {
  Request r;
  r.cls = static_cast<int>(rank);
  char buf[256];
  switch (rank) {
    case 0:
      r.params = {rng->Uniform(0, 4)};
      std::snprintf(buf, sizeof(buf),
                    "SELECT count(*) AS n FROM nation WHERE regionkey = %lld",
                    static_cast<long long>(r.params[0]));
      break;
    case 1:
      r.params = {rng->Uniform(0, 299)};
      std::snprintf(buf, sizeof(buf),
                    "SELECT name FROM customer WHERE custkey = %lld",
                    static_cast<long long>(r.params[0]));
      break;
    case 2:
      r.params = {rng->Uniform(0, 8999)};
      std::snprintf(
          buf, sizeof(buf),
          "SELECT count(*) AS n FROM orders WHERE totalprice > %lld.25",
          static_cast<long long>(r.params[0]));
      break;
    default:
      r.params = {rng->Uniform(0, 11), 12 + rng->Uniform(0, 12)};
      std::snprintf(buf, sizeof(buf),
                    "SELECT name FROM supplier WHERE nationkey IN (%lld, %lld)",
                    static_cast<long long>(r.params[0]),
                    static_cast<long long>(r.params[1]));
      break;
  }
  r.sql = buf;
  return r;
}

/// Zipfian rank (s = 1) over the templates: hottest first.
size_t ZipfRank(cgq::Rng* rng) {
  static const std::vector<double> cdf = [] {
    std::vector<double> w;
    double sum = 0;
    for (size_t r = 0; r < kTemplates; ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      w.push_back(sum);
    }
    for (double& x : w) x /= sum;
    return w;
  }();
  const double x = rng->NextDouble();
  for (size_t r = 0; r < cdf.size(); ++r) {
    if (x <= cdf[r]) return r;
  }
  return cdf.size() - 1;
}

/// The request stream of one run: templates and ad-hoc queries drawn
/// from the seed.
class RequestStream {
 public:
  RequestStream(const Engine* engine, const cgq::WorkloadProperties* props,
                uint64_t seed)
      : rng_(seed * 2654435761u + 1),
        arrivals_(AdhocShapes(engine, props)),
        pass_(AdhocShapes(engine, props)) {}

  Request Next() {
    // Ad-hoc arrivals sit at fixed positions of the stream, midway
    // between two policy updates of the churn phase.
    if (count_++ % kAdhocEvery == kAdhocEvery / 4) return Adhoc(&arrivals_);
    return NextTemplate();
  }
  Request NextTemplate() { return MakeTemplate(ZipfRank(&rng_), &rng_); }
  /// The ad-hoc pass draws from a stream of its own, so it runs the same
  /// shapes however long the churn phase before it was.
  Request NextAdhoc() { return Adhoc(&pass_); }

 private:
  // The ad-hoc shapes come from a fixed generator seed: their cost varies
  // tenfold from shape to shape, and a few of them per run would
  // otherwise decide the tail and the throughput.
  static cgq::AdhocQueryGenerator AdhocShapes(
      const Engine* engine, const cgq::WorkloadProperties* props) {
    cgq::QueryGeneratorConfig config;
    config.seed = kAdhocSeed;
    return cgq::AdhocQueryGenerator(&engine->catalog(), props, config);
  }
  static Request Adhoc(cgq::AdhocQueryGenerator* shapes) {
    Request r;
    r.cls = kAdhocClass;
    r.sql = shapes->Next();
    return r;
  }

  cgq::Rng rng_;
  cgq::AdhocQueryGenerator arrivals_;
  cgq::AdhocQueryGenerator pass_;
  int64_t count_ = 0;
};

/// Policy churn: texts to add, one at a time and in turn, each removed
/// again on the next tick.
class Churn {
 public:
  Churn(QueryService* service, std::vector<cgq::GeneratedPolicy> texts)
      : service_(service), texts_(std::move(texts)) {}

  /// Applies the next update; returns its latency, or nullopt on failure.
  std::optional<double> Step(std::string* error) {
    const auto t0 = Clock::now();
    Status s;
    if (added_id_ < 0) {
      const cgq::GeneratedPolicy& p = texts_[next_ % texts_.size()];
      ++next_;
      s = service_->AddPolicy(p.location, p.text);
      if (s.ok()) {
        // The new expression has the largest id at its location.
        const Engine& engine = *service_->engine();
        auto loc = engine.catalog().locations().GetId(p.location);
        if (loc.ok()) {
          for (const cgq::PolicyExpression& e :
               service_->engine()->policies().For(*loc)) {
            added_id_ = std::max(added_id_, e.id);
          }
        }
      }
    } else {
      s = service_->RemovePolicy(added_id_);
      added_id_ = -1;
    }
    const double ms = MsSince(t0);
    if (!s.ok()) {
      *error = s.ToString();
      return std::nullopt;
    }
    ++updates_;
    return ms;
  }
  int64_t updates() const { return updates_; }

 private:
  QueryService* service_;
  std::vector<cgq::GeneratedPolicy> texts_;
  size_t next_ = 0;
  int64_t added_id_ = -1;
  int64_t updates_ = 0;
};

struct Completed {
  int cls = 0;
  double latency_ms = 0;
  double bytes_shipped = 0;
  double network_ms = 0;
};

/// A submitted request awaiting its result, timed from `start`: its due
/// time in the open loop, its submission in the closed loop.
struct Pending {
  QueryService::TicketId ticket = 0;
  int tenant = 0;
  Clock::time_point start;
  Request request;
  bool sampled = false;
};

/// Outcomes of one phase: completed requests, generator lateness (open
/// loop), policy-update latencies, and the sampled answers and ad-hoc
/// requests the checks re-examine.
struct LevelResult {
  double rate = 0;
  std::vector<Completed> done;
  std::vector<double> lateness_ms;
  std::vector<double> update_ms;
  std::vector<double> finished_ms;  ///< closed loop: completion times
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> samples;  ///< sampled template answers (JSON)
  std::vector<Request> adhoc;        ///< ad-hoc requests issued
  std::vector<Request> sampled;      ///< the sampled requests

  /// Latency percentile over the requests of `cls` (every class when -1).
  double P(double p, int cls = -1) const {
    std::vector<double> xs;
    for (const Completed& c : done) {
      if (cls < 0 || c.cls == cls) xs.push_back(c.latency_ms);
    }
    return Percentile(xs, p);
  }
  bool Passes() const {
    return failed == 0 && P(0.99) <= kLatencyLimitMs &&
           Percentile(lateness_ms, 0.99) <= kLatencyLimitMs;
  }
  /// Records the outcome of `p`, which took `ms`, and its answer when it
  /// is sampled for the answer oracle.
  void Record(const Pending& p, const cgq::Result<cgq::QueryResult>& r,
              double ms) {
    if (!r.ok()) {
      ++failed;
      errors.push_back(p.request.sql + ": " + r.status().ToString());
      return;
    }
    done.push_back(Completed{p.request.cls, ms, r->metrics.bytes_shipped,
                             r->metrics.network_ms});
    if (!p.sampled) return;
    std::string params = "[";
    for (size_t i = 0; i < p.request.params.size(); ++i) {
      params += (i ? "," : "") + std::to_string(p.request.params[i]);
    }
    samples.push_back("{\"id\":\"service/" + std::to_string(p.ticket) +
                      "\",\"template\":" + std::to_string(p.request.cls) +
                      ",\"params\":" + params +
                      "],\"rows\":" + RowsJson(r->rows, {}) + "}");
    sampled.push_back(p.request);
  }
};

/// Waiter threads of the open loop: they collect submitted tickets in
/// submission order and record each outcome in a LevelResult.
class Collector {
 public:
  Collector(std::vector<QueryService::Session>* sessions, int waiters,
            LevelResult* out)
      : sessions_(sessions), out_(out) {
    for (int w = 0; w < waiters; ++w) threads_.emplace_back([this] { Wait(); });
  }
  ~Collector() { Finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Add(Pending p) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(p));
    cv_.notify_one();
  }
  /// Counts a request that failed before it got a ticket.
  void Fail(std::string error) {
    std::lock_guard<std::mutex> lock(mu_);
    ++out_->failed;
    out_->errors.push_back(std::move(error));
  }
  /// Waits for every ticket added so far and joins the threads.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

 private:
  void Wait() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      auto r = (*sessions_)[static_cast<size_t>(p.tenant)].Wait(p.ticket);
      const double ms = MsSince(p.start);
      std::lock_guard<std::mutex> lock(mu_);
      out_->Record(p, r, ms);
    }
  }

  std::vector<QueryService::Session>* sessions_;
  LevelResult* out_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool closed_ = false;
  std::vector<std::thread> threads_;
};

class LoadGenerator {
 public:
  LoadGenerator(std::vector<QueryService::Session>* sessions,
                RequestStream* stream, Churn* churn, int waiters,
                uint64_t seed)
      : sessions_(sessions),
        stream_(stream),
        churn_(churn),
        waiters_(waiters),
        sample_at_(static_cast<int64_t>(seed % kSampleEvery)) {}

  /// One open-loop level: `rate` arrivals per second for `window_ms`,
  /// uniformly spaced, submitted by the calling thread and timed from when
  /// they were due. With `churn`, policy updates run at their fixed
  /// interval inside the submitter.
  LevelResult Run(double rate, double window_ms, bool sample, bool churn) {
    LevelResult out;
    out.rate = rate;
    Collector collector(sessions_, waiters_, &out);
    const auto start = Clock::now();
    const auto interval = std::chrono::duration<double, std::milli>(1000.0 /
                                                                   rate);
    const int64_t arrivals =
        std::max<int64_t>(1, static_cast<int64_t>(window_ms * rate / 1000.0));
    auto next_churn =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(kChurnIntervalMs));
    for (int64_t k = 0; k < arrivals; ++k) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(interval * k);
      while (churn && next_churn <= due) {
        std::this_thread::sleep_until(next_churn);
        std::string error;
        ++out.attempted;
        std::optional<double> ms = churn_->Step(&error);
        if (ms.has_value()) {
          out.update_ms.push_back(*ms);
        } else {
          collector.Fail("policy update: " + error);
        }
        next_churn += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(kChurnIntervalMs));
      }
      std::this_thread::sleep_until(due);
      Request request = stream_->Next();
      const int tenant = static_cast<int>(k % kTenants);
      const bool sampled = sample && TakeSample(k, request);
      if (request.cls == kAdhocClass) out.adhoc.push_back(request);
      out.lateness_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
      ++out.attempted;
      auto ticket =
          (*sessions_)[static_cast<size_t>(tenant)].Submit(request.sql);
      if (!ticket.ok()) {
        collector.Fail(request.sql + ": " + ticket.status().ToString());
        continue;
      }
      collector.Add({*ticket, tenant, due, std::move(request), sampled});
    }
    collector.Finish();
    return out;
  }

  /// Closed loop at a fixed depth: the calling thread keeps `depth`
  /// template requests outstanding, and after each result submits the next
  /// one; each is timed from its submission. A depth above the service's
  /// worker count keeps the worker busy, so the figures measure the
  /// service path rather than thread wake-ups. Waiting on the oldest ticket
  /// suffices: the single worker serves the tenants' queues in turn, so
  /// tickets complete in about the order they were submitted.
  LevelResult ClosedLoop(size_t depth, double window_ms, bool sample) {
    LevelResult out;
    std::deque<Pending> pending;
    const auto start = Clock::now();
    for (int64_t k = 0;;) {
      while (pending.size() < depth && MsSince(start) < window_ms) {
        Request request = stream_->NextTemplate();
        const int tenant = static_cast<int>(k % kTenants);
        const bool sampled = sample && TakeSample(k++, request);
        ++out.attempted;
        const auto submitted = Clock::now();
        auto ticket =
            (*sessions_)[static_cast<size_t>(tenant)].Submit(request.sql);
        if (!ticket.ok()) {
          ++out.failed;
          out.errors.push_back(request.sql + ": " +
                               ticket.status().ToString());
          continue;
        }
        pending.push_back({*ticket, tenant, submitted, std::move(request),
                           sampled});
      }
      if (pending.empty()) break;
      const Pending p = std::move(pending.front());
      pending.pop_front();
      auto r = (*sessions_)[static_cast<size_t>(p.tenant)].Wait(p.ticket);
      out.Record(p, r, MsSince(p.start));
      out.finished_ms.push_back(MsSince(start));
    }
    return out;
  }

  /// The run's ad-hoc queries of new shapes, one at a time over the
  /// tenants' sessions in turn, each timed from its submission.
  LevelResult AdhocPass(int count) {
    LevelResult out;
    for (int k = 0; k < count; ++k) {
      Request request = stream_->NextAdhoc();
      out.adhoc.push_back(request);
      ++out.attempted;
      const auto t0 = Clock::now();
      auto r = (*sessions_)[static_cast<size_t>(k % kTenants)].Run(request.sql);
      const double ms = MsSince(t0);
      if (!r.ok()) {
        ++out.failed;
        out.errors.push_back(request.sql + ": " + r.status().ToString());
        continue;
      }
      out.done.push_back(Completed{request.cls, ms, r->metrics.bytes_shipped,
                                   r->metrics.network_ms});
    }
    return out;
  }

 private:
  /// One template request in kSampleEvery, at a seed-dependent offset, up
  /// to kMaxSamples per run.
  bool TakeSample(int64_t k, const Request& request) {
    if (request.cls == kAdhocClass || k % kSampleEvery != sample_at_ ||
        samples_taken_ >= kMaxSamples) {
      return false;
    }
    ++samples_taken_;
    return true;
  }

  std::vector<QueryService::Session>* sessions_;
  RequestStream* stream_;
  Churn* churn_;
  int waiters_;
  int64_t sample_at_;
  int samples_taken_ = 0;
};

struct ServiceSetup {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryService> service;
  std::vector<QueryService::Session> sessions;
  std::vector<cgq::GeneratedPolicy> policies;
  double generate_ms = 0, install_ms = 0, service_ms = 0;
  double Total() const { return generate_ms + install_ms + service_ms; }
};

cgq::OptimizerOptions HubOptions(const Engine& engine) {
  cgq::OptimizerOptions opt = engine.default_options();
  opt.required_result = cgq::LocationSet::Single(kHub);
  return opt;
}

Status Setup(uint64_t seed, ServiceSetup* s) {
  cgq::tpch::TpchConfig config;
  config.scale_factor = kScaleFactor;
  config.seed = seed;
  CGQ_ASSIGN_OR_RETURN(cgq::Catalog catalog, cgq::tpch::BuildCatalog(config));
  s->engine = std::make_unique<Engine>(std::move(catalog),
                                       cgq::NetworkModel::DefaultGeo(5));
  auto t0 = Clock::now();
  CGQ_RETURN_NOT_OK(cgq::tpch::GenerateData(s->engine->catalog(), config,
                                            &s->engine->store()));
  s->generate_ms = MsSince(t0);

  const cgq::WorkloadProperties props = cgq::TpchWorkloadProperties();
  cgq::PolicyGeneratorConfig pconfig;
  pconfig.template_name = "F";
  pconfig.count = kPolicies;
  pconfig.seed = seed * 1000003 + 11;
  pconfig.hub = kHub;
  cgq::PolicyExpressionGenerator pgen(&s->engine->catalog(), &props, pconfig);
  s->policies = pgen.Generate();
  t0 = Clock::now();
  s->engine->policies().Clear();
  for (const cgq::GeneratedPolicy& p : s->policies) {
    CGQ_RETURN_NOT_OK(s->engine->AddPolicy(p.location, p.text));
  }
  s->install_ms = MsSince(t0);

  t0 = Clock::now();
  cgq::ServiceOptions sopts;
  sopts.max_inflight = kWorkers;
  sopts.queue_capacity = 1 << 20;  // overload shows as latency, not rejects
  sopts.queue_timeout_ms = 0;
  s->service = std::make_unique<QueryService>(s->engine.get(), sopts);
  for (int t = 0; t < kTenants; ++t) {
    const std::string name = "tenant" + std::to_string(t);
    CGQ_RETURN_NOT_OK(
        s->service->tenants().Register(name, "token-" + name, {}).status());
    CGQ_ASSIGN_OR_RETURN(QueryService::Session session,
                         s->service->OpenSession("token-" + name));
    session.optimizer_options() = HubOptions(*s->engine);
    s->sessions.push_back(std::move(session));
  }
  // Cache warm-up: one instance of each template.
  cgq::Rng rng(seed);
  for (size_t r = 0; r < kTemplates; ++r) {
    CGQ_RETURN_NOT_OK(
        s->sessions[0].Run(MakeTemplate(r, &rng).sql).status());
  }
  s->service_ms = MsSince(t0);
  return Status::OK();
}

/// Located plan a request is served with: the cached entry a hit binds
/// (what the service executes), else a fresh optimization.
cgq::Result<cgq::OptimizedQuery> ServedPlan(Engine* engine, cgq::PlanCache* cache,
                                            const std::string& sql) {
  const cgq::OptimizerOptions opt = HubOptions(*engine);
  const cgq::ParameterizedSql p = cgq::ParameterizeSql(sql);
  std::optional<cgq::OptimizedQuery> hit = cache->Lookup(
      cgq::PlanCache::ComputeKey(p.skeleton, opt), p.params,
      engine->policies());
  if (hit.has_value()) return std::move(*hit);
  return engine->Optimize(sql, opt);
}

}  // namespace

int RunService(const Options& options, RunOutput* out) {
  const int nproc =
      static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  Trace trace = MakeTrace(options.trace);

  std::vector<double> setup_ms, install_ms, generate_ms;
  ServiceSetup s;
  for (int rep = 0; rep < kSetups; ++rep) {
    // Tear down in dependency order: sessions, service, then engine.
    s.sessions.clear();
    s.service.reset();
    s.engine.reset();
    Status st = Setup(options.seed, &s);
    if (!st.ok()) {
      out->notes.push_back("setup: " + st.ToString());
      return 1;
    }
    setup_ms.push_back(s.Total());
    install_ms.push_back(s.install_ms);
    generate_ms.push_back(s.generate_ms);
  }
  Engine* engine = s.engine.get();
  QueryService* service = s.service.get();
  cgq::PlanCache* cache = service->plan_cache();

  // Inputs of the checks: the data and every policy text installed.
  {
    std::filesystem::create_directories(options.out_dir + "/data");
    for (const char* name : {"nation", "customer", "orders", "supplier"}) {
      auto def = engine->catalog().GetTable(name);
      if (!def.ok()) return 1;
      std::vector<Row> rows;
      for (const auto& frag : (*def)->fragments) {
        auto got = engine->store().Get(frag.location, name);
        if (got.ok()) rows.insert(rows.end(), (*got)->begin(), (*got)->end());
      }
      WriteTableTsv(options.out_dir + "/data/" + name + ".tsv", **def, rows);
    }
  }
  const cgq::WorkloadProperties props = cgq::TpchWorkloadProperties();
  // Churn: each update touches the policies of one template's table, in
  // turn, so every add and every remove invalidates exactly one template's
  // cached plan and the next requests of it re-optimize.
  std::vector<cgq::GeneratedPolicy> churn_texts;
  for (const char* table : {"nation", "customer", "orders", "supplier"}) {
    const cgq::TableDef* def = *engine->catalog().GetTable(table);
    churn_texts.push_back(cgq::GeneratedPolicy{
        engine->catalog().locations().GetName(def->home()),
        "ship " + def->schema.column(0).name + " from " + table + " to l1"});
  }
  {
    std::string tsv;
    for (const auto* set : {&s.policies, &churn_texts}) {
      for (const cgq::GeneratedPolicy& p : *set) {
        tsv += p.location + "\t" + p.text + "\n";
      }
    }
    WriteFile(options.out_dir + "/policies.tsv", tsv);
  }

  RequestStream stream(engine, &props, options.seed);
  Churn churn(service, churn_texts);
  // Threads: one service worker, and at most nproc generator threads (one
  // submitter and nproc - 1 waiters).
  LoadGenerator gen(&s.sessions, &stream, &churn, nproc - 1, options.seed);
  const double budget_ms = options.seconds * 1000.0;

  const auto phase_start = Clock::now();

  // --- Phase 1: fixed offered rate with policy churn. ---
  const double churn_ms = kChurnShare * budget_ms;
  const cgq::PlanCacheStats cache_before = cache->stats();
  const int64_t updates_before = churn.updates();
  LevelResult churned =
      gen.Run(kFixedRateQps, churn_ms, /*sample=*/true, /*churn=*/true);
  const cgq::PlanCacheStats cache_after = cache->stats();
  const int64_t updates_churn = churn.updates() - updates_before;

  // --- Phase 2: ad-hoc queries of new shapes, one at a time. ---
  LevelResult adhoc = gen.AdhocPass(kAdhocPass);

  // --- Phase 3: closed loop at a fixed depth: latency and throughput. ---
  LevelResult closed = gen.ClosedLoop(
      kClosedLoopDepth, kClosedShare * budget_ms, /*sample=*/true);
  // Peak memory of the steady state; the knee search below overloads
  // the service on purpose and its backlog would decide the figure.
  const double steady_rss_mb = PeakRssMb();

  // --- Phase 4: knee search in the time left. Multiply the rate until a
  // level fails, then bisect between the last pass and the first failure.
  std::vector<LevelResult> levels;
  const auto search_start = Clock::now();
  double pass = 0, fail = 0;
  double rate = 2 * kFixedRateQps;
  const double search_budget_ms = std::max(
      6 * kLevelMs, budget_ms - MsSince(phase_start));
  while (MsSince(search_start) + kLevelMs <= search_budget_ms &&
         (fail == 0 || fail > 1.02 * std::max(pass, kFixedRateQps))) {
    levels.push_back(gen.Run(rate, kLevelMs, /*sample=*/false, /*churn=*/false));
    if (levels.back().Passes()) {
      pass = std::max(pass, rate);
    } else {
      fail = fail == 0 ? rate : std::min(fail, rate);
    }
    rate = fail == 0 ? rate * 1.4 : std::sqrt(std::max(pass, kFixedRateQps) *
                                              fail);
  }
  std::vector<const LevelResult*> all_levels = {&churned, &adhoc, &closed};
  for (const LevelResult& l : levels) all_levels.push_back(&l);
  std::vector<double> update_ms;
  for (const LevelResult* l : all_levels) {
    out->attempted += l->attempted;
    out->failed += l->failed;
    for (const std::string& e : l->errors) {
      if (out->notes.size() < 20) out->notes.push_back(e);
    }
    update_ms.insert(update_ms.end(), l->update_ms.begin(),
                     l->update_ms.end());
  }
  if (fail == 0) {
    out->notes.push_back("knee search never observed a failing rate");
  }

  // --- Metrics: end to end from the closed loop and the ad-hoc pass. ---
  std::vector<double> class_medians = {adhoc.P(0.5)};
  for (int cls = 0; cls < static_cast<int>(kTemplates); ++cls) {
    class_medians.push_back(closed.P(0.5, cls));
  }
  // Plan quality: what the ad-hoc queries ship between sites (a template
  // request only ships its result to the hub).
  double adhoc_bytes = 0, adhoc_wan_ms = 0;
  for (const Completed& c : adhoc.done) {
    adhoc_bytes += c.bytes_shipped;
    adhoc_wan_ms += c.network_ms;
  }
  std::map<std::string, double>& m = out->metrics;
  m["setup_s"] = Median(setup_ms) / 1000.0;
  m["query_geomean_ms"] = Geomean(class_medians);
  // Completions per whole window of the closed loop, median over the
  // windows: a busy moment of the machine moves it less than a mean.
  std::vector<double> per_window;
  for (double at : closed.finished_ms) {
    const size_t w = static_cast<size_t>(at / kThroughputWindowMs);
    if (w >= per_window.size()) per_window.resize(w + 1, 0);
    per_window[w] += 1;
  }
  if (per_window.size() > 1) per_window.pop_back();  // the partial window
  m["throughput_qps"] = Median(per_window) * 1000.0 / kThroughputWindowMs;
  m["service.latency_p50_ms"] = closed.P(0.5);
  m["service.latency_p95_ms"] = closed.P(0.95);
  m["shipped_bytes"] = adhoc_bytes;
  m["sim_wan_ms"] = adhoc_wan_ms;
  m["service.knee_qps"] = pass;
  m["service.churn_p50_ms"] = churned.P(0.5);
  m["service.churn_p99_ms"] = churned.P(0.99);
  m["service.policy_update_ms"] = Median(update_ms);
  m["service.cache_hit_ratio"] =
      static_cast<double>(cache_after.hits - cache_before.hits) /
      static_cast<double>(std::max<int64_t>(
          1, (cache_after.hits - cache_before.hits) +
                 (cache_after.misses - cache_before.misses)));
  m["service.invalidations"] =
      static_cast<double>(cache_after.invalidations -
                          cache_before.invalidations) /
      static_cast<double>(std::max<int64_t>(1, updates_churn));

  std::string extra =
      "{\"churn_rate_qps\":" + JsonNumber(kFixedRateQps) +
      ",\"churn_samples\":" + std::to_string(churned.done.size()) +
      ",\"churn_lateness_p99_ms\":" +
      JsonNumber(Percentile(churned.lateness_ms, 0.99)) +
      ",\"closed_loop_requests\":" + std::to_string(closed.done.size()) +
      ",\"closed_loop_windows\":[" + [&] {
        std::string w;
        for (size_t i = 0; i < per_window.size(); ++i) {
          w += (i ? "," : "") + JsonNumber(per_window[i]);
        }
        return w;
      }() + "]" +
      ",\"knee_pass_qps\":" + JsonNumber(pass) +
      ",\"knee_fail_qps\":" + JsonNumber(fail) +
      ",\"workers\":" + std::to_string(kWorkers) +
      ",\"generator_threads\":" + std::to_string(nproc) + ",\"levels\":[";
  for (size_t i = 0; i < levels.size(); ++i) {
    extra += (i ? "," : "") + std::string("{\"rate\":") +
             JsonNumber(levels[i].rate) +
             ",\"p99_ms\":" + JsonNumber(levels[i].P(0.99)) +
             ",\"lateness_p99_ms\":" +
             JsonNumber(Percentile(levels[i].lateness_ms, 0.99)) +
             ",\"pass\":" + (levels[i].Passes() ? "true" : "false") + "}";
  }
  out->extra = extra + "]}";

  // --- Answers and plans for the checks, outside every timing. ---
  std::vector<const Request*> checked;
  for (const LevelResult* l : all_levels) {
    for (const std::string& a : l->samples) out->answers.push_back(a);
    for (const Request& r : l->adhoc) checked.push_back(&r);
    for (const Request& r : l->sampled) checked.push_back(&r);
  }
  {
    std::set<std::string> edge_sets;
    for (const Request* r : checked) {
      auto q = ServedPlan(engine, cache, r->sql);
      if (!q.ok()) {
        out->notes.push_back("plan of " + r->sql + ": " +
                             q.status().ToString());
        continue;
      }
      edge_sets.insert(ShipEdgesJson(
          r->cls == kAdhocClass ? "adhoc" : "T" + std::to_string(r->cls),
          *q->plan, engine->catalog().locations()));
    }
    for (const std::string& e : edge_sets) out->edges.push_back(e);
  }

  if (trace.enabled()) {
    // One-client pass over the same mix: each layer called on its own,
    // plus the service's own overhead against a direct Engine::Run.
    const cgq::OptimizerOptions opt = HubOptions(*engine);
    cgq::PolicyEvaluator evaluator(&engine->catalog(), &engine->policies());
    cgq::QueryOptimizer optimizer(&engine->catalog(), &engine->policies(),
                                  &engine->net(), opt);
    // The run's own stream continues, so its ad-hoc shapes are new here.
    RequestStream& probe_stream = stream;
    const int kProbe = 400;
    double overhead_ms = 0, explore = 0, memo = 0, annotate = 0, site = 0,
           rows_scanned = 0;
    int overhead_n = 0;
    for (int i = 0; i < kProbe; ++i) {
      Request r = probe_stream.Next();
      bool hit = false;
      {
        ScopedSpan root(&trace, "request", i);
        cgq::ParameterizedSql p;
        {
          ScopedSpan span(&trace, "sql.parameterize");
          p = cgq::ParameterizeSql(r.sql);
        }
        std::optional<cgq::OptimizedQuery> q;
        {
          ScopedSpan span(&trace, "service.cache_lookup");
          q = cache->Lookup(cgq::PlanCache::ComputeKey(p.skeleton, opt),
                            p.params, engine->policies());
        }
        hit = q.has_value();
        if (hit) {
          ScopedSpan span(&trace, "core.compliance_check");
          (void)cgq::CheckCompliance(*q->plan, evaluator,
                                     engine->catalog().locations());
        } else {
          cgq::Result<cgq::QueryAst> ast = Status::Internal("unparsed");
          {
            ScopedSpan span(&trace, "sql.parse");
            ast = cgq::ParseQuery(r.sql);
          }
          {
            ScopedSpan span(&trace, "plan.bind");
            cgq::PlannerContext ctx(&engine->catalog());
            if (ast.ok()) (void)cgq::PlanQueryAst(*ast, &ctx);
          }
          ScopedSpan span(&trace, "optimizer.optimize");
          auto fresh = ast.ok()
                           ? optimizer.OptimizeAst(*ast)
                           : cgq::Result<cgq::OptimizedQuery>(ast.status());
          if (fresh.ok()) {
            q = std::move(*fresh);
            // Phase figures of work done here; a hit's are the insert's.
            explore += q->stats.explore_ms;
            memo += static_cast<double>(q->stats.memo_exprs);
            annotate += q->stats.annotate_ms;
            site += q->stats.site_ms;
          }
        }
        if (!q.has_value()) {
          out->notes.push_back("probe " + r.sql + " was not planned");
          continue;
        }
        {
          ScopedSpan span(&trace, "core.policy_eval");
          cgq::QuerySummary summary = cgq::SummarizePlan(*q->plan);
          if (summary.IsSingleDatabaseBlock()) {
            (void)evaluator.Evaluate(summary,
                                     summary.source_locations.ToVector()[0]);
          }
        }
        {
          ScopedSpan span(&trace, "exec.execute");
          auto res = cgq::Executor(&engine->store(), &engine->net(),
                                   engine->default_exec_options())
                         .Execute(*q);
          if (res.ok()) {
            rows_scanned += static_cast<double>(res->metrics.rows_scanned);
          }
        }
      }
      // Service overhead on hits: the same SQL through a session and
      // straight through Engine::Run (both served from the cache). A miss
      // only goes through the service, which caches it as a real one would.
      auto t0 = Clock::now();
      auto via_service = s.sessions[0].Run(r.sql);
      const double service_ms = MsSince(t0);
      if (hit) {
        t0 = Clock::now();
        auto direct = engine->Run(r.sql, opt);
        overhead_ms += service_ms - MsSince(t0);
        ++overhead_n;
        if (!direct.ok()) out->notes.push_back("probe " + r.sql + " failed");
      }
      if (!via_service.ok()) out->notes.push_back("probe " + r.sql + " failed");
    }
    const std::map<std::string, double> self = SelfMs(*trace.session);
    auto per_request = [&](const char* span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second / kProbe;
    };
    m["sql.parameterize_ms"] = per_request("sql.parameterize");
    m["sql.parse_ms"] = per_request("sql.parse");
    m["plan.bind_ms"] = per_request("plan.bind");
    m["optimizer.optimize_ms"] = per_request("optimizer.optimize");
    m["optimizer.explore_ms"] = explore / kProbe;
    m["optimizer.memo_exprs"] = memo / kProbe;
    m["core.annotate_ms"] = annotate / kProbe;
    m["core.site_select_ms"] = site / kProbe;
    m["core.policy_eval_ms"] = per_request("core.policy_eval");
    m["core.implication_tests"] =
        static_cast<double>(evaluator.stats().implication_tests) / kProbe;
    m["core.compliance_check_ms"] = per_request("core.compliance_check");
    m["core.policy_install_ms"] = Median(install_ms);
    m["service.cache_lookup_ms"] = per_request("service.cache_lookup");
    m["service.overhead_ms"] =
        overhead_n > 0 ? overhead_ms / overhead_n : 0;
    m["exec.execute_ms"] = per_request("exec.execute");
    m["exec.rows_scanned"] = rows_scanned / kProbe;
    m["tpch.generate_ms"] = Median(generate_ms);
    WriteFile(options.out_dir + "/spans.json", trace.session->ToChromeJson());
  }
  m["peak_rss_mb"] = steady_rss_mb;
  return 0;
}

}  // namespace cgqbench
